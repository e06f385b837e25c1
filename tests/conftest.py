import itertools
import json
from fractions import Fraction

import pytest


def is_normal(x):
    """The package's exact normal form: an int, or a Fraction that is not
    integral (never a float, never a Fraction with denominator 1)."""
    return type(x) is int or (type(x) is Fraction and x.denominator > 1)


def fraction_det(m):
    """Reference determinant: Gaussian elimination in Fractions."""
    work = [[Fraction(x) for x in row] for row in m]
    d = Fraction(1)
    for c in range(len(work)):
        r = next((r for r in range(c, len(work)) if work[r][c]), None)
        if r is None:
            return 0
        if r != c:
            work[c], work[r] = work[r], work[c]
            d = -d
        d *= work[c][c]
        for i in range(c + 1, len(work)):
            f = work[i][c] / work[c][c]
            if f:
                work[i] = [x - f * y for x, y in zip(work[i], work[c])]
    return d


def unit(dim, *idx):
    v = [0] * dim
    for i in idx:
        v[i] = 1
    return v


def problem(algebra, gens, t, **search):
    d = {"algebra": algebra, "subalgebra_generators": gens, "cartan_t": t}
    if search:
        d["search"] = search
    return d


# the standing cases used throughout the suite
CASES = {
    "a1_t": problem("A1", [unit(3, 0)], [unit(3, 0)]),
    "a2_torus": problem(
        "A2", [unit(8, 0), unit(8, 1)], [unit(8, 0), unit(8, 1)]
    ),
    "a2_principal": problem(
        "A2", [unit(8, 0, 1), unit(8, 2, 3), unit(8, 5, 6)], [unit(8, 0, 1)]
    ),
    # A1xA1 basis: h0 h1 e(0,1) e(1,0) f(0,1) f(1,0); k = the (1,0) factor
    "a1a1_factor": problem(
        "A1xA1", [unit(6, 0), unit(6, 3), unit(6, 5)], [unit(6, 0)]
    ),
    # B2 basis: h0 h1 e(0,1) e(1,0) e(1,1) e(1,2) f...; k = sl2 on the
    # first simple root, in the standard position
    "b2_sl2": problem(
        "B2", [unit(10, 0), unit(10, 3), unit(10, 7)], [unit(10, 0)]
    ),
    # G2 basis: h0 h1 e(0,1) e(1,0) e(1,1) e(2,1) e(3,1) e(3,2) f...; k = sl2
    # on the simple root (0,1), where (-1,1) is b-dominant
    "g2_sl2": problem(
        "G2", [unit(14, 1), unit(14, 2), unit(14, 8)], [unit(14, 1)]
    ),
    # A3 basis: h0 h1 h2 e(0,0,1) e(0,1,0) e(1,0,0) ... f...; k = sl2 on the
    # simple root (1,0,0), a rank-3 parabolic with dim n = 5
    "a3_sl2": problem(
        "A3", [unit(15, 0), unit(15, 5), unit(15, 11)], [unit(15, 0)]
    ),
}

# k contains the first A1 factor plus the second torus, so certify splits
# off that factor and certifies the rest inside the reduced algebra A1
REDUCTION = problem(
    "A1xA1",
    [unit(6, 0), unit(6, 3), unit(6, 5), unit(6, 1)],
    [unit(6, 0), unit(6, 1)],
)


def borel_from_case(raw):
    """Adapted Borel of the certified witness for a case input."""
    from ghcert.certify import adapted_borel, parse_input

    fr, reg, pd, borel = adapted_borel(parse_input(raw))
    return fr.L, fr.emb, reg, pd, borel


def compare_at(L, borel, nu, degrees):
    """compare_kostant_vs_oracle against the formula's decompositions at
    `degrees`."""
    from ghcert.kostant import kostant_cohomology
    from ghcert.oracle import compare_kostant_vs_oracle

    kostant = [kostant_cohomology(L, borel, nu, r) for r in degrees]
    return compare_kostant_vs_oracle(L, borel, nu, kostant)


def brute_force_condition_2(form, mu, rho, S):
    """(ok, witness, enumerated) over every count tuple in lexicographic
    order: the first nonempty T with <mu + 2 rho - rho_T, rho_T> <= 0 is
    the witness."""
    groups = S.items()
    c = [m + 2 * r for m, r in zip(mu.coords, rho.coords)]
    tuples = list(itertools.product(*(range(m + 1) for _, m in groups)))
    for counts in tuples[1:]:
        rho_t = [
            Fraction(sum(k * w[i] for (w, _), k in zip(groups, counts)), 2)
            for i in range(len(c))
        ]
        if form.ip([a - b for a, b in zip(c, rho_t)], rho_t) <= 0:
            witness = tuple((w, k) for (w, _), k in zip(groups, counts) if k)
            return False, witness, len(tuples) - 1
    return True, None, len(tuples) - 1


@pytest.fixture
def case_inputs():
    return {k: json.loads(json.dumps(v)) for k, v in CASES.items()}


@pytest.fixture
def write_input(tmp_path):
    def _write(name, data):
        p = tmp_path / name
        p.write_text(json.dumps(data))
        return str(p)

    return _write
