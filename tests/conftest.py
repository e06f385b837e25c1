import functools
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


def fraction_rref(m):
    """The canonical RREF computed in Fractions throughout: (rows, pivots)."""
    work = [[Fraction(x) for x in row] for row in m]
    n_cols = len(work[0]) if work else 0
    pivots = []
    for c in range(n_cols):
        r = next((r for r in range(len(pivots), len(work)) if work[r][c]), None)
        if r is None:
            continue
        p = len(pivots)
        work[p], work[r] = work[r], work[p]
        work[p] = [x / work[p][c] for x in work[p]]
        for i in range(len(work)):
            if i != p and work[i][c]:
                f = work[i][c]
                work[i] = [x - f * y for x, y in zip(work[i], work[p])]
        pivots.append(c)
    return work[: len(pivots)], pivots


def fraction_nullspace(m, n_cols=None):
    """Basis of {x : m x = 0} as canonical RREF rows, in Fractions; n_cols
    is the width when m has no rows."""
    rows, pivots = fraction_rref(m)
    n_cols = len(m[0]) if m else n_cols
    basis = []
    for f in (c for c in range(n_cols) if c not in pivots):
        v = [Fraction(0)] * n_cols
        v[f] = Fraction(1)
        for row, p in zip(rows, pivots):
            v[p] = -row[f]
        basis.append(v)
    return fraction_rref(basis)[0] if basis else []


def fraction_inverse(m):
    """The inverse of a nonsingular square matrix, by the Fraction RREF of
    [m | 1]."""
    n = len(m)
    aug = [list(r) + [int(i == j) for j in range(n)] for i, r in enumerate(m)]
    rows, pivots = fraction_rref(aug)
    assert pivots[:n] == list(range(n)), "matrix is singular"
    return [row[n:] for row in rows]


def matvec(m, v):
    return [sum(x * y for x, y in zip(row, v)) for row in m]


def killing(L, x, y):
    """K(x, y) of dense vectors, through the Gram matrix `killing_matrix`."""
    return sum(a * sum(k * b for k, b in zip(row, y)) for a, row in zip(x, L.killing_matrix) if a)


# Weyl-group references in Fractions: roots in simple-root coordinates,
# weights in fundamental coordinates (their values on the simple coroots)


def root_ip(rs, b, c):
    """(beta, gamma) for roots in simple-root coordinates."""
    return sum(
        b[i] * c[j] * rs.d[i] * rs.cartan[i][j] for i in range(rs.rank) for j in range(rs.rank)
    )


@functools.lru_cache(maxsize=None)
def _cartan_inverse(rs):
    return fraction_inverse(rs.cartan)


def weight_to_root_coords(rs, lam):
    """Simple-root coordinates of a weight, by the inverse Cartan matrix."""
    return tuple(matvec(_cartan_inverse(rs), lam))


def fraction_weyl_dimension(rs, lam, pos_roots, rho):
    """Reference Weyl dimension formula: the product of (lam + rho, a) /
    (rho, a) over a in pos_roots, one Fraction per root."""

    def ip(v, c):
        return sum(Fraction(c[j] * rs.d[j]) * v[j] for j in range(rs.rank))

    shifted = [Fraction(x) + Fraction(r) for x, r in zip(lam, rho)]
    val = Fraction(1)
    for c in pos_roots:
        val *= ip(shifted, c) / ip(rho, c)
    return val


def simple_reflection_matrix(rs, i):
    """Matrix of s_i on fundamental coordinates (columns act on weights)."""
    m = [[int(r == c) for c in range(rs.rank)] for r in range(rs.rank)]
    for j in range(rs.rank):
        m[j][i] -= rs.cartan[j][i]
    return m


def act_on_root(rs, matrix, c):
    """Image of a root (simple-root coords) under a weight-coords matrix."""
    return weight_to_root_coords(rs, matvec(matrix, rs.root_to_weight(c)))


def weyl_act(rs, w, lam):
    """w(lambda) for a WeylElement w and a weight in fundamental coordinates."""
    for i in reversed(w.word):
        lam = rs.reflect_simple(i, lam)
    return lam


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


def _chevalley_units(L):
    """(e, f, h): the basis vector of e_{alpha_i}, of f_{alpha_i} and of h_i
    as a function of the simple root's index i."""
    def vec(index):
        return [int(j == index) for j in range(L.dim)]

    def simple(i):
        return tuple(int(j == i) for j in range(L.rank))

    return (lambda i: vec(L.index[("e", simple(i))]),
            lambda i: vec(L.index[("f", simple(i))]),
            vec)


def principal_sl2(algebra):
    """The principal sl2 of g: e = sum_i e_{alpha_i}, f = sum_i c_i f_{alpha_i}
    and t spanned by h = [e, f] = sum_i c_i h_i, where
    sum_i c_i alpha_j(h_i) = 2 for every simple root alpha_j."""
    from ghcert.algebra import build_algebra

    L = build_algebra(algebra)
    e, f, h = _chevalley_units(L)
    n = L.rank
    # alpha_j(h_i) = (the fundamental coordinates of alpha_j)_i
    inv = fraction_inverse(
        [[L.rs.root_to_weight(tuple(int(k == j) for k in range(n)))[i] for j in range(n)]
         for i in range(n)]
    )
    c = [int(2 * sum(inv[j][i] for j in range(n))) for i in range(n)]

    def combination(coeffs, unit):
        return [sum(a * x for a, x in zip(coeffs, col))
                for col in zip(*(unit(i) for i in range(n)))]

    return problem(algebra, [combination([1] * n, e), combination(c, f)], [combination(c, h)])


def levi(algebra, nodes, full=False):
    """The Levi subalgebra on the simple roots `nodes`: e and f of each
    alpha_i, i in nodes, with t spanned by those h_i or, when `full`, by
    every h_i (then t is the Cartan subalgebra of g)."""
    from ghcert.algebra import build_algebra

    L = build_algebra(algebra)
    e, f, h = _chevalley_units(L)
    t = [h(i) for i in (range(L.rank) if full else nodes)]
    gens = [v for i in nodes for v in (e(i), f(i))]
    return problem(algebra, gens + (t if full else []), t)


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


# (case, nu, degrees) on which the oracle is checked against Kostant: a
# module of dim 80, G2 with dim n = 5, and a rank-3 parabolic
ORACLE_CASES = (
    [("a1_t", (n,), [0, 1]) for n in (0, 2, 4)]
    + [("a2_torus", nu, [0, 1, 2, 3]) for nu in ((0, 0), (1, 0), (1, 1))]
    + [("b2_sl2", (4, -1), [0, 1, 2, 3]), ("g2_sl2", (-1, 1), list(range(6)))]
    + [("a3_sl2", (2, -1, 1), list(range(6)))]
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


def condition_2_value(form, mu, rho, counts):
    """<mu + 2 rho - rho_T, rho_T> for T given as ((weight, count), ...)."""
    c = [m + 2 * r for m, r in zip(mu.coords, rho.coords)]
    rho_t = [Fraction(sum(k * w[i] for w, k in counts), 2) for i in range(len(c))]
    return form.ip([a - b for a, b in zip(c, rho_t)], rho_t)


def brute_force_condition_2(form, mu, rho, S):
    """(ok, witness, enumerated) over every count tuple in lexicographic
    order: the first nonempty T with <mu + 2 rho - rho_T, rho_T> <= 0 is
    the witness."""
    groups = S.items()
    tuples = list(itertools.product(*(range(m + 1) for _, m in groups)))
    for counts in tuples[1:]:
        witness = tuple((w, k) for (w, _), k in zip(groups, counts) if k)
        if condition_2_value(form, mu, rho, witness) <= 0:
            return False, witness, len(tuples) - 1
    return True, None, len(tuples) - 1


def assert_condition_2_matches_brute_force(res, form, mu, rho, S):
    """`ok` and `enumerated_count` equal the exhaustive walk's; a witness is
    a submultiset of S on which the tested value is <= 0."""
    ok, _, enumerated = brute_force_condition_2(form, mu, rho, S)
    assert (res.ok, res.enumerated_count) == (ok, enumerated)
    assert (res.witness is None) == ok
    if res.witness is not None:
        assert all(0 < k <= S.entries[w] for w, k in res.witness)
        assert condition_2_value(form, mu, rho, res.witness) <= 0


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
