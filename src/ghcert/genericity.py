"""Genericity of the shifted weight mu = omega + 2*rho_n_perp: integrality
and dominance for k, the nonnegativity condition over the t-weights of
n ∩ k, and the strict positivity condition over every nonempty submultiset
of the t-weights of n.
"""

from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm

from ghcert.algebra import LieAlgebra
from ghcert.borel import BorelData
from ghcert.embedding import EmbeddedSubalgebra
from ghcert.errors import (
    ContextMismatch,
    DegenerateOnT,
    GenericNuNotFound,
    InvariantViolation,
    SearchTooLarge,
)
from ghcert.linalg import exact, rank
from ghcert.parabolic import ParabolicData, RhoVectors
from ghcert.weights import Weight, WeightMultiset

DEFAULT_MAX_COEFF = 5
DEFAULT_MAX_SCALE = 20
DEFAULT_COND2_CAP = 24


class TStarForm:
    """Killing-induced bilinear form on t*, from the Gram matrix of t: the
    inverse Gram matrix kept as the integer matrix inv_scaled = den *
    gram^-1, den > 0 the common denominator of its entries."""

    def __init__(self, gram):
        # Fraction-free Gauss-Jordan on [D gram | 1], D the common
        # denominator of gram, without row swaps (Bareiss; Montante): the
        # k-th pivot is the k-th leading principal minor of D gram, and the
        # end is [d 1 | adj(D gram)], d = det(D gram)
        n = len(gram)
        D = lcm(*(x.denominator for row in gram for x in row))
        a = [
            [x.numerator * (D // x.denominator) for x in row] + [int(i == j) for j in range(n)]
            for i, row in enumerate(gram)
        ]
        d = 1
        for k in range(n):
            piv, pivot_row = a[k][k], a[k]
            if piv <= 0:
                if rank(gram) < n:
                    raise DegenerateOnT("Killing form degenerates on t")
                raise DegenerateOnT("Killing form is not positive definite on t")
            for i, row in enumerate(a):
                f = row[k]
                if i != k and (f or d != piv):
                    a[i] = [(piv * x - f * y) // d for x, y in zip(row, pivot_row)]
            d = piv
        # gram^-1 = D adj / d
        adj = [row[n:] for row in a]
        self.den = d // gcd(d, D * gcd(*(x for row in adj for x in row)))
        self.inv_scaled = [[self.den * D * x // d for x in row] for row in adj]

    def ip(self, a, b):
        """<a, b>, exact, in normal form."""
        num = sum(x * sum(g * y for g, y in zip(row, b)) for x, row in zip(a, self.inv_scaled))
        return exact(Fraction(num, self.den))


def induced_form_on_tstar(L: LieAlgebra, emb: EmbeddedSubalgebra) -> TStarForm:
    return TStarForm(L.killing_gram(list(emb.t.pivot_rows.values())))


def restrict_to_t(emb: EmbeddedSubalgebra, nu: Weight) -> Weight:
    """omega: the restriction of a functional on h_std to t."""
    if nu.context != "g":
        raise ContextMismatch("expected a weight on the standard Cartan")
    return Weight(
        "t",
        tuple(
            sum(row[i] * nu.coords[i] for i in range(len(nu.coords)))
            for row in emb.t.rows
        ),
    )


def mu_from_nu(emb: EmbeddedSubalgebra, nu: Weight, rv: RhoVectors) -> Weight:
    return restrict_to_t(emb, nu) + rv.mu_shift


def check_integral_dominant(form: TStarForm, mu: Weight, k_roots, positive_k_roots):
    """Integrality against all t-root coroots of k; dominance against the
    positive ones."""
    integral = True
    for beta in k_roots.entries:
        bb = form.ip(beta, beta)
        if Fraction(2 * form.ip(mu.coords, beta), bb).denominator != 1:
            integral = False
            break
    dominant = all(
        form.ip(mu.coords, beta) >= 0 for beta in positive_k_roots.entries
    )
    return integral, dominant


def check_condition_1(form: TStarForm, mu: Weight, rho: Weight, rho_n: Weight, weights_n_cap_k):
    """<mu + 2 rho - rho_n, beta> >= 0 for every t-weight beta of n ∩ k."""
    vec = [m + 2 * r - rn for m, r, rn in zip(mu.coords, rho.coords, rho_n.coords)]
    violations = [
        beta for beta in sorted(weights_n_cap_k.entries) if form.ip(vec, beta) < 0
    ]
    return not violations, violations


@dataclass
class Cond2Result:
    ok: bool
    witness: tuple  # ((weight coords, chosen count), ...) for the first violation
    enumerated_count: int


def check_condition_2(
    form: TStarForm,
    mu: Weight,
    rho: Weight,
    S: WeightMultiset,
    cap: int = DEFAULT_COND2_CAP,
) -> Cond2Result:
    """<mu + 2 rho - rho_T, rho_T> > 0 for every nonempty submultiset T of S.

    The empty submultiset is excluded (it would demand 0 > 0).  The
    witness is the first violating submultiset, counts taken
    lexicographically in the sorted order of S.

    With h_j = w_j / 2 over the distinct weights w_j of S, c = mu + 2 rho
    and n_j the count of w_j in T, the tested value is the quadratic
    sum_j n_j a_j - sum_{j,l} n_j n_l Q_jl, where a_j = <c, h_j> and
    Q_jl = <h_j, h_l>.  Both tables are built in ints, scaled by one
    positive factor: with den * gram_inv integral, w_j = u_j / E and
    c = v / C for integer vectors u_j and v, the factor 4 C E^2 den gives
    a_j -> 2 E <v, u_j> and Q_jl -> C <u_j, u_l> in the integer form.  The
    walk over the count tuples does int additions only.
    """
    groups = S.items()  # sorted (coords, mult)
    combos = 1
    for _, mult in groups:
        combos *= mult + 1
    if (combos - 1).bit_length() > cap:
        raise SearchTooLarge(f"{combos} submultisets exceeds the 2^{cap} cap")
    enumerated = combos - 1
    c = [m + 2 * r for m, r in zip(mu.coords, rho.coords)]
    C = lcm(*(x.denominator for x in c))
    v = [int(x * C) for x in c]
    E = lcm(*(x.denominator for coords, _ in groups for x in coords))
    u = [[int(x * E) for x in coords] for coords, _ in groups]
    images = [
        [sum(g * y for g, y in zip(row, uj)) for row in form.inv_scaled] for uj in u
    ]
    a = [2 * E * sum(x * y for x, y in zip(v, g)) for g in images]
    Q = [[C * sum(x * y for x, y in zip(uj, g)) for g in images] for uj in u]
    # raising n_j by one adds step[j] - 2 acc[j], acc = sum_l n_l Q[l]
    step = [a[j] - Q[j][j] for j in range(len(groups))]
    mults = [mult for _, mult in groups]
    counts = [0] * len(groups)
    witness = None

    def dfs(idx, val, acc, any_chosen):
        nonlocal witness
        if idx == len(groups):
            if any_chosen and val <= 0:
                witness = tuple(
                    (groups[j][0], counts[j]) for j in range(len(groups)) if counts[j]
                )
            return
        row = Q[idx]
        for k in range(mults[idx] + 1):
            if k:
                val += step[idx] - 2 * acc[idx]
                acc = [x + y for x, y in zip(acc, row)]
            counts[idx] = k
            dfs(idx + 1, val, acc, any_chosen or k > 0)
            if witness is not None:
                return
        counts[idx] = 0

    dfs(0, 0, [0] * len(groups), False)
    return Cond2Result(ok=witness is None, witness=witness, enumerated_count=enumerated)


@dataclass
class GenericityReport:
    mu: Weight
    integral: bool
    dominant: bool
    cond1_ok: bool
    cond1_violations: list
    cond2_ok: bool
    cond2_witness: tuple
    enumerated_count: int

    @property
    def passed(self) -> bool:
        return self.integral and self.dominant and self.cond1_ok and self.cond2_ok


def evaluate_genericity(
    L, emb, pd: ParabolicData, rv: RhoVectors, form: TStarForm, nu: Weight,
    cond2_cap: int = DEFAULT_COND2_CAP,
) -> GenericityReport:
    mu = mu_from_nu(emb, nu, rv)
    integral, dominant = check_integral_dominant(form, mu, pd.k_roots, pd.k_positive_roots)
    c1_ok, c1_viol = check_condition_1(form, mu, rv.rho, rv.rho_n, pd.weights_n_cap_k)
    c2 = check_condition_2(form, mu, rv.rho, pd.weights_n, cap=cond2_cap)
    return GenericityReport(
        mu=mu,
        integral=integral,
        dominant=dominant,
        cond1_ok=c1_ok,
        cond1_violations=c1_viol,
        cond2_ok=c2.ok,
        cond2_witness=c2.witness,
        enumerated_count=c2.enumerated_count,
    )


def _lex_tuples(rank, max_coeff):
    if rank == 0:
        yield ()
        return
    for head in range(max_coeff + 1):
        for tail in _lex_tuples(rank - 1, max_coeff):
            yield (head,) + tail


def find_generic_nu(
    L,
    emb,
    pd: ParabolicData,
    rv: RhoVectors,
    borel: BorelData,
    form: TStarForm,
    max_coeff: int = DEFAULT_MAX_COEFF,
    max_scale: int = DEFAULT_MAX_SCALE,
    cond2_cap: int = DEFAULT_COND2_CAP,
):
    """First b-dominant integral nu whose mu passes all genericity checks.

    Scans nu = N * w_b(lam) over standard-dominant coefficient tuples lam
    (lexicographic) and scales N; deterministic.
    """
    if pd.r <= 0:
        raise InvariantViolation(f"r = {pd.r}: no cohomology degree to make vanish")
    for lam in _lex_tuples(L.rank, max_coeff):
        nu0 = borel.apply_wb(Weight("g", lam))
        for scale in range(1, max_scale + 1):
            if all(x == 0 for x in lam) and scale > 1:
                break
            nu = nu0.scale(scale)
            report = evaluate_genericity(L, emb, pd, rv, form, nu, cond2_cap=cond2_cap)
            if report.passed:
                return nu, report.mu, report
    raise GenericNuNotFound(
        f"no generic nu with coefficients <= {max_coeff} and scale <= {max_scale}"
    )
