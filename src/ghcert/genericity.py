"""Genericity of the shifted weight mu = omega + 2*rho_n_perp: integrality
and dominance for k, the nonnegativity condition over the t-weights of
n ∩ k, and the strict positivity condition (2) over every nonempty
submultiset of the t-weights of n.

Every pairing is taken in integers, through the integer-scaled inverse
Gram matrix of `TStarForm`.  Condition (2) is decided at the singles and
at the nonzero vertices of the zonotope that the submultisets fill, found
by an integer walk over the regions of the weights' hyperplanes and
memoised per weight multiset; at equal rank (dim t = rank g) the singles
alone decide (`check_condition_2` has both arguments).  Its
`enumerated_count` is the number of submultisets this covers,
prod_j (m_j + 1) - 1, not the number of points evaluated.  The cap
`caps.cond2` bounds that work, the singles plus the regions, to 2^cap;
`check_cond2_cap` counts it from the t-grading, before any h is chosen.
"""

from functools import lru_cache
from fractions import Fraction
from itertools import combinations, product
from math import comb, gcd, lcm
from operator import mul

from ghcert.algebra import LieAlgebra
from ghcert.borel import BorelData
from ghcert.embedding import EmbeddedSubalgebra, TGrading
from ghcert.errors import (
    ContextMismatch,
    DegenerateOnT,
    GenericNuNotFound,
    InvariantViolation,
    SearchTooLarge,
)
from ghcert.linalg import Echelon, exact, primitive, rank
from ghcert.parabolic import ParabolicData, RhoVectors
from ghcert.weights import Weight

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

    def image(self, x):
        """inv_scaled x, for an integer vector x."""
        return [sum(map(mul, row, x)) for row in self.inv_scaled]

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
            sum(x * nu.coords[i] for i, x in row.items())
            for row in emb.t.pivot_rows.values()
        ),
    )


def mu_from_nu(emb: EmbeddedSubalgebra, nu: Weight, rv: RhoVectors) -> Weight:
    return restrict_to_t(emb, nu) + rv.mu_shift


def _ints(vec):
    """(integer vector, D): vec times D, D > 0 the least such."""
    D = lcm(*(x.denominator for x in vec))
    return [x.numerator * (D // x.denominator) for x in vec], D


def check_integral_dominant(form: TStarForm, mu: Weight, positive_k_roots):
    """Integrality and dominance against the coroots of the positive t-roots
    of k; -beta pairs to the negative of beta, so the positive ones decide
    integrality for all.  In integers: with mu = m / D and beta = b / B,
    2 <mu, beta> / <beta, beta> = 2 B <Mm, b> / (D <Mb, b>)."""
    m, D = _ints(mu.coords)
    Mm = form.image(m)
    betas = [_ints(beta) for beta in positive_k_roots]
    integral = all(
        2 * B * sum(map(mul, Mm, b)) % (D * sum(map(mul, form.image(b), b))) == 0
        for b, B in betas
    )
    dominant = all(sum(map(mul, Mm, b)) >= 0 for b, _ in betas)
    return integral, dominant


def check_condition_1(form: TStarForm, mu: Weight, rho: Weight, rho_n: Weight, weights_n_cap_k):
    """<mu + 2 rho - rho_n, beta> >= 0 for every t-weight beta of n ∩ k."""
    vec, _ = _ints([m + 2 * r - rn for m, r, rn in zip(mu.coords, rho.coords, rho_n.coords)])
    Mv = form.image(vec)
    violations = [
        beta for beta in sorted(weights_n_cap_k)
        if sum(map(mul, Mv, _ints(beta)[0])) < 0
    ]
    return not violations, violations


class Cond2Result:
    __slots__ = ("ok", "witness", "enumerated_count")

    def __init__(self, ok: bool, witness: tuple, enumerated_count: int):
        self.ok, self.enumerated_count = ok, enumerated_count
        self.witness = witness  # ((weight coords, chosen count), ...) of a violating submultiset


def _det(m):
    """Determinant of a square integer matrix, fraction-free (Bareiss)."""
    if len(m) < 3:
        return m[0][0] if len(m) == 1 else m[0][0] * m[1][1] - m[0][1] * m[1][0]
    m = [list(row) for row in m]
    sign, prev = 1, 1
    for k in range(len(m)):
        p = next((i for i in range(k, len(m)) if m[i][k]), None)
        if p is None:
            return 0
        if p != k:
            m[k], m[p], sign = m[p], m[k], -sign
        piv = m[k]
        for i in range(k + 1, len(m)):
            m[i] = [(piv[k] * x - m[i][k] * y) // prev for x, y in zip(m[i], piv)]
        prev = piv[k]
    return sign * prev


def _sign_patterns(idx):
    """Every subset of idx as a bitmask: the regions of independent lines."""
    out = [0]
    for i in idx:
        out += [A | 1 << i for A in out]
    return out


def _regions(q, memo):
    """The regions of the arrangement of the hyperplanes q_i^perp over the
    keys i of q, as bitmasks of the i negative on them.  q maps each i to
    its coordinates in a basis of the span, so the rank r is their length.

    Independent lines give every sign pattern.  Otherwise r >= 2, and a
    region is a pointed cone, so it has an extreme ray psi: the normal of a
    flat Z of rank r - 1, spanned by an (r - 1)-subset S.  The regions at
    psi are N | A and, at -psi, P | A, where N and P are the i negative and
    positive on psi and A runs over the regions of Z, memoised by Z.
    <psi, q_x> is the determinant of the rows q_s, s in S, and q_x, so psi
    is their cofactor vector, and Z's coordinates in the basis S are the
    <q_x, q_s>."""
    idx = list(q)
    r = len(q[idx[0]])
    if len(idx) == r:
        return _sign_patterns(idx)
    out, covered = set(), set()
    for S in combinations(idx, r - 1):
        if S in covered:
            continue
        rows = [q[s] for s in S]
        cof = [(-1) ** c * _det([row[:c] + row[c + 1:] for row in rows]) for c in range(r)]
        if not any(cof):
            continue  # S is dependent
        P = N = Z = 0
        for i in idx:
            x = sum(map(mul, q[i], cof))
            if x > 0:
                P |= 1 << i
            elif x < 0:
                N |= 1 << i
            else:
                Z |= 1 << i
        flat = [i for i in idx if Z >> i & 1]
        if len(flat) == r - 1:
            sub = _sign_patterns(flat)
        else:
            covered.update(combinations(flat, r - 1))
            sub = memo.get(Z)
            if sub is None:
                sub = memo[Z] = _regions(
                    {i: [sum(map(mul, q[i], row)) for row in rows] for i in flat}, memo
                )
        for A in sub:
            out.add(N | A)
            out.add(P | A)
    return out


@lru_cache(maxsize=64)
def _arrangement(groups):
    """The zonotope of the sorted (coords, mult) pairs of a weight multiset:
    (E, u, lines, on_line, basis).  u_j = E w_j are the distinct weights as
    integer vectors; lines[i] is primitive with its first nonzero entry
    positive, and u_j = sign |u_j| lines[i] for each (j, sign) in
    on_line[i] (`primitive`); basis is a greedy basis of the lines' span."""
    E = lcm(*(x.denominator for coords, _ in groups for x in coords))
    u = [[x.numerator * (E // x.denominator) for x in coords] for coords, _ in groups]
    line_of, lines, on_line = {}, [], []
    for j, uj in enumerate(u):
        if any(uj):
            p, sign = primitive(uj)
            if p not in line_of:
                line_of[p] = len(lines)
                lines.append(p)
                on_line.append([])
            on_line[line_of[p]].append((j, sign))
    ech = Echelon()
    basis = [p for p in lines if ech.insert({i: x for i, x in enumerate(p) if x})]
    return E, u, lines, on_line, basis


@lru_cache(maxsize=64)
def _vertices(groups):
    """The zonotope's vertices as (s, mask), one per region of its lines'
    arrangement (`_regions`) in the order of the bitmasks: s sums m_j u_j
    over the u_j negative on the region, on the lines in the mask those
    with sign 1, on the others those with sign -1."""
    E, u, lines, on_line, basis = _arrangement(groups)
    sides = [([0] * len(u[0]), [0] * len(u[0])) for _ in lines]  # (sign -1, sign 1)
    for i, members in enumerate(on_line):
        for j, sign in members:
            side = sides[i][sign > 0]
            side[:] = [x + groups[j][1] * y for x, y in zip(side, u[j])]
    q = {i: [sum(map(mul, p, b)) for b in basis] for i, p in enumerate(lines)}
    return [
        ([sum(col) for col in zip(*(sides[i][mask >> i & 1] for i in range(len(lines))))], mask)
        for mask in sorted(_regions(q, {}))
    ]


def check_cond2_cap(grading: TGrading, cap: int = DEFAULT_COND2_CAP, equal_rank=False) -> int:
    """The work of `check_condition_2`, refused over 2^cap: a regular h
    puts one of w, -w into n, so the singles are half of g's nonzero
    t-weights, and the l lines of rank r that they lie on cut at most
    2 sum_{i < r} C(l - 1, i) regions (none walked at equal rank)."""
    work = sum(1 for w in grading.blocks if any(w)) // 2
    lines = grading.lines
    if lines and not equal_rank:
        work += 2 * sum(comb(len(lines) - 1, i) for i in range(rank(lines)))
    if work and (work - 1).bit_length() > cap:
        raise SearchTooLarge(f"{work} singles and regions exceed the 2^{cap} cap")
    return work


def check_condition_2(
    form: TStarForm,
    mu: Weight,
    rho: Weight,
    S: dict,
    equal_rank: bool = False,
) -> Cond2Result:
    """<mu + 2 rho - rho_T, rho_T> > 0 for every nonempty submultiset T of
    the multiset S, given as {t-weight: multiplicity}.

    With h_j = w_j / 2 over the distinct weights w_j of S in sorted order
    (multiplicity m_j), c = mu + 2 rho and sigma = rho_T, the test is
    f(sigma) > 0 for the concave f(sigma) = <c, sigma> - <sigma, sigma>,
    over the nonzero points sigma = sum_j n_j h_j, 0 <= n_j <= m_j, of the
    zonotope Z = sum_j [0, m_j h_j]; f > 0 says that sigma lies in the
    open ball B with diameter [0, c].  It is decided at the singles h_j and at the
    nonzero vertices sum_{j in A} m_j h_j of Z, one per region of the
    arrangement {psi : psi(h_j) = 0}, A = {j : psi(h_j) < 0} (Zaslavsky):

    * if a single fails, the answer is no;
    * if every single passes, then <c, h_j> > |h_j|^2 > 0, so the h_j lie
      in an open half-space, and 0 is the vertex of the region where every
      psi(h_j) > 0, the one vertex not tested.  For any psi, the maximum
      of psi over the points other than 0 is at most the larger of its
      maximum over the nonzero vertices (when some psi(h_j) > 0, the
      points' maximum sum_{psi(h_j) > 0} m_j psi(h_j) is reached at a
      vertex) and over the singles (otherwise psi(sigma) <= psi(h_j) for
      each h_j that sigma counts).  Hence those points lie in the convex
      hull of the nonzero vertices and the singles, which lies in the
      convex set B when they all do.

    At equal rank (t a Cartan subalgebra of g, so S is a positive system of
    roots, each once) the vertices are sigma_w = (rho_S - w rho_S) / 2 for w
    in W, and f(sigma_w) = <c - rho_S, rho_S - w rho_S> / 2, as
    |rho_S - w rho_S|^2 = 2 <rho_S, rho_S - w rho_S>.  rho_S - w rho_S is a
    nonnegative sum of simple roots, and f(sigma_{s_i}) = f(alpha_i / 2)
    since <rho_S, alpha_i> = |alpha_i|^2 / 2; so the singles decide.

    Values are integers scaled by one positive factor: with M = den *
    gram^-1 integral, w_j = u_j / E and c = v / C for integer vectors u_j
    and v, 4 C E^2 den f(s / 2E) = <s, 2 E M v> - C <s, M s> at
    s = sum_j n_j u_j.  A failure's witness is a violating single or
    vertex, as counts in the sorted order of S.  `enumerated_count` is the
    number of submultisets covered, prod_j (m_j + 1) - 1.  The work is
    bounded before any h is chosen (`check_cond2_cap`).
    """
    groups = tuple(sorted(S.items()))  # (coords, mult)
    combos = 1
    for _, mult in groups:
        combos *= mult + 1
    result = Cond2Result(ok=True, witness=None, enumerated_count=combos - 1)
    E, u, _, on_line, _ = _arrangement(groups)
    if equal_rank and combos != 1 << len(u):
        raise InvariantViolation("n's weights at equal rank are not a positive system")
    v, C = _ints([m + 2 * r for m, r in zip(mu.coords, rho.coords)])
    w = [2 * E * x for x in form.image(v)]

    def value(s):
        return sum(map(mul, s, w)) - C * sum(map(mul, s, form.image(s)))

    for j, uj in enumerate(u):
        if value(uj) <= 0:
            result.ok, result.witness = False, ((groups[j][0], 1),)
            return result
    if equal_rank or not u:
        return result
    for s, mask in _vertices(groups):
        if any(s) and value(s) <= 0:
            chosen = {j for i, members in enumerate(on_line)
                      for j, sign in members if (sign > 0) == bool(mask >> i & 1)}
            result.ok, result.witness = False, tuple(groups[j] for j in sorted(chosen))
            return result
    return result


class GenericityReport:
    __slots__ = ("mu", "integral", "dominant", "cond1_ok", "cond1_violations", "cond2_ok",
                 "cond2_witness", "enumerated_count")

    def __init__(self, mu: Weight, integral: bool, dominant: bool, cond1_ok: bool,
                 cond1_violations: list, cond2_ok: bool, cond2_witness: tuple,
                 enumerated_count: int):
        self.mu, self.integral, self.dominant = mu, integral, dominant
        self.cond1_ok, self.cond1_violations = cond1_ok, cond1_violations
        self.cond2_ok, self.cond2_witness = cond2_ok, cond2_witness
        self.enumerated_count = enumerated_count

    @property
    def passed(self) -> bool:
        return self.integral and self.dominant and self.cond1_ok and self.cond2_ok


def evaluate_genericity(
    L, emb, pd: ParabolicData, rv: RhoVectors, form: TStarForm, nu: Weight
) -> GenericityReport:
    mu = mu_from_nu(emb, nu, rv)
    integral, dominant = check_integral_dominant(form, mu, pd.weights_n_cap_k)
    c1_ok, c1_viol = check_condition_1(form, mu, rv.rho, rv.rho_n, pd.weights_n_cap_k)
    c2 = check_condition_2(form, mu, rv.rho, pd.weights_n, equal_rank=len(mu.coords) == L.rank)
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


def find_generic_nu(
    L,
    emb,
    pd: ParabolicData,
    rv: RhoVectors,
    borel: BorelData,
    form: TStarForm,
    max_coeff: int = DEFAULT_MAX_COEFF,
    max_scale: int = DEFAULT_MAX_SCALE,
):
    """First b-dominant integral nu whose mu passes all genericity checks.

    Scans nu = N * w_b(lam) over standard-dominant coefficient tuples lam
    (lexicographic) and scales N; deterministic.  Returns (nu, report);
    mu is `report.mu`.
    """
    for lam in product(range(max_coeff + 1), repeat=L.rank):
        nu0 = borel.apply_wb(Weight("g", lam))
        for scale in range(1, max_scale + 1):
            if all(x == 0 for x in lam) and scale > 1:
                break
            nu = nu0.scale(scale)
            report = evaluate_genericity(L, emb, pd, rv, form, nu)
            if report.passed:
                return nu, report
    raise GenericNuNotFound(
        f"no generic nu with coefficients <= {max_coeff} and scale <= {max_scale}"
    )
