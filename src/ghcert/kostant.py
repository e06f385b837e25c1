"""Highest-weight cohomology of the nilradical via the Weyl-group formula,
and the Hom-vanishing check that settles the non-ideal branch.
"""

from collections import Counter
from itertools import accumulate
from operator import sub

from ghcert.algebra import LieAlgebra
from ghcert.borel import BorelData
from ghcert.errors import InvariantViolation, LengthOutOfRange, NonDominant, SearchTooLarge
from ghcert.weights import Weight

# the most minimal coset representatives one degree's search may visit
COSET_CAP = 4 * 10**6


def _heights(roots):
    """{k: how many roots have height k} for a positive system `roots`
    (simple-root coordinates in g), over its own base.  Taken by height in
    g, a root is simple unless it is a simple root plus an earlier root,
    and then it is one higher than that root."""
    height, simple = {}, []
    for c in sorted(roots, key=sum):
        below = next((b for s in simple if (b := tuple(map(sub, c, s))) in height), None)
        if below is None:
            simple.append(c)
        height[c] = 1 if below is None else height[below] + 1
    return Counter(height.values())


def _degrees(heights):
    """The degrees of a Weyl group whose positive roots have the height
    counts n_k: k occurs n_{k-1} - n_k times (Macdonald)."""
    return [k for k in range(2, len(heights) + 2) for _ in range(heights[k - 1] - heights[k])]


def coset_counts(rs, m_roots, length):
    """[|W^J_l| for l = 0, ..., length], W_J the Weyl group of the positive
    system `m_roots`: the q^l coefficients of W(q) / W_J(q) (Humphreys,
    *Reflection Groups and Coxeter Groups*, 1.11), as a power series.  A
    Weyl group's Poincaré polynomial is prod_i [d_i]_q over its degrees,
    [d]_q = (1 - q^d) / (1 - q), so the quotient is prod (1 - q^d_i) over
    W's degrees, divided by prod (1 - q^e_j) over W_J's and by (1 - q) once
    per simple root of g that W_J lacks."""
    g_heights, m_heights = Counter(map(sum, rs.positive_roots)), _heights(m_roots)
    series = [1] + [0] * length
    for d in _degrees(g_heights):  # times 1 - q^d
        for i in range(length, d - 1, -1):
            series[i] -= series[i - d]
    for e in _degrees(m_heights):  # divided by 1 - q^e
        for i in range(e, length + 1):
            series[i] += series[i - e]
    for _ in range(g_heights[1] - m_heights[1]):  # divided by 1 - q
        series = list(accumulate(series))
    return series


def check_coset_cap(rs, m_roots, length):
    """Refuse a W^J walk to `length` that visits more than COSET_CAP
    elements, counted before it starts (`coset_counts`)."""
    for step, visited in enumerate(accumulate(coset_counts(rs, m_roots, length))):
        if visited > COSET_CAP:
            raise SearchTooLarge(
                f"W^J search to length {length} visits more than {COSET_CAP} "
                f"elements (at length {step})"
            )


class CohomologyDecomposition:
    __slots__ = ("degree", "summands")

    def __init__(self, degree: int, summands: list):
        self.degree = degree
        # the b_m-highest weights gamma of the simple m-module summands
        # (m-dominant), sorted by coordinates
        self.summands = summands

    def omits(self, nu: Weight) -> bool:
        """True iff no summand has highest weight nu (the Hom space over m
        from the coefficient module of highest weight nu vanishes)."""
        return all(gamma.coords != nu.coords for gamma in self.summands)


def _coset_representatives(rs, J, length):
    """The elements u of W^J (u(alpha_j) > 0 for j in J) of one length, each
    as a reduced word (i_1, ..., i_l) for u = s_{i_1} ... s_{i_l}.

    Breadth-first in integers on the orbit of lambda_J, the sum of the
    fundamental weights outside J, whose stabiliser is W_J: u is keyed by
    u(lambda_J), and s_i u is one longer and again in W^J exactly when
    <u(lambda_J), alpha_i^vee> > 0.  Only the last level is kept.
    """
    level = {tuple(int(i not in J) for i in range(rs.rank)): ()}
    for _ in range(length):
        nxt = {}
        for point, word in level.items():
            for i, x in enumerate(point):
                if x > 0:
                    img = rs.reflect_simple(i, point)
                    if img not in nxt:
                        nxt[img] = (i,) + word
        level = nxt
    return list(level.values())


def _longest_word(rs, J):
    """A reduced word of the longest element of W_J: the chamber walk of
    -sum_{j in J} omega_j into the chamber of the alpha_j, j in J."""
    point = tuple(-int(i in J) for i in range(rs.rank))
    _, word = rs.chamber_walk(point, [rs.simple_roots[j] for j in J])
    return [J[k] for k in word]


def _act(rs, word, lam):
    """s_{i_l} ... s_{i_1}(lam) for word (i_1, ..., i_l): the inverse of the
    element the word spells, or the element itself when it is an involution."""
    for i in word:
        lam = rs.reflect_simple(i, lam)
    return lam


def check_degrees(L: LieAlgebra, borel: BorelData, nu: Weight, degrees):
    """Raise what `kostant_cohomology` raises at the first of `degrees` it
    refuses: NonDominant for nu, else LengthOutOfRange for the first degree
    outside [0, |Phi+|].  A range stops by |Phi+| + 1, however long it is."""
    if not (borel.dominant(nu) and borel.integral(nu)):
        raise NonDominant(f"nu = {nu.coords} is not b-dominant integral")
    n_pos = len(L.rs.positive_roots)
    for r in degrees:
        if r < 0 or r > n_pos:
            raise LengthOutOfRange(f"length {r} not in [0, {n_pos}]")


def kostant_cohomology(L: LieAlgebra, borel: BorelData, nu: Weight, r: int) -> CohomologyDecomposition:
    """Degree-r decomposition: one summand gamma = w(nu + rho) - rho per
    minimal coset representative w of W_m in W of length r (Kostant).

    In the standard frame pulled back by w_b, m's simple roots are the
    standard simple roots alpha_j, j in J, that w_b maps onto them, and the
    kept w are the inverses of the u in W^J.  Those of length r are reached
    from the nearer end: u -> w_0 u w_{0,J} reverses length on W^J, whose
    longest element has length dim n.  The walk's size is checked against
    COSET_CAP before it starts (`check_coset_cap`).
    """
    check_degrees(L, borel, nu, (r,))
    rs = L.rs
    n_pos = len(rs.positive_roots)
    n = rs.rank
    w_b = borel.w_b
    rho = borel.rho.coords
    m_simple = {rs.root_to_weight(c) for c in borel.m_simple_roots}
    J = [
        i for i in range(n)
        if tuple(sum(row[j] * rs.cartan[j][i] for j in range(n)) for row in w_b) in m_simple
    ]
    top = n_pos - len(borel.m_pos_roots)  # dim n
    gammas = []
    if r <= top:
        m_roots = [c for c in rs.positive_roots if not any(c[i] for i in range(n) if i not in J)]
        check_coset_cap(rs, m_roots, min(r, top - r))
        # base = w_b^-1 (nu + rho_b), in integers: w_b^-1 = s_{i_l} ... s_{i_1}
        # for the word (i_1, ..., i_l) that sifts w_b(rho) = rho_b back to rho
        base = _act(rs, borel.word, tuple(x + p for x, p in zip(nu.coords, rho)))
        if r <= top - r:
            images = [_act(rs, u, base) for u in _coset_representatives(rs, J, r)]
        else:
            # w = w_{0,J} u'^-1 w_0 for u' in W^J of length dim n - r
            w0, w0J = _longest_word(rs, range(n)), _longest_word(rs, J)
            start = _act(rs, w0, base)
            images = [
                _act(rs, w0J, _act(rs, u, start))
                for u in _coset_representatives(rs, J, top - r)
            ]
        for img in images:
            if any(img[j] <= 0 for j in J):
                raise InvariantViolation(f"Kostant image {img} is not dominant for m")
            gammas.append(tuple(sum(a * b for a, b in zip(row, img)) - p
                                for row, p in zip(w_b, rho)))
    gammas.sort()
    return CohomologyDecomposition(degree=r, summands=[Weight("g", g) for g in gammas])


def verify_vanishing(L: LieAlgebra, borel: BorelData, nu: Weight, r: int) -> bool:
    """True iff the coefficient module's highest weight nu does not occur
    among the degree-r summands (so the Hom space over m vanishes)."""
    return kostant_cohomology(L, borel, nu, r).omits(nu)
