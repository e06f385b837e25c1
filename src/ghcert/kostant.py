"""Highest-weight cohomology of the nilradical via the Weyl-group formula,
and the Hom-vanishing check that settles the non-ideal branch.
"""

from ghcert.algebra import LieAlgebra
from ghcert.borel import BorelData
from ghcert.errors import InvariantViolation, LengthOutOfRange, NonDominant, SearchTooLarge
from ghcert.weights import Weight

# the most minimal coset representatives one degree's search may visit
COSET_CAP = 4 * 10**6


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
    visited = 1
    for step in range(length):
        nxt = {}
        for point, word in level.items():
            for i, x in enumerate(point):
                if x > 0:
                    img = rs.reflect_simple(i, point)
                    if img not in nxt:
                        nxt[img] = (i,) + word
        visited += len(nxt)
        if visited > COSET_CAP:
            raise SearchTooLarge(
                f"W^J search to length {length} visits more than {COSET_CAP} "
                f"elements (at length {step + 1})"
            )
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
    longest element has length dim n.
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
