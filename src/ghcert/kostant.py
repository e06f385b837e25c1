"""Highest-weight cohomology of the nilradical via the Weyl-group formula,
and the Hom-vanishing check that settles the non-ideal branch.
"""

from dataclasses import dataclass
from fractions import Fraction

from ghcert.algebra import LieAlgebra
from ghcert.borel import BorelData
from ghcert.errors import NonDominant
from ghcert.linalg import inverse, matvec
from ghcert.weights import Weight


@dataclass(frozen=True)
class KostantSummand:
    gamma: Weight
    dim: int  # of the simple m-module with b_m-highest weight gamma


@dataclass
class CohomologyDecomposition:
    degree: int
    summands: list  # included (m-dominant) summands, sorted by gamma
    total_dim: int

    def omits(self, nu: Weight) -> bool:
        """True iff no summand has highest weight nu (the Hom space over m
        from the coefficient module of highest weight nu vanishes)."""
        return all(s.gamma.coords != nu.coords for s in self.summands)


def m_rho(borel: BorelData) -> Weight:
    rs = borel.L.rs
    half = [Fraction(0)] * rs.rank
    for c in borel.m_pos_roots:
        f = rs.root_to_weight(c)
        for i in range(rs.rank):
            half[i] += Fraction(f[i], 2)
    return Weight("g", tuple(half))


def kostant_cohomology(L: LieAlgebra, borel: BorelData, nu: Weight, r: int) -> CohomologyDecomposition:
    """Degree-r decomposition: one summand per length-r Weyl element whose
    shifted image is dominant for m; only those summands survive.

    The lengths are taken in the adapted positive system, whose Weyl
    elements are w_b w w_b^-1 for w of standard length r; their image of
    nu + rho is w_b w (w_b^-1 (nu + rho)).
    """
    if not (borel.dominant(nu) and borel.integral(nu)):
        raise NonDominant(f"nu = {nu.coords} is not b-dominant integral")
    rs = L.rs
    rho = borel.rho
    shifted = [n + p for n, p in zip(nu.coords, rho.coords)]
    # nu + rho is integral, and w_b and w_b^-1 are integer matrices
    base = tuple(int(x) for x in matvec(inverse([list(row) for row in borel.w_b]), shifted))
    w_b = [[int(x) for x in row] for row in borel.w_b]
    rho_m = m_rho(borel).coords
    included = []
    for el in rs.weyl_elements_of_length(r):
        img = matvec(w_b, rs.weyl_act(el, base))
        gamma = Weight("g", tuple(i - p for i, p in zip(img, rho.coords)))
        if borel.m_dominant(gamma):
            dim = rs.weyl_dimension(gamma.coords, borel.m_pos_roots, rho_m)
            included.append(KostantSummand(gamma, dim))
    included.sort(key=lambda s: s.gamma.coords)
    total = sum(s.dim for s in included)
    return CohomologyDecomposition(degree=r, summands=included, total_dim=total)


def verify_vanishing(L: LieAlgebra, borel: BorelData, nu: Weight, r: int) -> bool:
    """True iff the coefficient module's highest weight nu does not occur
    among the degree-r summands (so the Hom space over m vanishes)."""
    return kostant_cohomology(L, borel, nu, r).omits(nu)
