"""The Borel subalgebra adapted to the parabolic: positivity is decided by
the value on h, ties broken by standard (height-then-lex) positivity.

This guarantees b is contained in p and b meets k in a Borel subalgebra of
k.  The element w_b of the Weyl group maps the standard positive system to
the adapted one; dominant weights for b are w_b-images of standard
dominant weights.
"""

from dataclasses import dataclass
from fractions import Fraction

from ghcert.algebra import LieAlgebra
from ghcert.errors import InvariantViolation
from ghcert.linalg import matvec
from ghcert.weights import Weight


def root_value_on(L: LieAlgebra, h, c) -> Fraction:
    """Value of the root c (simple-root coords) on a Cartan element h."""
    f = L.rs.root_to_weight(c)
    return sum(Fraction(h[i]) * f[i] for i in range(L.rank))


@dataclass
class BorelData:
    L: LieAlgebra
    h: list
    pos_roots: tuple  # b-positive roots, simple-root coords
    simple_roots: tuple
    w_b: tuple  # matrix on fundamental coords, std-dominant -> b-dominant
    rho: Weight  # half-sum of the b-positive roots (context "g")
    m_pos_roots: tuple  # b-positive roots vanishing on h (roots of m)
    m_simple_roots: tuple

    def dominant(self, lam) -> bool:
        return all(self.L.rs.pair_coroot(lam.coords, b) >= 0 for b in self.simple_roots)

    def integral(self, lam) -> bool:
        return all(
            self.L.rs.pair_coroot(lam.coords, b).denominator == 1
            for b in self.simple_roots
        )

    def m_dominant(self, lam) -> bool:
        return all(self.L.rs.pair_coroot(lam.coords, b) >= 0 for b in self.m_simple_roots)

    def apply_wb(self, lam: Weight) -> Weight:
        return Weight("g", tuple(matvec([list(r) for r in self.w_b], list(lam.coords))))


def _indecomposables(rs, pos):
    posset = set(pos)
    out = []
    for c in pos:
        dec = False
        for a in pos:
            b = tuple(x - y for x, y in zip(c, a))
            if b != c and b in posset and a != c:
                dec = True
                break
        if dec:
            continue
        out.append(c)
    return tuple(out)


def build_borel(L: LieAlgebra, h) -> BorelData:
    rs = L.rs
    pos = []
    for c in rs.positive_roots:
        v = root_value_on(L, h, c)
        if v > 0 or v == 0:
            pos.append(c)
        else:
            pos.append(tuple(-x for x in c))
    # negatives of standard positives with negative h-value are b-positive
    pos = tuple(sorted(pos, key=lambda c: (abs(sum(c)), c)))
    simple = _indecomposables(rs, pos)

    # sift the regular b-dominant vector to find w_b
    lam = [Fraction(0)] * rs.rank
    for c in pos:
        f = rs.root_to_weight(c)
        for i in range(rs.rank):
            lam[i] += f[i]
    word = []
    guard = 0
    while True:
        neg = next((i for i in range(rs.rank) if lam[i] < 0), None)
        if neg is None:
            break
        lam = list(rs.reflect_simple(neg, lam))
        word.append(neg)
        guard += 1
        if guard > len(rs.positive_roots):
            raise InvariantViolation("w_b word is longer than the number of positive roots")
    w_b = None
    for i in word:
        m = rs.simple_reflection_matrix(i)
        w_b = m if w_b is None else [
            [sum(w_b[r][k] * m[k][c] for k in range(rs.rank)) for c in range(rs.rank)]
            for r in range(rs.rank)
        ]
    if w_b is None:
        w_b = [[Fraction(int(r == c)) for c in range(rs.rank)] for r in range(rs.rank)]
    # sanity: w_b maps the standard positive system onto pos
    image = {tuple(rs.act_on_root(w_b, c)) for c in rs.positive_roots}
    if image != set(pos):
        raise InvariantViolation("w_b does not map the standard positive roots onto pos")

    rho = Weight("g", tuple(matvec(w_b, [Fraction(1)] * rs.rank)))
    half = [Fraction(0)] * rs.rank
    for c in pos:
        f = rs.root_to_weight(c)
        for i in range(rs.rank):
            half[i] += Fraction(f[i], 2)
    if tuple(half) != rho.coords:
        raise InvariantViolation(f"half-sum of pos {tuple(half)} != w_b(rho) {rho.coords}")

    m_pos = tuple(c for c in pos if root_value_on(L, h, c) == 0)
    m_simple = _indecomposables(rs, m_pos)
    return BorelData(
        L=L,
        h=list(h),
        pos_roots=pos,
        simple_roots=simple,
        w_b=tuple(tuple(row) for row in w_b),
        rho=rho,
        m_pos_roots=m_pos,
        m_simple_roots=m_simple,
    )
