"""The Borel subalgebra adapted to the parabolic: positivity is decided by
the value on h, ties broken by standard (height-then-lex) positivity.

This guarantees b is contained in p and b meets k in a Borel subalgebra of
k.  The element w_b of the Weyl group maps the standard positive system to
the adapted one; dominant weights for b are w_b-images of standard
dominant weights.
"""

from math import lcm

from ghcert.algebra import LieAlgebra
from ghcert.errors import InvariantViolation
from ghcert.linalg import exact
from ghcert.weights import Weight


class BorelData:
    __slots__ = ("L", "h", "pos_roots", "simple_roots", "w_b", "word", "rho", "m_pos_roots",
                 "m_simple_roots")

    def __init__(self, L: LieAlgebra, h: list, pos_roots: tuple, simple_roots: tuple,
                 w_b: tuple, word: tuple, rho: Weight, m_pos_roots: tuple,
                 m_simple_roots: tuple):
        self.L, self.h = L, h
        self.pos_roots = pos_roots  # b-positive roots, simple-root coords
        self.simple_roots = simple_roots
        self.w_b = w_b  # matrix on fundamental coords, std-dominant -> b-dominant
        # the simple reflections that sift rho_b to rho, in order: w_b =
        # s_word[0] ... s_word[-1]
        self.word = word
        self.rho = rho  # half-sum of the b-positive roots (context "g")
        self.m_pos_roots = m_pos_roots  # b-positive roots vanishing on h (roots of m)
        self.m_simple_roots = m_simple_roots

    def __eq__(self, other):
        if type(other) is not BorelData:
            return NotImplemented
        return all(getattr(self, f) == getattr(other, f) for f in self.__slots__)

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
        return Weight("g", tuple(sum(x * y for x, y in zip(row, lam.coords)) for row in self.w_b))


def build_borel(L: LieAlgebra, h) -> BorelData:
    """The adapted Borel, worked out in integers: roots are carried by their
    fundamental coordinates, h is scaled by the lcm of its denominators
    (only the sign of a root's value on h is read), and w_b is the product
    of the integer simple reflections that sift 2 rho_b to 2 rho."""
    rs = L.rs
    n = rs.rank
    h = [exact(x) for x in h]
    scale = lcm(*(x.denominator for x in h))
    hz = [int(x * scale) for x in h]
    # (root, fundamental coords, scaled value on h) of each b-positive root;
    # negatives of standard positives with negative h-value are b-positive
    signed = []
    for c, f in zip(rs.positive_roots, rs.positive_root_weights):
        v = sum(x * y for x, y in zip(hz, f))
        if v < 0:
            c, f, v = tuple(-x for x in c), tuple(-x for x in f), -v
        signed.append((c, f, v))
    signed.sort(key=lambda t: (abs(sum(t[0])), t[0]))
    pos = tuple(c for c, _, _ in signed)

    # sift the regular b-dominant vector 2 rho_b to find w_b
    two_rho_b = tuple(sum(f[i] for _, f, _ in signed) for i in range(n))
    lam = two_rho_b
    word = []
    while True:
        neg = next((i for i in range(n) if lam[i] < 0), None)
        if neg is None:
            break
        lam = rs.reflect_simple(neg, lam)
        word.append(neg)
        if len(word) > len(rs.positive_roots):
            raise InvariantViolation("w_b word is longer than the number of positive roots")
    # w_b = s_{word[0]} ... s_{word[-1]}; right multiplication by s_i only
    # changes column i
    w_b = [[int(r == c) for c in range(n)] for r in range(n)]
    for i in word:
        for row in w_b:
            row[i] -= sum(row[k] * rs.cartan[k][i] for k in range(n))

    def apply(f):
        return tuple(sum(a * b for a, b in zip(row, f)) for row in w_b)

    # sanity: w_b maps the standard positive system onto pos
    if {apply(f) for f in rs.positive_root_weights} != {f for _, f, _ in signed}:
        raise InvariantViolation("w_b does not map the standard positive roots onto pos")
    rho = tuple(sum(row) for row in w_b)
    if tuple(2 * x for x in rho) != two_rho_b:
        raise InvariantViolation(f"half-sum of pos {two_rho_b}/2 != w_b(rho) {rho}")

    # w_b maps the standard simple roots onto the simple roots of pos; those
    # vanishing on h are the simple roots of m
    simple_f = {apply([rs.cartan[j][i] for j in range(n)]) for i in range(n)}
    simple = tuple(c for c, f, _ in signed if f in simple_f)
    m_simple = tuple(c for c, f, v in signed if v == 0 and f in simple_f)
    return BorelData(
        L=L,
        h=h,
        pos_roots=pos,
        simple_roots=simple,
        w_b=tuple(tuple(row) for row in w_b),
        word=tuple(word),
        rho=Weight("g", rho),
        m_pos_roots=tuple(c for c, _, v in signed if v == 0),
        m_simple_roots=m_simple,
    )
