"""Root systems of the finite Cartan types, with exact rational arithmetic.

Conventions (part of the external contract, documented in the README):

* Cartan matrix: ``A[i][j] = <alpha_j, alpha_i^vee> = alpha_j(h_i)``.
* ``d[i] = (alpha_i, alpha_i)/2`` with shortest root of each simple factor
  normalized to squared length 2.
* Weights are stored by their values on the simple coroots h_1..h_l
  ("fundamental coordinates"); roots by their simple-root coordinates.
* Positive roots are ordered by height, then lexicographically by their
  simple-root coordinate tuples (ascending).
"""

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from ghcert.errors import (
    InvalidCartanType,
    InvariantViolation,
    LengthOutOfRange,
    NonDominant,
    SearchTooLarge,
)
from ghcert.linalg import inverse, matvec

WEYL_ORDER_CAP = 10**7

_EXCEPTIONAL_RANKS = {"E": (6, 7, 8), "F": (4,), "G": (2,)}

_WEYL_ORDERS_EXC = {
    ("E", 6): 51840,
    ("E", 7): 2903040,
    ("E", 8): 696729600,
    ("F", 4): 1152,
    ("G", 2): 12,
}


def _admissible(family: str, rank: int) -> bool:
    if family == "A":
        return rank >= 1
    if family in ("B", "C"):
        return rank >= 2
    if family == "D":
        return rank >= 4
    if family in _EXCEPTIONAL_RANKS:
        return rank in _EXCEPTIONAL_RANKS[family]
    return False


@dataclass(frozen=True)
class CartanType:
    """An ordered product of simple factors, e.g. A2 or A1xA1."""

    factors: tuple

    def __post_init__(self):
        if not self.factors:
            raise InvalidCartanType("empty Cartan type")
        for fam, rank in self.factors:
            if not isinstance(rank, int) or not _admissible(fam, rank):
                raise InvalidCartanType(f"inadmissible factor {fam}{rank}")

    @classmethod
    def parse(cls, spec) -> "CartanType":
        """Accepts 'A2', 'A1xA1', or a list like ['A1', 'A1']."""
        if isinstance(spec, CartanType):
            return spec
        if isinstance(spec, str):
            parts = spec.replace("×", "x").split("x")
        else:
            parts = list(spec)
        factors = []
        for p in parts:
            p = p.strip()
            if len(p) < 2 or p[0] not in "ABCDEFG" or not p[1:].isdigit():
                raise InvalidCartanType(f"cannot parse factor {p!r}")
            factors.append((p[0], int(p[1:])))
        return cls(tuple(factors))

    def __str__(self):
        return "x".join(f"{f}{r}" for f, r in self.factors)

    @property
    def rank(self) -> int:
        return sum(r for _, r in self.factors)

    def weyl_order(self) -> int:
        order = 1
        for fam, r in self.factors:
            if fam == "A":
                n = 1
                for i in range(2, r + 2):
                    n *= i
            elif fam in ("B", "C"):
                n = 2**r
                for i in range(2, r + 1):
                    n *= i
            elif fam == "D":
                n = 2 ** (r - 1)
                for i in range(2, r + 1):
                    n *= i
            else:
                n = _WEYL_ORDERS_EXC[(fam, r)]
            order *= n
        return order


def _simple_cartan_matrix(family: str, rank: int):
    """Cartan matrix and symmetrizers d of one simple factor."""
    A = [[2 if i == j else 0 for j in range(rank)] for i in range(rank)]
    d = [1] * rank

    def edge(i, j, aij=-1, aji=-1):
        A[i][j] = aij
        A[j][i] = aji

    if family == "A":
        for i in range(rank - 1):
            edge(i, i + 1)
    elif family == "B":
        # alpha_rank short, the rest long
        for i in range(rank - 2):
            edge(i, i + 1)
        edge(rank - 2, rank - 1, -1, -2)
        d = [2] * (rank - 1) + [1]
    elif family == "C":
        # alpha_rank long
        for i in range(rank - 2):
            edge(i, i + 1)
        edge(rank - 2, rank - 1, -2, -1)
        d = [1] * (rank - 1) + [2]
    elif family == "D":
        for i in range(rank - 2):
            edge(i, i + 1)
        edge(rank - 3, rank - 1)
    elif family == "E":
        # Bourbaki numbering: chain 1-3-4-5-...-rank, node 2 attached to 4
        chain = [0, 2, 3, 4, 5, 6, 7][: rank - 1]
        for a, b in zip(chain, chain[1:]):
            edge(a, b)
        edge(1, 3)
    elif family == "F":
        edge(0, 1)
        edge(1, 2, -1, -2)
        edge(2, 3)
        d = [2, 2, 1, 1]
    elif family == "G":
        # alpha_1 short, alpha_2 long
        edge(0, 1, -3, -1)
        d = [1, 3]
    return A, d


class RootSystem:
    """Root system data for a (possibly non-simple) Cartan type."""

    def __init__(self, ctype: CartanType):
        self.ctype = ctype
        self.rank = ctype.rank
        self.cartan = [[0] * self.rank for _ in range(self.rank)]
        self.d = [0] * self.rank
        self.factor_ranges = []
        off = 0
        for fam, r in ctype.factors:
            A, d = _simple_cartan_matrix(fam, r)
            for i in range(r):
                self.d[off + i] = d[i]
                for j in range(r):
                    self.cartan[off + i][off + j] = A[i][j]
            self.factor_ranges.append(range(off, off + r))
            off += r
        self.positive_roots = self._generate_positive_roots()
        self.root_index = {c: i for i, c in enumerate(self.positive_roots)}
        # fundamental coordinates of each positive root, as ints
        self.positive_root_weights = tuple(
            tuple(sum(c[j] * row[j] for j in range(self.rank)) for row in self.cartan)
            for c in self.positive_roots
        )
        self.root_set = set(self.positive_roots) | {
            tuple(-x for x in c) for c in self.positive_roots
        }
        self._cartan_inv = None
        # Weyl levels found so far, extended by weyl_by_length
        self._weyl_levels = [[WeylElement((), tuple(1 for _ in range(self.rank)))]]

    # -- root generation ------------------------------------------------

    def _generate_positive_roots(self):
        simples = []
        for i in range(self.rank):
            c = [0] * self.rank
            c[i] = 1
            simples.append(tuple(c))
        roots = set(simples)
        frontier = list(simples)
        while frontier:
            new = []
            for beta in frontier:
                for i in range(self.rank):
                    p = 0
                    cur = list(beta)
                    while True:
                        cur[i] -= 1
                        t = tuple(cur)
                        if t in roots:
                            p += 1
                        else:
                            break
                    pairing = sum(beta[j] * self.cartan[i][j] for j in range(self.rank))
                    if p - pairing > 0:
                        up = list(beta)
                        up[i] += 1
                        t = tuple(up)
                        if t not in roots:
                            roots.add(t)
                            new.append(t)
            frontier = new
        return sorted(roots, key=lambda c: (sum(c), c))

    def height(self, c) -> int:
        return sum(c)

    # -- invariant bilinear form ---------------------------------------

    def root_ip(self, b, c) -> Fraction:
        """(beta, gamma) for roots in simple-root coordinates."""
        return Fraction(
            sum(
                b[i] * c[j] * self.d[i] * self.cartan[i][j]
                for i in range(self.rank)
                for j in range(self.rank)
                if b[i] and c[j]
            )
        )

    def weight_root_ip(self, lam, c) -> Fraction:
        """(lambda, beta) for a weight in fundamental coordinates."""
        return sum(Fraction(c[j] * self.d[j]) * lam[j] for j in range(self.rank) if c[j])

    def pair_coroot(self, lam, c) -> Fraction:
        """<lambda, beta^vee> = 2 (lambda, beta) / (beta, beta)."""
        return 2 * self.weight_root_ip(lam, c) / self.root_ip(c, c)

    def root_to_weight(self, c):
        """Fundamental coordinates of a root (its values on the h_i)."""
        return tuple(
            Fraction(sum(c[j] * self.cartan[i][j] for j in range(self.rank)))
            for i in range(self.rank)
        )

    def cartan_inverse(self):
        if self._cartan_inv is None:
            self._cartan_inv = inverse([[Fraction(x) for x in row] for row in self.cartan])
        return self._cartan_inv

    def weight_to_root_coords(self, lam):
        return tuple(matvec(self.cartan_inverse(), [Fraction(x) for x in lam]))

    def coroot_coeffs(self, c):
        """Integer coefficients of beta^vee on the simple coroots h_i."""
        dd = self.root_ip(c, c) / 2
        out = []
        for i in range(self.rank):
            k = Fraction(c[i] * self.d[i]) / dd
            if k.denominator != 1:
                raise InvariantViolation(f"coroot of {c} has coefficient {k} on h_{i}")
            out.append(int(k))
        return tuple(out)

    # -- Weyl group ----------------------------------------------------

    def simple_reflection_matrix(self, i):
        """Matrix of s_i on fundamental coordinates (columns act on weights)."""
        n = self.rank
        m = [[Fraction(int(r == c)) for c in range(n)] for r in range(n)]
        for j in range(n):
            m[j][i] -= Fraction(self.cartan[j][i])
        return m

    def reflect_simple(self, i, lam):
        return tuple(lam[j] - lam[i] * self.cartan[j][i] for j in range(self.rank))

    def reflect_root(self, c, lam):
        k = self.pair_coroot(lam, c)
        f = self.root_to_weight(c)
        return tuple(x - k * y for x, y in zip(lam, f))

    def act_on_root(self, matrix, c):
        """Image of a root (simple-root coords) under a weight-coords matrix."""
        f = matvec(matrix, list(self.root_to_weight(c)))
        return tuple(self.weight_to_root_coords(f))

    def weyl_by_length(self, max_len=None):
        """Weyl group elements grouped by length: levels[r] lists those of
        length r in the order the breadth-first search reached them.

        The search runs in integers on orbit points: w is keyed by w(rho),
        which determines it because rho is regular.  Level r + 1 is reached
        from level r by left multiplication with the simple reflections s_i
        that lengthen w, those with <w(rho), alpha_i^vee> > 0.  The levels
        are kept on the instance and extended only when a longer length is
        asked for.  Returns levels 0..max_len (all when None).

        The program does not call this: `kostant` walks only the minimal coset
        representatives.  It stays as the tests' reference for that search,
        and because the benchmark's tracer wraps it and
        `weyl_elements_of_length` by name.
        """
        if self.ctype.weyl_order() > WEYL_ORDER_CAP:
            raise SearchTooLarge(
                f"Weyl group of {self.ctype} exceeds the {WEYL_ORDER_CAP} cap"
            )
        levels = self._weyl_levels
        # the longest element has length |positive roots|
        top = len(self.positive_roots)
        if max_len is not None:
            top = min(top, max_len)
        while len(levels) <= top:
            seen = set()
            nxt = []
            for el in levels[-1]:
                for i in range(self.rank):
                    if el.rho_image[i] > 0:
                        img = self.reflect_simple(i, el.rho_image)
                        if img not in seen:
                            seen.add(img)
                            nxt.append(WeylElement((i,) + el.word, img))
            levels.append(nxt)
        return levels[: top + 1]

    def weyl_elements_of_length(self, r: int):
        n_pos = len(self.positive_roots)
        if r < 0 or r > n_pos:
            raise LengthOutOfRange(f"length {r} not in [0, {n_pos}]")
        return self.weyl_by_length(max_len=r)[r]

    def weyl_act(self, w: "WeylElement", lam):
        """w(lambda) for a weight in fundamental coordinates."""
        for i in reversed(w.word):
            lam = self.reflect_simple(i, lam)
        return lam

    # -- weights -------------------------------------------------------

    def is_integral(self, lam) -> bool:
        return all(Fraction(x).denominator == 1 for x in lam)

    def weyl_dimension(self, lam, pos_roots, rho) -> int:
        """Weyl dimension formula for the positive system pos_roots with
        half-sum rho: the product of (lam + rho, a) / (rho, a) over a in
        pos_roots, an exact positive integer. lam must be integral and
        dominant for pos_roots, that is (lam + rho, a) >= (rho, a) for each a."""
        if not self.is_integral(lam):
            raise NonDominant(f"{lam} is not dominant integral")
        shifted = [Fraction(x) + r for x, r in zip(lam, rho)]
        val = Fraction(1)
        for c in pos_roots:
            num, den = self.weight_root_ip(shifted, c), self.weight_root_ip(rho, c)
            if num < den:
                raise NonDominant(f"{lam} is not dominant integral")
            val *= num / den
        if val.denominator != 1 or val <= 0:
            raise InvariantViolation(f"Weyl dimension of {lam} is {val}")
        return int(val)


@dataclass(frozen=True)
class WeylElement:
    """A Weyl group element: a reduced word (i_1, ..., i_r) for
    s_{i_1} ... s_{i_r}, and its orbit point w(rho) in fundamental
    coordinates (integers)."""

    word: tuple
    rho_image: tuple

    @property
    def length(self) -> int:
        return len(self.word)


@lru_cache(maxsize=None)
def root_system(ctype_str: str) -> RootSystem:
    return RootSystem(CartanType.parse(ctype_str))
