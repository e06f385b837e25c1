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

from fractions import Fraction
from functools import lru_cache
from operator import mul

from ghcert.errors import (
    InvalidCartanType,
    InvariantViolation,
    LengthOutOfRange,
    NonDominant,
    SearchTooLarge,
)
from ghcert.linalg import exact

WEYL_ORDER_CAP = 10**7

_EXCEPTIONAL_RANKS = {"E": (6, 7, 8), "F": (4,), "G": (2,)}

_POSITIVE_ROOTS_EXC = {("E", 6): 36, ("E", 7): 63, ("E", 8): 120, ("F", 4): 24, ("G", 2): 6}

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


class CartanType:
    """An ordered product of simple factors, e.g. A2 or A1xA1."""

    __slots__ = ("factors",)

    def __init__(self, factors: tuple):
        if not factors:
            raise InvalidCartanType("empty Cartan type")
        for fam, rank in factors:
            if not isinstance(rank, int) or not _admissible(fam, rank):
                raise InvalidCartanType(f"inadmissible factor {fam}{rank}")
        self.factors = factors

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

    @property
    def dim(self) -> int:
        """dim g = rank + 2 |Phi+|, in closed form: no algebra is built."""
        dim = 0
        for fam, r in self.factors:
            if fam == "A":
                n_pos = r * (r + 1) // 2
            elif fam in ("B", "C"):
                n_pos = r * r
            elif fam == "D":
                n_pos = r * (r - 1)
            else:
                n_pos = _POSITIVE_ROOTS_EXC[(fam, r)]
            dim += r + 2 * n_pos
        return dim

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
        self.simple_roots = tuple(
            tuple(int(i == j) for j in range(self.rank)) for i in range(self.rank)
        )
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
        # (c, c) of every root, an integer, computed once per positive root
        # as sum_j c_j d_j c(h_j)
        self.root_norm2 = {}
        for c, f in zip(self.positive_roots, self.positive_root_weights):
            self.root_norm2[c] = self.root_norm2[tuple(-x for x in c)] = sum(
                x * d * y for x, d, y in zip(c, self.d, f)
            )
        # Weyl levels found so far, extended by weyl_by_length
        self._weyl_levels = [[WeylElement((), tuple(1 for _ in range(self.rank)))]]

    # -- root generation ------------------------------------------------

    def _generate_positive_roots(self):
        roots = set(self.simple_roots)
        frontier = list(self.simple_roots)
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

    # -- invariant bilinear form ---------------------------------------

    def pair_coroot(self, lam, c):
        """<lambda, beta^vee> = sum_i k_i lambda(h_i) for a root beta with
        beta^vee = sum_i k_i h_i (`coroot_coeffs`), in normal form."""
        return exact(sum(map(mul, self.coroot_coeffs(c), lam)))

    def root_to_weight(self, c) -> tuple:
        """Fundamental coordinates of a root (its values on the h_i), ints."""
        return tuple(
            sum(c[j] * self.cartan[i][j] for j in range(self.rank))
            for i in range(self.rank)
        )

    def coroot_coeffs(self, c):
        """Integer coefficients of beta^vee on the simple coroots h_i."""
        norm2 = self.root_norm2[c]
        out = []
        for i in range(self.rank):
            k, r = divmod(2 * c[i] * self.d[i], norm2)
            if r:
                raise InvariantViolation(
                    f"coroot of {c} has coefficient {Fraction(2 * c[i] * self.d[i], norm2)} on h_{i}"
                )
            out.append(k)
        return tuple(out)

    # -- Weyl group ----------------------------------------------------

    def reflect_simple(self, i, lam):
        return tuple(lam[j] - lam[i] * self.cartan[j][i] for j in range(self.rank))

    def chamber_walk(self, lam, simple):
        """Walk the weight lam (fundamental coordinates) into the chamber
        of the simple roots `simple`: reflect in the first listed root that
        pairs negatively with it until none does.  Returns (image, word),
        word the positions in `simple` of the reflections in the order made,
        or None when some pairing is zero on the way (lam's orbit meets a
        wall).  The pairings <lam, beta^vee> come from `coroot_coeffs`, so an
        integral lam is walked in integers."""
        coroots = [self.coroot_coeffs(c) for c in simple]
        roots = [self.root_to_weight(c) for c in simple]
        word = []
        while True:
            pairings = [sum(map(mul, k, lam)) for k in coroots]
            if 0 in pairings:
                return None
            i = next((i for i, p in enumerate(pairings) if p < 0), None)
            if i is None:
                return lam, word
            lam = tuple(x - pairings[i] * y for x, y in zip(lam, roots[i]))
            word.append(i)

    def reflect_root(self, c, lam):
        k = self.pair_coroot(lam, c)
        f = self.root_to_weight(c)
        return tuple(x - k * y for x, y in zip(lam, f))

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

    # -- weights -------------------------------------------------------

    def is_integral(self, lam) -> bool:
        return all(exact(x).denominator == 1 for x in lam)

    def weyl_dimension(self, lam, pos_roots, rho) -> int:
        """Weyl dimension formula for the positive system pos_roots with
        half-sum rho: the product of (lam + rho, a) / (rho, a) over a in
        pos_roots, an exact positive integer. lam must be integral and
        dominant for pos_roots, that is (lam + rho, a) >= (rho, a) for each a.

        Worked in integers: 2(lam + rho) and 2 rho are paired with each
        root, and the two products are divided once."""
        if not self.is_integral(lam):
            raise NonDominant(f"{lam} is not dominant integral")
        two_rho = [exact(2 * x) for x in rho]
        if any(type(x) is not int for x in two_rho):
            raise InvariantViolation(f"2 rho = {tuple(two_rho)} is not integral")
        # (v, a) = sum_j a_j d_j v_j, so weigh each coordinate by d_j once
        shifted = [d * (2 * int(x) + r) for d, x, r in zip(self.d, lam, two_rho)]
        base = [d * r for d, r in zip(self.d, two_rho)]
        num = den = 1
        for c in pos_roots:
            a, b = sum(map(mul, c, shifted)), sum(map(mul, c, base))
            if a < b:
                raise NonDominant(f"{lam} is not dominant integral")
            num *= a
            den *= b
        if den <= 0 or num <= 0 or num % den:
            raise InvariantViolation(f"Weyl dimension of {lam} is {num}/{den}")
        return num // den


class WeylElement:
    """A Weyl group element: a reduced word (i_1, ..., i_r) for
    s_{i_1} ... s_{i_r}, and its orbit point w(rho) in fundamental
    coordinates (integers)."""

    __slots__ = ("word", "rho_image")

    def __init__(self, word: tuple, rho_image: tuple):
        self.word, self.rho_image = word, rho_image

    @property
    def length(self) -> int:
        return len(self.word)


@lru_cache(maxsize=None)
def root_system(ctype_str: str) -> RootSystem:
    return RootSystem(CartanType.parse(ctype_str))
