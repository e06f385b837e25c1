"""Chevalley-basis realization of semisimple Lie algebras over Fraction.

Basis order (external contract): Cartan generators h_1..h_l (the simple
coroots), then e_alpha for positive roots alpha in height-then-lex order,
then f_alpha in the mirrored (same root) order.

Structure constants are fixed by the extraspecial-pair convention:
N(xi, eta) = p+1 > 0 for every extraspecial pair (xi, eta), all other
constants derived through the standard Chevalley identities.  This makes
every built algebra bit-reproducible.
"""

from fractions import Fraction
from functools import lru_cache

from ghcert.errors import DimensionMismatch, InvariantViolation
from ghcert.linalg import rref
from ghcert.rootsystem import CartanType, RootSystem


def _neg(c):
    return tuple(-x for x in c)


class _StructureConstants:
    """N(alpha, beta) for the Chevalley basis of a root system."""

    def __init__(self, rs: RootSystem):
        self.rs = rs
        self.pos_index = rs.root_index
        self.table = {}
        self.extraspecial = {}
        self._memo = {}
        self._fill()

    def _p(self, a, b):
        """Largest k with b - k*a a root."""
        k = 0
        cur = list(b)
        while True:
            for i in range(len(cur)):
                cur[i] -= a[i]
            if tuple(cur) in self.rs.root_set:
                k += 1
            else:
                return k

    def _fill(self):
        for gamma in self.rs.positive_roots:
            if self.rs.height(gamma) < 2:
                continue
            pairs = []
            for a in self.rs.positive_roots:
                ia = self.pos_index[a]
                b = tuple(g - x for g, x in zip(gamma, a))
                ib = self.pos_index.get(b)
                if ib is not None and ia < ib:
                    pairs.append((a, b))
            xi, eta = pairs[0]
            self.extraspecial[gamma] = (xi, eta)
            self.table[(xi, eta)] = self._p(xi, eta) + 1
            for a, b in pairs[1:]:
                self.table[(a, b)] = self._derive(a, b, xi, eta, gamma)

    def _derive(self, a, b, xi, eta, gamma):
        # Jacobi identity on (e_a, e_b, e_{-xi}) rearranged for N(a, b);
        # every constant on the right involves a pair of strictly smaller
        # height-sum, or the extraspecial pair of gamma itself.
        t = self.n(b, _neg(xi)) * self.n(
            tuple(x - y for x, y in zip(b, xi)), a
        ) + self.n(_neg(xi), a) * self.n(tuple(x - y for x, y in zip(a, xi)), b)
        denom = self.n(gamma, _neg(xi))
        val = Fraction(-t) / denom
        if val.denominator != 1:
            raise InvariantViolation(f"structure constant N{(a, b)} = {val} is not an integer")
        return int(val)

    def n(self, x, y) -> int:
        if x not in self.rs.root_set or y not in self.rs.root_set:
            return 0
        s = tuple(a + b for a, b in zip(x, y))
        if s not in self.rs.root_set:
            return 0
        key = (x, y)
        got = self._memo.get(key)
        if got is not None:
            return got
        px = x in self.pos_index
        py = y in self.pos_index
        if px and py:
            if self.pos_index[x] < self.pos_index[y]:
                val = self.table[(x, y)]
            else:
                val = -self.table[(y, x)]
        elif not px and not py:
            val = -self.n(_neg(x), _neg(y))
        elif not px:
            val = -self.n(y, x)
        elif s in self.pos_index:
            # x positive, y negative, x+y positive: cycle through z = -(x+y)
            z = _neg(s)
            ratio = self.rs.root_ip(z, z) / self.rs.root_ip(x, x)
            v = self.n(y, z) * ratio
            if v.denominator != 1:
                raise InvariantViolation(f"structure constant N{(x, y)} = {v} is not an integer")
            val = int(v)
        else:
            # x positive, y negative, x+y negative
            val = self.n(_neg(y), _neg(x))
        self._memo[key] = val
        return val


class LieAlgebra:
    """A semisimple Lie algebra in its Chevalley basis."""

    def __init__(self, ctype: CartanType):
        self.ctype = ctype
        self.rs = RootSystem(ctype)
        self.rank = self.rs.rank
        pos = self.rs.positive_roots
        self.basis = (
            [("h", i) for i in range(self.rank)]
            + [("e", c) for c in pos]
            + [("f", c) for c in pos]
        )
        self.dim = len(self.basis)
        self.index = {lab: i for i, lab in enumerate(self.basis)}
        self.nconst = _StructureConstants(self.rs)
        self._structure = {}
        self._build_structure()
        self._ad_cache = {}
        self._killing = None
        self._killing_matrix = None
        self._simple_ideals = None

    # -- construction ---------------------------------------------------

    def _put(self, i, j, coords):
        if coords:
            self._structure[(i, j)] = coords
            self._structure[(j, i)] = {k: -v for k, v in coords.items()}

    def _build_structure(self):
        rs = self.rs
        n = self.rank
        for pi, c in enumerate(rs.positive_roots):
            f = rs.root_to_weight(c)
            ie = self.index[("e", c)]
            iff = self.index[("f", c)]
            for i in range(n):
                if f[i]:
                    self._put(i, ie, {ie: Fraction(f[i])})
                    self._put(i, iff, {iff: Fraction(-f[i])})
            # [e_c, f_c] = h_c (the coroot)
            co = rs.coroot_coeffs(c)
            self._put(ie, iff, {i: Fraction(k) for i, k in enumerate(co) if k})
        for a in rs.positive_roots:
            for b in rs.positive_roots:
                ia, ib = rs.root_index[a], rs.root_index[b]
                if ia < ib:
                    s = tuple(x + y for x, y in zip(a, b))
                    if s in rs.root_index:
                        nval = self.nconst.n(a, b)
                        self._put(
                            self.index[("e", a)],
                            self.index[("e", b)],
                            {self.index[("e", s)]: Fraction(nval)},
                        )
                        self._put(
                            self.index[("f", a)],
                            self.index[("f", b)],
                            {self.index[("f", s)]: Fraction(-nval)},
                        )
                # [e_a, f_b], a != b
                if a != b:
                    sdiff = tuple(x - y for x, y in zip(a, b))
                    if sdiff in rs.root_set:
                        nval = self.nconst.n(a, _neg(b))
                        if sdiff in rs.root_index:
                            tgt = self.index[("e", sdiff)]
                        else:
                            tgt = self.index[("f", _neg(sdiff))]
                        self._put(
                            self.index[("e", a)],
                            self.index[("f", b)],
                            {tgt: Fraction(nval)},
                        )

    # -- basic operations ----------------------------------------------

    def zero(self):
        return [Fraction(0)] * self.dim

    def basis_vector(self, label):
        v = self.zero()
        v[self.index[label]] = Fraction(1)
        return v

    def structure(self, i, j):
        return self._structure.get((i, j), {})

    def bracket(self, x, y):
        if len(x) != self.dim or len(y) != self.dim:
            raise DimensionMismatch(
                f"expected vectors of length {self.dim}, got {len(x)}, {len(y)}"
            )
        out = self.zero()
        for i, xi in enumerate(x):
            if not xi:
                continue
            for j, yj in enumerate(y):
                if not yj:
                    continue
                for k, c in self.structure(i, j).items():
                    out[k] += xi * yj * c
        return out

    def ad_basis(self, i):
        """Matrix of ad(b_i) acting on coordinate columns."""
        if i not in self._ad_cache:
            m = [[Fraction(0)] * self.dim for _ in range(self.dim)]
            for j in range(self.dim):
                for k, c in self.structure(i, j).items():
                    m[k][j] = c
            self._ad_cache[i] = m
        return self._ad_cache[i]

    def _killing_form(self):
        """The support of the Killing form, in integers: the (h, h) block and
        one value K(e_a, f_a) per positive root a, in root order.

        K(h_i, h_j) = sum over all roots of a(h_i) a(h_j), twice the sum over
        the positive ones.  Invariance gives K([e_a, f_a], h_a) =
        K(e_a, [f_a, h_a]) = a(h_a) K(e_a, f_a) = 2 K(e_a, f_a) for the coroot
        h_a = [e_a, f_a].  K pairs g_a only with g_-a, so every other entry
        is 0.
        """
        if self._killing is None:
            n = self.rank
            weights = self.rs.positive_root_weights
            hh = [[2 * sum(f[i] * f[j] for f in weights) for j in range(n)] for i in range(n)]
            ef = []
            for c in self.rs.positive_roots:
                co = self.rs.coroot_coeffs(c)
                ef.append(sum(co[i] * co[j] * hh[i][j] for i in range(n) for j in range(n)) // 2)
            self._killing = (hh, ef)
        return self._killing

    @property
    def killing_matrix(self):
        """Gram matrix of the Killing form, tr(ad b_i ad b_j), filled from
        its support (`_killing_form`)."""
        if self._killing_matrix is None:
            hh, ef = self._killing_form()
            n, npos = self.rank, len(ef)
            zero = Fraction(0)
            km = [[zero] * self.dim for _ in range(self.dim)]
            for i in range(n):
                km[i][:n] = [Fraction(x) for x in hh[i]]
            for a, k in enumerate(ef):
                km[n + a][n + npos + a] = km[n + npos + a][n + a] = Fraction(k)
            self._killing_matrix = km
        return self._killing_matrix

    def killing(self, x, y) -> Fraction:
        if len(x) != self.dim or len(y) != self.dim:
            raise DimensionMismatch("element length does not match algebra dimension")
        hh, ef = self._killing_form()
        n, npos = self.rank, len(ef)
        total = Fraction(0)
        for i in range(n):
            if x[i]:
                total += x[i] * sum(hh[i][j] * y[j] for j in range(n) if y[j])
        for a, k in enumerate(ef):
            e, f = n + a, n + npos + a
            if (x[e] and y[f]) or (x[f] and y[e]):
                total += k * (x[e] * y[f] + x[f] * y[e])
        return total

    def simple_ideal_subspaces(self):
        """One coordinate Subspace per simple factor, in factor order; built
        once per algebra."""
        if self._simple_ideals is None:
            out = []
            for fr in self.rs.factor_ranges:
                labels = [("h", i) for i in fr]
                for kind in ("e", "f"):
                    labels += [
                        (kind, c)
                        for c in self.rs.positive_roots
                        if any(c[i] for i in fr)
                    ]
                out.append(Subspace.from_vectors([self.basis_vector(l) for l in labels], self.dim))
            self._simple_ideals = tuple(out)
        return self._simple_ideals


class Subspace:
    """A subspace of coordinate space, canonicalized to RREF rows."""

    __slots__ = ("rows", "ambient")

    def __init__(self, rows, ambient):
        self.rows = tuple(tuple(r) for r in rows)
        self.ambient = ambient

    @classmethod
    def from_vectors(cls, vecs, ambient):
        vecs = [v for v in vecs if any(x != 0 for x in v)]
        if not vecs:
            return cls((), ambient)
        red, _ = rref(vecs)
        return cls(red, ambient)

    @property
    def dim(self) -> int:
        return len(self.rows)

    def contains(self, v) -> bool:
        """Reduce v at the pivots: in RREF each pivot column is a unit
        column, so v is in the span exactly when nothing is left over."""
        rest = list(v)
        for row in self.rows:
            c = rest[next(i for i, x in enumerate(row) if x)]
            if c:
                for i, x in enumerate(row):
                    if x:
                        rest[i] -= c * x
        return not any(rest)

    def contains_subspace(self, other) -> bool:
        return all(self.contains(r) for r in other.rows)

    def sum(self, other) -> "Subspace":
        return Subspace.from_vectors(
            [list(r) for r in self.rows] + [list(r) for r in other.rows], self.ambient
        )

    def __eq__(self, other):
        return isinstance(other, Subspace) and self.rows == other.rows

    def __hash__(self):
        return hash(self.rows)

    def __repr__(self):
        return f"Subspace(dim={self.dim}, ambient={self.ambient})"


@lru_cache(maxsize=None)
def _build_cached(ctype_str: str) -> LieAlgebra:
    return LieAlgebra(CartanType.parse(ctype_str))


def build_algebra(ctype) -> LieAlgebra:
    ct = CartanType.parse(ctype)
    return _build_cached(str(ct))
