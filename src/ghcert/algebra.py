"""Chevalley-basis realization of semisimple Lie algebras over the
rationals.  Values are exact and in normal form (`ghcert.linalg.exact`):
an int when integral, so the structure constants and the Killing form are
ints.

Basis order (external contract): Cartan generators h_1..h_l (the simple
coroots), then e_alpha for positive roots alpha in height-then-lex order,
then f_alpha in the mirrored (same root) order.

Structure constants are fixed by the extraspecial-pair convention:
N(xi, eta) = p+1 > 0 for every extraspecial pair (xi, eta), all other
constants derived through the standard Chevalley identities in one pass
over the positive root pairs.  This makes every built algebra
bit-reproducible.
"""

from fractions import Fraction
from functools import lru_cache

from ghcert.errors import DimensionMismatch, InvariantViolation
from ghcert.linalg import axpy, exact, rref
from ghcert.rootsystem import CartanType, RootSystem


def _divide(num, den, x, y, sign=""):
    """num / den for the structure constant N(x, sign y), which must be an
    integer; x and y are positive roots."""
    val, r = divmod(num, den)
    if r:
        raise InvariantViolation(
            f"structure constant N({x}, {sign}{y}) = {Fraction(num, den)} is not an integer"
        )
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
        self._structure = {}
        self._build_structure()
        self._killing = None
        self._killing_matrix = None
        self._simple_ideals = None

    # -- construction ---------------------------------------------------

    def _put(self, i, j, coords):
        if coords:
            self._structure[(i, j)] = coords
            self._structure[(j, i)] = {k: -v for k, v in coords.items()}

    def _build_structure(self):
        """Fill the bracket table in one pass over the positive root pairs.

        A root is keyed by one integer, sum c_i B^i over its simple-root
        coordinates c; B exceeds four times every coordinate, so a sum or
        difference of two roots is a root exactly when its key is one.  The
        pairs (a, b), a before b, of each positive root g are collected in
        order of a, and g is visited in root order, that is by height.  The
        first pair of g is extraspecial and gets N = p + 1, p the largest k
        with b - k a a root.  Every other pair's N is the Jacobi identity on
        (e_a, e_b, f_xi) with the extraspecial pair (xi, eta) of g; each
        constant it reads is of a pair of smaller height sum, or of the
        extraspecial pair.  A pair then gives the brackets of all six
        pairs among e_a, e_b, e_g, f_a, f_b, f_g that land on a root vector,
        by N(-a, -b) = -N(a, b) and the cyclic identity N(g, -a) =
        N(a, -g) = -N(a, b) (b, b) / (g, g), and likewise for b.
        """
        rs = self.rs
        n, pos = self.rank, rs.positive_roots
        e0, f0 = n, n + len(pos)  # basis index of e and f of the first root
        table, put = self._structure, self._put
        for a, (c, wt) in enumerate(zip(pos, rs.positive_root_weights)):
            ie, iff = e0 + a, f0 + a
            for i, x in enumerate(wt):
                if x:
                    put(i, ie, {ie: x})
                    put(i, iff, {iff: -x})
            # [e_c, f_c] = h_c (the coroot)
            co = rs.coroot_coeffs(c)
            put(ie, iff, {i: k for i, k in enumerate(co) if k})
        base = 4 * max(max(c) for c in pos) + 1
        key = [sum(x * base**i for i, x in enumerate(c)) for c in pos]
        norm2 = [rs.root_norm2[c] for c in pos]
        where = {k: a for a, k in enumerate(key)}
        roots = set(key).union(-k for k in key)
        pairs = [[] for _ in pos]
        for a, ka in enumerate(key):
            for b in range(a + 1, len(key)):
                g = where.get(ka + key[b])
                if g is not None:
                    pairs[g].append((a, b))
        nc = {}  # N(a, b), N(b, a), N(g, -a), N(g, -b) of the triples done, by keys
        for g, kg in enumerate(key):
            for m, (a, b) in enumerate(pairs[g]):
                ka, kb = key[a], key[b]
                if m == 0:
                    xi, p, k = ka, 0, kb - ka
                    while k in roots:
                        p, k = p + 1, k - ka
                    nab = p + 1
                else:
                    # xi precedes a and b, so a - xi and b - xi are positive
                    # roots or not roots; N(-xi, a) = -N(a, -xi)
                    t = 0
                    if kb - xi in roots:
                        t += nc[kb, -xi] * nc[kb - xi, ka]
                    if ka - xi in roots:
                        t -= nc[ka, -xi] * nc[ka - xi, kb]
                    nab = _divide(-t, nc[kg, -xi], pos[a], pos[b])
                u = _divide(-nab * norm2[b], norm2[g], pos[g], pos[a], "-")
                v = _divide(nab * norm2[a], norm2[g], pos[g], pos[b], "-")
                nc[ka, kb], nc[kb, ka], nc[kg, -ka], nc[kg, -kb] = nab, -nab, u, v
                for i, j, k, c in (
                    (e0 + a, e0 + b, e0 + g, nab), (f0 + a, f0 + b, f0 + g, -nab),
                    (e0 + g, f0 + a, e0 + b, u), (e0 + g, f0 + b, e0 + a, v),
                    (e0 + a, f0 + g, f0 + b, u), (e0 + b, f0 + g, f0 + a, v),
                ):
                    table[i, j] = {k: c}
                    table[j, i] = {k: -c}

    # -- basic operations ----------------------------------------------

    def zero(self):
        return [0] * self.dim

    def basis_vector(self, label):
        v = self.zero()
        v[self.index[label]] = 1
        return v

    def structure(self, i, j):
        return self._structure.get((i, j), {})

    def structure_items(self):
        """Every nonzero entry of the bracket table, as ((i, j), {k: c})."""
        return self._structure.items()

    def bracket_sparse(self, x, y):
        """[x, y] for sparse vectors {basis index: coefficient}, nonzero
        entries only."""
        table = self._structure
        out = {}
        for i, a in x.items():
            for j, b in y.items():
                s = table.get((i, j))
                if s:
                    ab = a * b
                    for k, c in s.items():
                        out[k] = out.get(k, 0) + ab * c
        return {k: v for k, v in out.items() if v}

    def bracket(self, x, y):
        """[x, y] for dense coordinate vectors, by `bracket_sparse`."""
        if len(x) != self.dim or len(y) != self.dim:
            raise DimensionMismatch(
                f"expected vectors of length {self.dim}, got {len(x)}, {len(y)}"
            )
        out = self.zero()
        for k, v in self.bracket_sparse(_sparse(x), _sparse(y)).items():
            out[k] = v
        return out

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
            km = [[0] * self.dim for _ in range(self.dim)]
            for i in range(n):
                km[i][:n] = hh[i]
            for a, k in enumerate(ef):
                km[n + a][n + npos + a] = km[n + npos + a][n + a] = k
            self._killing_matrix = km
        return self._killing_matrix

    def killing_dual(self, x):
        """The functional K(x, .) of a sparse vector x, as a sparse vector:
        K pairs h with h and e_a only with f_a (`_killing_form`)."""
        hh, ef = self._killing_form()
        n, npos = self.rank, len(ef)
        out = {}
        for i, v in x.items():
            if i < n:
                for j, k in enumerate(hh[i]):
                    if k:
                        out[j] = out.get(j, 0) + k * v
            elif i < n + npos:
                out[i + npos] = ef[i - n] * v
            else:
                out[i - npos] = ef[i - n - npos] * v
        return {j: v for j, v in out.items() if v}

    def killing_gram(self, rows):
        """The Gram matrix [K(x, y)] of sparse vectors, exact, in normal form."""
        duals = [self.killing_dual(y) for y in rows]
        gram = []
        for x in rows:
            out = []
            for d in duals:
                v = 0
                for i, a in x.items():
                    b = d.get(i)
                    if b:
                        v += a * b
                out.append(exact(v))
            gram.append(out)
        return gram

    def killing(self, x, y):
        """K(x, y) of dense vectors, by `killing_dual`; exact, in normal form."""
        if len(x) != self.dim or len(y) != self.dim:
            raise DimensionMismatch("element length does not match algebra dimension")
        return exact(sum(x[i] * v for i, v in self.killing_dual(_sparse(y)).items()))

    def simple_ideal_subspaces(self):
        """One coordinate Subspace per simple factor, in factor order; built
        once per algebra.  A factor is spanned by basis vectors, so its RREF
        rows are those unit vectors in basis order."""
        if self._simple_ideals is None:
            out = []
            for fr in self.rs.factor_ranges:
                idx = sorted(
                    i for i, (kind, data) in enumerate(self.basis)
                    if (data in fr if kind == "h" else any(data[j] for j in fr))
                )
                out.append(Subspace([self.basis_vector(self.basis[i]) for i in idx], self.dim))
            self._simple_ideals = tuple(out)
        return self._simple_ideals


def _sparse(v):
    """A dense vector's nonzero entries, {index: value}."""
    return {i: x for i, x in enumerate(v) if x}


class Subspace:
    """A subspace of coordinate space, canonicalized to RREF rows."""

    __slots__ = ("rows", "ambient", "_pivot_rows")

    def __init__(self, rows, ambient):
        self.rows = tuple(tuple(r) for r in rows)
        self.ambient = ambient
        self._pivot_rows = None

    @classmethod
    def from_vectors(cls, vecs, ambient):
        return cls(rref(vecs)[0], ambient)

    @classmethod
    def from_echelon(cls, ech, ambient):
        """The span of an `Echelon`'s rows, read off its canonical rows
        without eliminating them again."""
        canon = ech.canonical_rows()
        sub = cls(([row.get(c, 0) for c in range(ambient)] for row in canon.values()), ambient)
        sub._pivot_rows = canon
        return sub

    @property
    def dim(self) -> int:
        return len(self.rows)

    @property
    def pivot_rows(self):
        """{pivot column: the row there, sparse}, in row order; built once."""
        if self._pivot_rows is None:
            self._pivot_rows = {}
            for row in self.rows:
                sparse = _sparse(row)
                self._pivot_rows[min(sparse)] = sparse
        return self._pivot_rows

    def contains(self, v) -> bool:
        """Whether v, dense or sparse, lies in the span.  In RREF each pivot
        column is a unit column, so v minus v's pivot entries times their
        rows is zero exactly when v is in the span."""
        if type(v) is not dict:
            v = _sparse(v)
        rest = dict(v)
        rows = self.pivot_rows
        for p, c in v.items():
            row = rows.get(p)
            if row is not None:
                axpy(rest, -c, row)
        return not rest

    def contains_subspace(self, other) -> bool:
        return all(self.contains(r) for r in other.pivot_rows.values())

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
