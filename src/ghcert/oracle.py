"""Brute-force cohomology oracle: build the simple finite-dimensional module
with a given highest weight explicitly, compute the Lie-algebra cohomology of
the nilradical from the Chevalley-Eilenberg complex by exact rank
computations, and compare the outcome with the Weyl-group formula.

The linear algebra runs on Python ints: Verma vectors have integer PBW
coefficients, the echelon forms eliminate fraction-free, and the complex
is scaled by one common denominator so that its blocks are integral.
"""

import itertools
import math
from collections import Counter, deque
from collections.abc import Callable
from dataclasses import dataclass, field
from fractions import Fraction

from ghcert.algebra import LieAlgebra
from ghcert.borel import BorelData
from ghcert.errors import (
    ComplexInconsistent,
    DimCapExceeded,
    InvariantViolation,
    NonDominant,
    NotAnMCharacter,
)
from ghcert.linalg import exact, inverse
from ghcert.weights import Weight

DEFAULT_DIM_CAP = 5000
MAX_N_DIM = 12


# -- Verma-coordinate arithmetic ----------------------------------------


class _VermaOps:
    """Left actions of Chevalley generators on PBW monomials in the
    lowering operators of the adapted Borel, over a formal highest-weight
    vector of weight nu.  Monomials are exponent tuples indexed by the
    b-positive roots in their canonical order.  Chevalley structure
    constants and an integral nu keep every coefficient an integer."""

    def __init__(self, L: LieAlgebra, borel: BorelData, nu: Weight):
        self.L = L
        self.pos = borel.pos_roots
        self.N = len(self.pos)
        self.nu = tuple(_as_int(x, "coordinate of nu") for x in nu.coords)
        rs = L.rs
        self.root_fund = [
            tuple(_as_int(x, "coordinate of a root") for x in rs.root_to_weight(c))
            for c in self.pos
        ]
        self.pos_index = {c: j for j, c in enumerate(self.pos)}
        # kind[i]: how the ambient basis element i acts, as ("h", i),
        # ("raise", j) or ("lower", j) for the j-th b-positive root; the
        # basis index of the raising and lowering operator of root j
        self.kind = []
        self.raise_idx = [None] * self.N
        self.lower_idx = [None] * self.N
        for i, (kind, data) in enumerate(L.basis):
            if kind == "h":
                self.kind.append(("h", data))
                continue
            c = data if kind == "e" else tuple(-x for x in data)
            if c in self.pos_index:
                j = self.pos_index[c]
                self.raise_idx[j] = i
                self.kind.append(("raise", j))
            else:
                j = self.pos_index[tuple(-x for x in c)]
                self.lower_idx[j] = i
                self.kind.append(("lower", j))
        self._f_memo = {}
        self._e_memo = {}
        self._bracket_memo = {}
        # coordinates on the b-simple roots, a Z-basis of the root lattice in
        # which every b-positive root has non-negative coordinates
        simple = borel.simple_roots
        inv = inverse([[b[i] for b in simple] for i in range(rs.rank)])
        self._to_simple = [
            [_as_int(x, "b-simple coordinate") for x in row] for row in inv
        ]
        pos_simple = [self.simple_coords(c) for c in self.pos]
        self._pos_simple = pos_simple
        # _dead[j]: the coordinates that no root from the j-th on reaches
        self._dead = [
            [i for i in range(rs.rank) if not any(c[i] for c in pos_simple[j:])]
            for j in range(self.N)
        ]
        self._depth_memo = {}

    def bracket(self, i, j):
        """[x_i, x_j] of two ambient basis elements, integer coefficients."""
        key = (i, j)
        if key not in self._bracket_memo:
            self._bracket_memo[key] = {
                k: _as_int(c, "structure constant")
                for k, c in self.L.structure(i, j).items()
            }
        return self._bracket_memo[key]

    def mono_weight(self, mono):
        """Weight of (monomial applied to the highest vector), fund coords."""
        w = list(self.nu)
        for j, a in enumerate(mono):
            if a:
                for i in range(len(w)):
                    w[i] -= a * self.root_fund[j][i]
        return tuple(w)

    def f_on_mono(self, j, mono):
        """f_j . mono as a dict of monomials, PBW-straightened."""
        key = (j, mono)
        if key in self._f_memo:
            return self._f_memo[key]
        first = next((i for i, a in enumerate(mono) if a), None)
        if first is None or j <= first:
            out = {self._inc(mono, j): 1}
        else:
            rest = self._dec(mono, first)
            out = {}
            for m, c in self.f_on_mono(j, rest).items():
                for m2, c2 in self.f_on_mono(first, m).items():
                    _acc(out, m2, c * c2)
            bracket = self.bracket(self.lower_idx[j], self.lower_idx[first])
            for i, c in bracket.items():
                kind, idx = self.kind[i]
                if kind != "lower":
                    raise InvariantViolation(
                        "bracket of two lowering operators is not lowering"
                    )
                for m2, c2 in self.f_on_mono(idx, rest).items():
                    _acc(out, m2, c * c2)
            out = {m: c for m, c in out.items() if c != 0}
        self._f_memo[key] = out
        return out

    def e_on_mono(self, j, mono):
        key = (j, mono)
        if key in self._e_memo:
            return self._e_memo[key]
        first = next((i for i, a in enumerate(mono) if a), None)
        if first is None:
            out = {}
        else:
            rest = self._dec(mono, first)
            out = {}
            for m, c in self.e_on_mono(j, rest).items():
                for m2, c2 in self.f_on_mono(first, m).items():
                    _acc(out, m2, c * c2)
            bracket = self.bracket(self.raise_idx[j], self.lower_idx[first])
            for m2, c2 in self.act_ambient(bracket, {rest: 1}).items():
                _acc(out, m2, c2)
            out = {m: c for m, c in out.items() if c != 0}
        self._e_memo[key] = out
        return out

    def act_ambient(self, vec, elem):
        """Action of an ambient element, {basis index: coefficient}, on a
        Verma element."""
        out = {}
        for i, c in vec.items():
            kind, idx = self.kind[i]
            for mono, coeff in elem.items():
                if kind == "h":
                    v = self.mono_weight(mono)[idx]
                    _acc(out, mono, c * coeff * v)
                elif kind == "raise":
                    for m2, c2 in self.e_on_mono(idx, mono).items():
                        _acc(out, m2, c * coeff * c2)
                else:
                    for m2, c2 in self.f_on_mono(idx, mono).items():
                        _acc(out, m2, c * coeff * c2)
        return {m: c for m, c in out.items() if c != 0}

    def lmul_f(self, j, elem):
        out = {}
        for mono, coeff in elem.items():
            for m2, c2 in self.f_on_mono(j, mono).items():
                _acc(out, m2, coeff * c2)
        return {m: c for m, c in out.items() if c != 0}

    def _inc(self, mono, j):
        lst = list(mono)
        lst[j] += 1
        return tuple(lst)

    def _dec(self, mono, j):
        lst = list(mono)
        lst[j] -= 1
        return tuple(lst)

    def simple_coords(self, c):
        """Coordinates of a root-lattice element (standard simple-root
        coordinates) on the b-simple roots."""
        return tuple(sum(x * y for x, y in zip(row, c)) for row in self._to_simple)

    def monos_with_depth(self, depth):
        """All exponent tuples whose root-sum equals depth (simple-root
        coordinates of the standard system), listed once per depth, in
        lexicographic order."""
        if depth not in self._depth_memo:
            self._depth_memo[depth] = self._list_monos(self.simple_coords(depth))
        return self._depth_memo[depth]

    def _list_monos(self, target):
        """Exponent tuples with root-sum `target` in b-simple coordinates.
        A branch stops once a coordinate of what is left goes negative, or
        stays nonzero where no remaining root reaches."""
        pos, dead, N = self._pos_simple, self._dead, self.N
        out = []
        exps = [0] * N

        def rec(j, cur):
            if any(cur[i] for i in dead[j]):
                return
            c = pos[j]
            if j == N - 1:
                # the last exponent is forced
                i = next(i for i, y in enumerate(c) if y)
                a = cur[i] // c[i]
                if all(x == a * y for x, y in zip(cur, c)):
                    exps[j] = a
                    out.append(tuple(exps))
                    exps[j] = 0
                return
            while True:
                rec(j + 1, cur)
                cur = tuple(x - y for x, y in zip(cur, c))
                if min(cur) < 0:
                    break
                exps[j] += 1
            exps[j] = 0

        if min(target, default=0) >= 0:
            rec(0, target)
        return out


def _acc(d, k, v):
    d[k] = d.get(k, 0) + v


def _as_int(x, what):
    """x as an int; raises InvariantViolation if it is not an integer."""
    x = exact(x)
    if type(x) is not int:
        raise InvariantViolation(f"{what} {x} is not an integer")
    return x


# -- module construction -------------------------------------------------


@dataclass
class ExplicitModule:
    dim: int
    weight_of_basis: list  # Weight on h_std per basis vector
    nu: Weight
    borel: BorelData
    # ambient basis label -> its action's columns, built on first request
    _build_columns: Callable[[tuple], list] = field(repr=False, compare=False)
    _columns: dict = field(default_factory=dict, repr=False, compare=False)

    def action(self, label) -> list:
        """The action of an ambient basis element as dim sparse columns: the
        m-th is {row: coefficient}, the image of basis vector m, nonzero
        entries only.  Built once, on first request, and kept."""
        cols = self._columns.get(label)
        if cols is None:
            cols = self._columns[label] = self._build_columns(label)
        return cols


class _Echelon:
    """Echelon form of sparse integer vectors ({key: int}, nonzero entries
    only), grown one vector at a time without fractions.  Each row is a
    primitive integer vector, positive at its least key, which leads no
    other row.  A row records (combination, den): den * row equals the
    integer combination {ident: coefficient} of inserted vectors, modulo
    the span of those inserted without an ident."""

    def __init__(self):
        self.rows = {}  # leading key -> (row, combination, den)

    def reduce(self, vec):
        """(p, q, remainder, combination) with p * vec = q * remainder +
        combination, modulo the untracked span, and p > 0; the remainder is
        empty iff vec lies in the span of the rows.

        A step cancels the remainder's entry a at its least key against the
        row's leading entry b: it subtracts (a/b) * row when b divides a,
        and otherwise cross-multiplies, (b/g) * remainder - (a/g) * row with
        g = gcd(a, b), and divides out the content."""
        cur = dict(vec)
        comb = {}
        p = q = 1
        rows = self.rows
        while cur:
            lead = min(cur)
            hit = rows.get(lead)
            if hit is None:
                break
            row, row_comb, den = hit
            a, b = cur[lead], row[lead]
            u = c = 1
            if a % b == 0:
                _axpy(cur, -(a // b), row)
                a //= b
            else:
                g = math.gcd(a, b)
                u, a = b // g, a // g
                for k in cur:
                    cur[k] *= u
                _axpy(cur, -a, row)
                c = math.gcd(*cur.values()) or 1
                if c > 1:
                    for k in cur:
                        cur[k] //= c
            # u * old = c * cur + a * row and den * row = row_comb, so
            # (u den p) vec = (den q c) cur + (q a) row_comb + (u den) comb;
            # an untracked row lies in the untracked span, so den drops out
            if not row_comb:
                den = 1
            scale = u * den
            if scale != 1:
                for k in comb:
                    comb[k] *= scale
                p *= scale
            if row_comb:
                _axpy(comb, q * a, row_comb)
            q *= den * c
            if scale != 1 or c != 1:
                g = math.gcd(p, q, *comb.values())
                if g != 1:
                    p, q = p // g, q // g
                    comb = {k: x // g for k, x in comb.items()}
        return p, q, cur, comb

    def insert(self, vec, ident=None):
        """Add vec as a row unless the rows span it; True iff it was added."""
        p, q, rem, comb = self.reduce(vec)
        if not rem:
            return False
        lead = min(rem)
        c = math.gcd(*rem.values())
        if rem[lead] < 0:
            c = -c
        if c != 1:
            rem = {k: x // c for k, x in rem.items()}
        # (q c) row = p vec - comb
        comb = {k: -x for k, x in comb.items()}
        if ident is not None:
            comb[ident] = p
        den = q * c
        if comb:
            g = math.gcd(den, *comb.values())
            if den < 0:
                g = -g
            den //= g
            comb = {k: x // g for k, x in comb.items()}
        else:
            den = 1
        self.rows[lead] = (rem, comb, den)
        return True

    def coords(self, vec):
        """The combination of tracked vectors that vec equals modulo the
        untracked span, {ident: int, or Fraction where not integral}; None
        when vec is not in the span of the rows."""
        p, _, rem, comb = self.reduce(vec)
        if rem:
            return None
        if p == 1:
            return comb
        return {k: x // p if x % p == 0 else Fraction(x, p) for k, x in comb.items()}


def _axpy(y, a, x):
    """y += a * x on sparse vectors, keeping only nonzero entries; a != 0."""
    for k, v in x.items():
        t = y.get(k, 0) + a * v
        if t:
            y[k] = t
        else:
            del y[k]


def construct_module(
    L: LieAlgebra, borel: BorelData, nu: Weight, dim_cap: int = DEFAULT_DIM_CAP
) -> ExplicitModule:
    """Simple module with b-highest weight nu, built by lowering-operator
    closure from a formal highest-weight vector with exact row reduction.

    Vectors live in PBW coordinates of the Verma module and are reduced
    modulo the maximal submodule, which is generated by f_i^(n_i+1) over
    the b-simple lowerings.  Each Verma weight space keeps one echelon form:
    first the submodule, untracked, then the module basis vectors found in
    it, tracked by their basis index.

    The module keeps these blocks.  The action of an ambient basis element
    is straightened and reduced against them only when first asked for
    (`ExplicitModule.action`), so a caller pays only for the columns it
    reads; a Cartan element's action is read off the weights."""
    if not (borel.dominant(nu) and borel.integral(nu)):
        raise NonDominant(f"nu = {nu.coords} is not b-dominant integral")
    target = L.rs.weyl_dimension(nu.coords, borel.pos_roots, borel.rho.coords)
    if target > dim_cap:
        raise DimCapExceeded(f"weyl dimension {target} exceeds cap {dim_cap}")
    ops = _VermaOps(L, borel, nu)
    rs = L.rs
    simple_idx = [ops.pos_index[c] for c in borel.simple_roots]
    sing_exp = {
        j: _as_int(rs.pair_coroot(nu.coords, ops.pos[j]), "coroot pairing") + 1
        for j in simple_idx
    }
    v0 = {(0,) * ops.N: 1}

    blocks = {}  # depth -> _Echelon of that Verma weight space

    def depth_of(mono):
        d = [0] * rs.rank
        for j, a in enumerate(mono):
            if a:
                for i in range(rs.rank):
                    d[i] += a * ops.pos[j][i]
        return tuple(d)

    lowered = {}  # (j, mono) -> mono . f_j^(n_j+1) v0, mono in PBW order

    def lower(j, mono):
        key = (j, mono)
        if key not in lowered:
            first = next((i for i, a in enumerate(mono) if a), None)
            if first is None:
                elem = v0
                for _ in range(sing_exp[j]):
                    elem = ops.lmul_f(j, elem)
            else:
                elem = ops.lmul_f(first, lower(j, ops._dec(mono, first)))
            lowered[key] = elem
        return lowered[key]

    def get_block(depth):
        block = blocks.get(depth)
        if block is None:
            block = blocks[depth] = _Echelon()
            for j, power in sing_exp.items():
                rem = tuple(
                    d - power * c for d, c in zip(depth, ops.pos[j])
                )
                for mono in ops.monos_with_depth(rem):
                    block.insert(lower(j, mono))
        return block

    zero_depth = (0,) * rs.rank
    if not get_block(zero_depth).insert(v0, 0):
        raise InvariantViolation("highest-weight vector lies in the submodule")
    basis_verma = [v0]
    basis_depth = [zero_depth]

    queue = deque([0])
    while queue:
        i = queue.popleft()
        for j in simple_idx:
            y = ops.lmul_f(j, basis_verma[i])
            if not y:
                continue
            depth = tuple(
                d + c for d, c in zip(basis_depth[i], ops.pos[j])
            )
            new_id = len(basis_verma)
            if not get_block(depth).insert(y, new_id):
                continue
            if new_id + 1 > dim_cap:
                raise DimCapExceeded(f"module basis exceeds cap {dim_cap}")
            basis_verma.append(y)
            basis_depth.append(depth)
            queue.append(new_id)

    dim = len(basis_verma)
    if dim != target:
        raise InvariantViolation(
            f"constructed dimension {dim} != Weyl dimension {target}"
        )

    # express an arbitrary homogeneous Verma element in the module basis
    def coords_in_basis(elem):
        if not elem:
            return {}
        comb = get_block(depth_of(next(iter(elem)))).coords(elem)
        if comb is None:
            raise InvariantViolation("action leaves the constructed module")
        return comb

    int_weights = [ops.mono_weight(next(iter(v))) for v in basis_verma]

    def build_columns(label):
        i = L.index[label]
        kind, idx = ops.kind[i]
        if kind == "h":
            # h_idx acts on a weight vector by the weight's coordinate
            return [
                {col: wt[idx]} if wt[idx] else {}
                for col, wt in enumerate(int_weights)
            ]
        return [coords_in_basis(ops.act_ambient({i: 1}, v)) for v in basis_verma]

    return ExplicitModule(
        dim=dim,
        weight_of_basis=[Weight("g", wt) for wt in int_weights],
        nu=nu,
        borel=borel,
        _build_columns=build_columns,
    )


def check_module_relations(L: LieAlgebra, W: ExplicitModule) -> bool:
    """action([x,y]) == [action(x), action(y)] over all basis pairs, one
    column at a time."""
    acts = [W.action(label) for label in L.basis]
    for i in range(L.dim):
        for j in range(i + 1, L.dim):
            bracket = L.structure(i, j)
            for m in range(W.dim):
                # ([x_i, x_j] - x_i x_j + x_j x_i) applied to basis vector m
                out = {}
                for k, z in bracket.items():
                    _axpy(out, z, acts[k][m])
                for r, c in acts[j][m].items():
                    _axpy(out, -c, acts[i][r])
                for r, c in acts[i][m].items():
                    _axpy(out, c, acts[j][r])
                if out:
                    return False
    return True


# -- Chevalley-Eilenberg complex ----------------------------------------


@dataclass
class CochainComplex:
    n_roots: tuple  # b-positive roots spanning n, in borel order
    bases: list  # per degree: list of (subset tuple, module index)
    weights: list  # per degree: weight tuple (ints) per basis element
    # D * d_q : C^q -> C^(q+1) in blocks per weight, {weight: {column:
    # {row: entry}}} with basis indices of C^q and C^(q+1); only nonzero
    # entries and columns are stored, all integers
    differentials: list
    # D: the least common denominator of n's action, which scales every d_q
    # to integers; D * d has the ranks of d
    scale: int

    def cohomology(self) -> dict:
        """Cohomology dimensions per degree and weight, from the ranks of
        the integer blocks; checks the Euler identity per weight."""
        R = len(self.n_roots)
        cdims = [Counter(wq) for wq in self.weights]  # per degree: {weight: dim}
        ranks = []  # per degree: {weight: rank of d_q on that block}
        for blocks in self.differentials:
            ranks.append({})
            for wt, cols in blocks.items():
                ech = _Echelon()
                for entries in cols.values():
                    ech.insert(entries)
                ranks[-1][wt] = len(ech.rows)
        coh = {}
        for q in range(R + 1):
            coh[q] = {}
            for w, cd in cdims[q].items():
                r_out = ranks[q].get(w, 0) if q < R else 0
                r_in = ranks[q - 1].get(w, 0) if q > 0 else 0
                h = cd - r_out - r_in
                if h < 0:
                    raise ComplexInconsistent(
                        f"negative cohomology dimension in degree {q}"
                    )
                if h > 0:
                    coh[q][w] = h
        # Euler identity per weight
        for w in set().union(*cdims):
            lhs = sum((-1) ** q * coh[q].get(w, 0) for q in range(R + 1))
            rhs = sum((-1) ** q * cdims[q][w] for q in range(R + 1))
            if lhs != rhs:
                raise ComplexInconsistent("Euler identity fails")
        return coh


@dataclass
class OracleReport:
    degrees: list
    cohomology: dict  # degree -> {weight tuple: dim}
    m_decompositions: dict  # degree -> list of (weight coords, multiplicity)
    match_with_kostant: bool = True
    diff: dict = field(default_factory=dict)


def _n_roots(borel: BorelData):
    """The b-positive roots spanning n; refuses dim n above MAX_N_DIM,
    whose complex has 2^dim n cochain spaces."""
    # every b-positive root is >= 0 on h; those of m vanish on it
    m_roots = set(borel.m_pos_roots)
    n_roots = tuple(c for c in borel.pos_roots if c not in m_roots)
    if len(n_roots) > MAX_N_DIM:
        raise DimCapExceeded(f"dim n = {len(n_roots)} exceeds cap {MAX_N_DIM}")
    return n_roots


def _n_labels(L: LieAlgebra, n_roots):
    """The ambient basis label of each root vector spanning n."""
    return [
        ("e", c) if c in L.rs.root_index else ("f", tuple(-x for x in c))
        for c in n_roots
    ]


def build_complex(L: LieAlgebra, borel: BorelData, W: ExplicitModule) -> CochainComplex:
    """Chevalley-Eilenberg complex of n with coefficients in W, its
    differentials scaled to integers and blocked by h_std-weight.  Checks
    that every entry preserves weight and that d compose d vanishes."""
    rs = L.rs
    n_roots = _n_roots(borel)
    R = len(n_roots)
    labels = _n_labels(L, n_roots)
    dim = W.dim
    act = [W.action(lab) for lab in labels]
    D = math.lcm(*(c.denominator for a in act for col in a for c in col.values()))
    act = [[{r: int(c * D) for r, c in col.items()} for col in a] for a in act]
    root_fund = [
        tuple(_as_int(x, "coordinate of a root") for x in rs.root_to_weight(c))
        for c in n_roots
    ]

    # structure constants of n in this basis, times D: onto[k] lists
    # (a, b, D * coeff) with a < b and coeff the x_k-coefficient of [x_a, x_b]
    onto = [[] for _ in range(R)]
    idx = [L.index[lab] for lab in labels]
    n_position = {i: k for k, i in enumerate(idx)}
    for a in range(R):
        for b in range(a + 1, R):
            for i, coeff in L.structure(idx[a], idx[b]).items():
                if i in n_position:
                    coeff = _as_int(coeff, "structure constant")
                    onto[n_position[i]].append((a, b, D * coeff))

    # C^q has basis (S, m), S a q-subset of n's basis and m a module basis
    # index, numbered (index of S) * dim + m
    subs = [list(itertools.combinations(range(R), q)) for q in range(R + 1)]
    sub_index = [{S: i for i, S in enumerate(sq)} for sq in subs]
    module_wts = [
        tuple(_as_int(x, "module weight") for x in wt.coords)
        for wt in W.weight_of_basis
    ]
    bases, weights = [], []
    for q in range(R + 1):
        bases.append([(S, m) for S in subs[q] for m in range(dim)])
        wt_q = []
        for S in subs[q]:
            shift = [sum(root_fund[j][i] for j in S) for i in range(rs.rank)]
            wt_q.extend(
                tuple(x - y for x, y in zip(wm, shift)) for wm in module_wts
            )
        weights.append(wt_q)

    differentials = []
    for q in range(R):
        wt_col, wt_row = weights[q], weights[q + 1]
        blocks = {}
        for s, S in enumerate(subs[q]):
            # action term: extend S by one index k
            grow = []
            for k in range(R):
                if k not in S:
                    T = tuple(sorted(S + (k,)))
                    base = sub_index[q + 1][T] * dim
                    grow.append((act[k], base, (-1) ** T.index(k)))
            # bracket term: replace the element k of S by a pair a < b
            swap = []
            for pos_k, k in enumerate(S):
                rest = S[:pos_k] + S[pos_k + 1:]
                for a, b, coeff in onto[k]:
                    if a in rest or b in rest:
                        continue
                    T = tuple(sorted(rest + (a, b)))
                    sgn = (-1) ** (T.index(a) + T.index(b) + pos_k)
                    swap.append((sub_index[q + 1][T] * dim, sgn * coeff))
            for m in range(dim):
                col = s * dim + m
                wt = wt_col[col]
                entries = {}
                placed = [
                    (base + r, sign * c)
                    for act_k, base, sign in grow
                    for r, c in act_k[m].items()
                ]
                placed.extend((base + m, c) for base, c in swap)
                for row, c in placed:
                    if wt_row[row] != wt:
                        raise ComplexInconsistent("differential mixes weights")
                    entries[row] = entries.get(row, 0) + c
                entries = {row: c for row, c in entries.items() if c != 0}
                if entries:
                    blocks.setdefault(wt, {})[col] = entries
        differentials.append(blocks)

    # d compose d = 0, one column at a time, within each weight block
    for q in range(R - 1):
        onward = differentials[q + 1]
        for wt, cols in differentials[q].items():
            nxt = onward.get(wt, {})
            for entries in cols.values():
                out = {}
                for k, c in entries.items():
                    for row, c2 in nxt.get(k, {}).items():
                        out[row] = out.get(row, 0) + c * c2
                if any(out.values()):
                    raise ComplexInconsistent("d compose d is nonzero")
    return CochainComplex(
        n_roots=n_roots, bases=bases, weights=weights, differentials=differentials,
        scale=D,
    )


def ce_cohomology(L: LieAlgebra, borel: BorelData, W: ExplicitModule) -> dict:
    """Cohomology dimensions per degree and h_std-weight (int tuples), exact
    and blocked per weight."""
    return build_complex(L, borel, W).cohomology()


# -- m-module decomposition --------------------------------------------


def decompose_as_m_module(L: LieAlgebra, borel: BorelData, weight_dims: dict):
    """Multiplicities of the irreducible m-modules in an h_std-weight
    character, sorted by highest weight.

    By Weyl's character formula, chi * prod over the positive roots alpha
    of m of (1 - e^-alpha) has coefficient mult(lam) at each m-dominant lam,
    the multiplicity of the simple m-module of highest weight lam.  That
    reads the unique decomposition off any finite W_m-invariant character;
    the character is one of an m-module iff no multiplicity is negative."""
    rs = L.rs
    m_simple = borel.m_simple_roots
    char = {tuple(w): int(m) for w, m in weight_dims.items() if m}
    # Weyl(m)-invariance of the character
    for c in m_simple:
        for w, m in char.items():
            refl = tuple(rs.reflect_root(c, list(w)))
            if char.get(refl, 0) != m:
                raise NotAnMCharacter(
                    f"character not invariant under reflection in {c}"
                )
    # prod (1 - e^-alpha) as {shift: sign}, the term e^-shift
    signs = {(0,) * rs.rank: 1}
    for c in borel.m_pos_roots:
        alpha = rs.root_to_weight(c)
        nxt = dict(signs)
        for shift, sign in signs.items():
            up = tuple(x + a for x, a in zip(shift, alpha))
            nxt[up] = nxt.get(up, 0) - sign
        signs = {k: v for k, v in nxt.items() if v}

    out = []
    seen = set()
    for w in char:
        for shift in signs:
            lam = tuple(x - y for x, y in zip(w, shift))
            if lam in seen:
                continue
            seen.add(lam)
            if not borel.m_dominant(Weight("g", lam)):
                continue
            mult = sum(
                sign * char.get(tuple(x + y for x, y in zip(lam, sh)), 0)
                for sh, sign in signs.items()
            )
            if mult < 0:
                raise NotAnMCharacter(
                    f"multiplicity {mult} of highest weight {lam} is negative"
                )
            if mult:
                out.append((lam, mult))
    out.sort(key=lambda x: x[0])
    return out


# -- comparison ----------------------------------------------------------


def compare_kostant_vs_oracle(
    L: LieAlgebra,
    borel: BorelData,
    nu: Weight,
    kostant: list,
    dim_cap: int = DEFAULT_DIM_CAP,
) -> OracleReport:
    """Structural equality of the Weyl-group formula and the brute-force
    complex, degree by degree, as multisets of m-highest weights.  `kostant`
    lists the formula's decompositions (`kostant_cohomology`) at the degrees
    to compare; the caller has computed them, so a degree out of range is
    refused before any module work, and so is dim n above the cap."""
    _n_roots(borel)
    degrees = [dec.degree for dec in kostant]
    kostant_sides = {
        dec.degree: dict(Counter(s.gamma.coords for s in dec.summands)) for dec in kostant
    }
    W = construct_module(L, borel, nu, dim_cap=dim_cap)
    coh = ce_cohomology(L, borel, W)
    decomps = {}
    match = True
    diff = {}
    for r in degrees:
        oracle_side = decompose_as_m_module(L, borel, coh.get(r, {}))
        kost_side = kostant_sides[r]
        oracle_dict = {w: m for w, m in oracle_side}
        decomps[r] = oracle_side
        if oracle_dict != kost_side:
            match = False
            diff[r] = {
                "extra": sorted(
                    (w, m) for w, m in oracle_dict.items()
                    if kost_side.get(w) != m
                ),
                "missing": sorted(
                    (w, m) for w, m in kost_side.items()
                    if oracle_dict.get(w) != m
                ),
            }
    return OracleReport(
        degrees=degrees,
        cohomology={r: coh.get(r, {}) for r in degrees},
        m_decompositions=decomps,
        match_with_kostant=match,
        diff=diff,
    )
