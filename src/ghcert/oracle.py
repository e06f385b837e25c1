"""Brute-force cohomology oracle: build the simple finite-dimensional module
with a given highest weight explicitly, compute the Lie-algebra cohomology of
the nilradical from the Chevalley-Eilenberg complex by exact rank
computations, and compare the outcome with the Weyl-group formula.

The linear algebra runs on Python ints where it can: the module's
e-images are scaled to integers, the echelon forms eliminate
fraction-free, and the complex is scaled by one common denominator so
that its blocks are integral.  The complex is built one h_std-weight at a
time, never whole: each block's differentials are checked to stay inside
the block (weight preservation) and to compose to zero, and its ranks give
that weight's cohomology, which must not be negative.
"""

import itertools
import math
from collections import Counter
from collections.abc import Callable
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
from ghcert.linalg import Echelon, axpy, exact
from ghcert.weights import Weight

DEFAULT_DIM_CAP = 5000
MAX_N_DIM = 12


def _as_int(x, what):
    """x as an int; raises InvariantViolation if it is not an integer."""
    x = exact(x)
    if type(x) is not int:
        raise InvariantViolation(f"{what} {x} is not an integer")
    return x


# -- module construction -------------------------------------------------


class ExplicitModule:
    __slots__ = ("dim", "weight_of_basis", "nu", "borel", "_build_columns", "_columns")

    def __init__(self, dim: int, weight_of_basis: list, nu: Weight, borel: BorelData,
                 _build_columns: Callable[[tuple], list], _columns: dict | None = None):
        self.dim = dim
        self.weight_of_basis = weight_of_basis  # Weight on h_std per basis vector
        self.nu, self.borel = nu, borel
        # ambient basis label -> its action's columns; the simple root vectors'
        # come with the module, the others are built on first request
        self._build_columns = _build_columns
        self._columns = {} if _columns is None else _columns

    def action(self, label) -> list:
        """The action of an ambient basis element as dim sparse columns: the
        m-th is {row: coefficient}, the image of basis vector m, nonzero
        entries only.  Built at most once, and kept."""
        cols = self._columns.get(label)
        if cols is None:
            cols = self._columns[label] = self._build_columns(label)
        return cols


def _div(x, n):
    """x / n in the normal form of `exact`, for x an int or a Fraction and
    n a nonzero int."""
    if type(x) is int and x % n == 0:
        return x // n
    return exact(Fraction(x, n))


def _root_labels(L: LieAlgebra, roots):
    """The ambient basis label of the root vector of each root."""
    return [
        ("e", c) if c in L.rs.root_index else ("f", tuple(-x for x in c))
        for c in roots
    ]


def construct_module(
    L: LieAlgebra, borel: BorelData, nu: Weight, dim_cap: int = DEFAULT_DIM_CAP
) -> ExplicitModule:
    """Simple module with b-highest weight nu, built in its own basis.

    The basis grows from the highest-weight vector depth by depth, a depth
    being a point of the root lattice in b-simple-root coordinates, in
    order of height.  The candidates at a depth are f_i b for b a basis
    vector one b-simple root up.  A candidate is known by its e-images,

        e_k f_i b = f_i (e_k b) + [k = i] <wt b, h_i> b,   h_i = [e_i, f_i],

    each term read from columns already built.  The module is simple, so
    no weight vector below the top is killed by every e_k: a combination
    of candidates vanishes exactly when the same combination of their
    e-images does.  The e-images, scaled to integers, are reduced by one
    `Echelon` per depth; the independent candidates, so scaled, become
    basis vectors, every candidate's coordinates give its f_i column, and
    the e-images are the e_k columns.

    Only these simple columns are built here.  Every other root vector's
    action is built when first asked for (`ExplicitModule.action`), as the
    commutator x_(beta + alpha_i) = [x_beta, x_(alpha_i)] / N of two
    columns already there; a Cartan element's is read off the weights."""
    if not (borel.dominant(nu) and borel.integral(nu)):
        raise NonDominant(f"nu = {nu.coords} is not b-dominant integral")
    target = L.rs.weyl_dimension(nu.coords, borel.pos_roots, borel.rho.coords)
    if target > dim_cap:
        raise DimCapExceeded(f"weyl dimension {target} exceeds cap {dim_cap}")
    simple = borel.simple_roots
    r = len(simple)
    raising = _root_labels(L, simple)
    lowering = _root_labels(L, [tuple(-x for x in c) for c in simple])
    coroots = []  # h_i = [e_i, f_i] as {Cartan index: integer coefficient}
    for up, down in zip(raising, lowering):
        h = {
            k: _as_int(c, "structure constant")
            for k, c in L.structure(L.index[up], L.index[down]).items()
        }
        if any(L.basis[k][0] != "h" for k in h):
            raise InvariantViolation(f"[{up}, {down}] is not in the Cartan subalgebra")
        coroots.append(h)
    simple_wts = [L.rs.root_to_weight(c) for c in simple]

    weights = [tuple(_as_int(x, "coordinate of nu") for x in nu.coords)]
    e_cols = [[{}] for _ in range(r)]  # e_cols[k][b]: e_k b
    f_cols = [[None] for _ in range(r)]  # f_cols[i][b]: f_i b, set one level down
    level = {(0,) * r: [0]}  # depth -> the basis vectors there, one height
    while level:
        candidates = {}  # depth -> [(i, b)], one height further down
        for depth, ids in level.items():
            for i in range(r):
                down = depth[:i] + (depth[i] + 1,) + depth[i + 1:]
                candidates.setdefault(down, []).extend((i, b) for b in ids)
        level = {}
        for depth, cands in candidates.items():
            ech = Echelon()
            for i, b in cands:
                # the e-images of f_i b, keyed row * r + k for e_k
                key = {}
                f_i = f_cols[i]
                for k in range(r):
                    for row, c in e_cols[k][b].items():
                        for row2, c2 in f_i[row].items():
                            t = row2 * r + k
                            key[t] = key.get(t, 0) + c * c2
                wt = weights[b]
                t = b * r + i
                key[t] = key.get(t, 0) + sum(c * wt[j] for j, c in coroots[i].items())
                s = math.lcm(*(x.denominator for x in key.values()))
                key = {t: int(x * s) for t, x in key.items() if x}
                new = len(weights)
                comb = ech.coords(key, new)
                if comb is not None:
                    f_i[b] = {j: _div(x, s) for j, x in comb.items()}
                    continue
                # a new basis vector, s f_i b, with integer e-images key
                if new >= target:
                    raise InvariantViolation(
                        "action leaves the constructed module: more independent"
                        f" vectors than the Weyl dimension {target}"
                    )
                f_i[b] = {new: _div(1, s)}
                weights.append(tuple(x - y for x, y in zip(wt, simple_wts[i])))
                for k in range(r):
                    e_cols[k].append({})
                    f_cols[k].append(None)
                for t, x in key.items():
                    e_cols[t % r][new][t // r] = x
                level.setdefault(depth, []).append(new)

    dim = len(weights)
    if dim != target:
        raise InvariantViolation(
            f"constructed dimension {dim} != Weyl dimension {target}"
        )
    pos = set(borel.pos_roots)

    def build_columns(label):
        kind, data = label
        if kind == "h":
            # h_data acts on a weight vector by the weight's coordinate
            return [{m: wt[data]} if wt[data] else {} for m, wt in enumerate(weights)]
        root = data if kind == "e" else tuple(-x for x in data)
        sign = 1 if root in pos else -1
        # root = beta + sign * alpha_i, beta of the same sign as root
        for i, a in enumerate(simple):
            beta = tuple(x - sign * y for x, y in zip(root, a))
            if tuple(sign * x for x in beta) in pos:
                break
        else:
            raise InvariantViolation(f"no simple root splits off {root}")
        x_beta = _root_labels(L, [beta])[0]
        x_i = (raising if sign > 0 else lowering)[i]
        bracket = L.structure(L.index[x_beta], L.index[x_i])
        n = _as_int(bracket.get(L.index[label], 0), "structure constant")
        if len(bracket) != 1 or not n:
            raise InvariantViolation(f"[{x_beta}, {x_i}] is not a multiple of {label}")
        act_beta, act_i = module.action(x_beta), module.action(x_i)
        cols = []
        for m in range(dim):
            out = {}
            for row, c in act_i[m].items():
                axpy(out, c, act_beta[row])
            for row, c in act_beta[m].items():
                axpy(out, -c, act_i[row])
            cols.append({row: _div(c, n) for row, c in out.items()})
        return cols

    module = ExplicitModule(
        dim=dim,
        weight_of_basis=[Weight("g", wt) for wt in weights],
        nu=nu,
        borel=borel,
        _build_columns=build_columns,
    )
    for labels, cols in ((raising, e_cols), (lowering, f_cols)):
        module._columns.update(zip(labels, cols))
    return module


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
                    axpy(out, z, acts[k][m])
                for r, c in acts[j][m].items():
                    axpy(out, -c, acts[i][r])
                for r, c in acts[i][m].items():
                    axpy(out, c, acts[j][r])
                if out:
                    return False
    return True


# -- Chevalley-Eilenberg complex ----------------------------------------


class OracleReport:
    __slots__ = ("degrees", "cohomology", "m_decompositions", "match_with_kostant", "diff")

    def __init__(self, degrees: list, cohomology: dict, m_decompositions: dict,
                 match_with_kostant: bool = True, diff: dict | None = None):
        self.degrees = degrees
        self.cohomology = cohomology  # degree -> {weight tuple: dim}
        self.m_decompositions = m_decompositions  # degree -> list of (weight coords, multiplicity)
        self.match_with_kostant, self.diff = match_with_kostant, {} if diff is None else diff


def _n_roots(borel: BorelData):
    """The b-positive roots spanning n; refuses dim n above MAX_N_DIM,
    whose complex has 2^dim n cochain spaces."""
    # every b-positive root is >= 0 on h; those of m vanish on it
    m_roots = set(borel.m_pos_roots)
    n_roots = tuple(c for c in borel.pos_roots if c not in m_roots)
    if len(n_roots) > MAX_N_DIM:
        raise DimCapExceeded(f"dim n = {len(n_roots)} exceeds cap {MAX_N_DIM}")
    return n_roots


def _weight_blocks(L: LieAlgebra, borel: BorelData, W: ExplicitModule):
    """The Chevalley-Eilenberg complex of n with coefficients in W, one
    h_std-weight at a time.

    A cochain (S, m), S a set of indices into n's basis and m a module
    basis index, has weight wt(m) - sum_{k in S} alpha_k, and d preserves
    it.  Yields (weight, cells, columns) per weight: cells[q] lists the
    cochains (S, m) of degree q, S in lexicographic order and then m, and
    columns[q] holds D * d_q on them, one {row: entry} per cell of degree
    q with rows numbered in cells[q + 1], nonzero integer entries only.  D
    is the least common denominator of n's action, so D * d has the ranks
    of d.  Checks that no entry leaves the block and that d_(q+1) d_q = 0."""
    rs = L.rs
    n_roots = _n_roots(borel)
    R = len(n_roots)
    labels = _root_labels(L, n_roots)
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

    module_wts = [
        tuple(_as_int(x, "module weight") for x in wt.coords)
        for wt in W.weight_of_basis
    ]
    cells = {}  # weight -> per degree: [(S, m)]
    terms = {}  # S -> the terms of d on (S, m), for every m
    for q in range(R + 1):
        for S in itertools.combinations(range(R), q):
            shift = [sum(root_fund[j][i] for j in S) for i in range(rs.rank)]
            for m, wm in enumerate(module_wts):
                wt = tuple(x - y for x, y in zip(wm, shift))
                cells.setdefault(wt, [[] for _ in range(R + 1)])[q].append((S, m))
            # action term: extend S by one index k
            grow = []
            for k in range(R):
                if k not in S:
                    T = tuple(sorted(S + (k,)))
                    grow.append((act[k], T, (-1) ** T.index(k)))
            # bracket term: replace the element k of S by a pair a < b
            swap = []
            for pos_k, k in enumerate(S):
                rest = S[:pos_k] + S[pos_k + 1:]
                for a, b, coeff in onto[k]:
                    if a in rest or b in rest:
                        continue
                    T = tuple(sorted(rest + (a, b)))
                    sgn = (-1) ** (T.index(a) + T.index(b) + pos_k)
                    swap.append((T, sgn * coeff))
            terms[S] = grow, swap

    for wt, per_q in cells.items():
        columns = []
        for q in range(R):
            where = {cell: i for i, cell in enumerate(per_q[q + 1])}
            cols = []
            for S, m in per_q[q]:
                grow, swap = terms[S]
                placed = [
                    ((T, r), sign * c)
                    for act_k, T, sign in grow
                    for r, c in act_k[m].items()
                ]
                placed.extend(((T, m), c) for T, c in swap)
                entries = {}
                for cell, c in placed:
                    row = where.get(cell)
                    if row is None:
                        raise ComplexInconsistent("differential mixes weights")
                    entries[row] = entries.get(row, 0) + c
                cols.append({row: c for row, c in entries.items() if c != 0})
            columns.append(cols)
        # d compose d = 0, one column at a time
        for cols, onward in zip(columns, columns[1:]):
            for entries in cols:
                out = {}
                for k, c in entries.items():
                    for row, c2 in onward[k].items():
                        out[row] = out.get(row, 0) + c * c2
                if any(out.values()):
                    raise ComplexInconsistent("d compose d is nonzero")
        yield wt, per_q, columns


def ce_cohomology(L: LieAlgebra, borel: BorelData, W: ExplicitModule) -> dict:
    """Cohomology dimensions per degree and h_std-weight (int tuples),
    exact: on each weight block, h^q = dim C^q - rank d_q - rank d_(q-1),
    the ranks from an `Echelon` of the block's integer columns."""
    coh = {q: {} for q in range(len(_n_roots(borel)) + 1)}
    for wt, cells, columns in _weight_blocks(L, borel, W):
        ranks = []
        for cols in columns:
            ech = Echelon()
            for entries in cols:
                ech.insert(entries)
            ranks.append(len(ech.rows))
        ranks.append(0)  # d_R = 0; ranks[-1] also reads d_(-1) = 0
        for q, cq in enumerate(cells):
            h = len(cq) - ranks[q] - ranks[q - 1]
            if h < 0:
                raise ComplexInconsistent(f"negative cohomology dimension in degree {q}")
            if h > 0:
                coh[q][wt] = h
    return coh


def build_complex(*args, **kwargs):
    """Removed: `ce_cohomology` builds the complex one weight at a time.
    The name stays only because the benchmark's tracer
    (`perfbench/spans.py`) wraps it by name."""
    raise NotImplementedError("build_complex is removed; use ce_cohomology")


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
