"""The embedded pair (k, t): closure, reductivity checks, the ideal test,
the t-grading and the regular element h.

Input contract: the torus t must lie inside the standard Cartan h_std of g
(its basis vectors are supported on the Cartan coordinates).  This keeps
every ad-spectrum rational and lets t-weight spaces be read off from the
root decomposition.
"""

import random
from itertools import product
from operator import mul

from ghcert.algebra import LieAlgebra, Subspace
from ghcert.errors import (
    InputInvalid,
    NoRegularFound,
    NotTInvariant,
    ReducedToZero,
    TNotInK,
)
from ghcert.linalg import Echelon, exact, integral, primitive, rank
from ghcert.rootsystem import CartanType
from ghcert import algebra as _algebra

DEFAULT_MAX_HEIGHT = 6


class ReductivityReport:
    __slots__ = ("bracket_closed", "killing_nondegenerate_on_k", "toral_action_semisimple")

    def __init__(self, bracket_closed: bool, killing_nondegenerate_on_k: bool,
                 toral_action_semisimple: bool):
        self.bracket_closed, self.toral_action_semisimple = bracket_closed, toral_action_semisimple
        self.killing_nondegenerate_on_k = killing_nondegenerate_on_k

    @property
    def passed(self) -> bool:
        return (
            self.bracket_closed
            and self.killing_nondegenerate_on_k
            and self.toral_action_semisimple
        )


class TGrading:
    """g = sum of the joint t-weight spaces g_w, and k = sum of k_w = k ∩ g_w.

    t lies in the standard Cartan, so ad t is diagonal on the Chevalley
    basis: each g_w is spanned by the basis vectors of t-weight w.  Every
    weight datum of the witness that h does not decide is read off here.
    K pairs g_w only with g_{-w}, and it is nondegenerate on g and on k, so
    dim k_{-w} = dim k_w and dim (k_perp)_w = dim g_w - dim k_w.  A regular
    h puts exactly one of w, -w into n, so r = dim(n ∩ k_perp) is half the
    sum of dim (k_perp)_w over the nonzero w.
    """

    __slots__ = ("weights", "blocks", "k_dims", "lines")

    def __init__(self, weights: tuple, blocks: dict, k_dims: dict, lines: tuple):
        self.weights = weights  # t-weight (coords tuple) of each basis index
        self.blocks = blocks  # t-weight -> basis indices of g_w
        self.k_dims = k_dims  # t-weight -> dim k_w, for the weights with k_w != 0
        self.lines = lines  # a primitive integer vector per line of the nonzero t-weights

    def kperp_dim(self, w) -> int:
        """dim (k_perp)_w."""
        return len(self.blocks[w]) - self.k_dims.get(w, 0)

    @property
    def r(self) -> int:
        return sum(self.kperp_dim(w) for w in self.blocks if any(w)) // 2


class EmbeddedSubalgebra:
    __slots__ = ("k", "t", "checks", "grading")

    def __init__(self, k: Subspace, t: Subspace, checks: ReductivityReport, grading: TGrading):
        self.k, self.t, self.checks, self.grading = k, t, checks, grading


class RegularElement:
    __slots__ = ("h", "t_coeffs", "g_spectrum")

    def __init__(self, h: list, t_coeffs: tuple, g_spectrum: tuple):
        self.h = h  # coordinates in the algebra basis
        self.t_coeffs = t_coeffs  # integer coefficients on the t basis rows
        self.g_spectrum = g_spectrum  # sorted ((eigenvalue, multiplicity), ...)

    def value(self, w):
        """w(h) for a t-weight w (coords tuple)."""
        return sum(c * x for c, x in zip(self.t_coeffs, w))


def close_generators(L: LieAlgebra, gens) -> Subspace:
    """Smallest bracket-closed subspace containing the generators.

    A worklist of sparse integer vectors: each basis vector, once added, is
    bracketed once with every earlier one, and a bracket outside the span
    (an `Echelon` of the basis) joins the basis.  Every pair of basis
    vectors then brackets into the span, so the span is closed."""
    if not gens:
        raise InputInvalid("generator list is empty")
    ech = Echelon()
    basis = [v for v in map(integral, gens) if v and ech.insert(v)]
    for i, x in enumerate(basis):  # basis grows while it is walked
        for y in basis[:i]:
            b = L.bracket_sparse(y, x)
            if b and ech.insert(b):
                basis.append(b)
    return Subspace.from_echelon(ech, L.dim)


def verify_reductive(L: LieAlgebra, k: Subspace, t: Subspace) -> ReductivityReport:
    """The practical battery standing in for 'reductive in g, algebraic'.

    t must lie in the standard Cartan, so ad t is semisimple when each
    ad h_i in its support is diagonal in the Chevalley basis; that is read
    off the sparse structure constants rather than taken on trust.
    """
    if any(i >= L.rank for r in t.pivot_rows.values() for i in r):
        raise InputInvalid("t basis vectors must lie in the standard Cartan")
    if not k.contains_subspace(t):
        raise TNotInK("t is not contained in k")
    rows = list(k.pivot_rows.values())
    closed = all(
        k.contains(L.bracket_sparse(x, y)) for i, x in enumerate(rows) for y in rows[i + 1:]
    )
    nondeg = k.dim == 0 or rank(L.killing_gram(rows)) == k.dim
    support = {i for r in t.pivot_rows.values() for i in r}
    semisimple = all(
        L.structure(i, j).keys() <= {j} for i in support for j in range(L.dim)
    )
    return ReductivityReport(closed, nondeg, semisimple)


def make_embedding(L: LieAlgebra, gens, t_rows) -> EmbeddedSubalgebra:
    """Close the generators and validate the full (k, t) input contract."""
    k = close_generators(L, gens)
    t = Subspace.from_vectors(t_rows, L.dim)
    checks = verify_reductive(L, k, t)
    trows = list(t.pivot_rows.values())
    if any(L.bracket_sparse(x, y) for i, x in enumerate(trows) for y in trows[i + 1:]):
        raise InputInvalid("t is not abelian")
    # t must be self-centralizing in k (a Cartan subalgebra of k): k is
    # t-invariant, so C_k(t) = k_0, the zero t-weight part of the grading
    grading = t_grading(L, k, t)
    k0 = grading.k_dims.get((0,) * t.dim, 0)
    if k0 != t.dim:
        raise InputInvalid(
            f"t (dim {t.dim}) is not self-centralizing in k (centralizer dim {k0})"
        )
    return EmbeddedSubalgebra(k, t, checks, grading)


def is_ideal(L: LieAlgebra, k: Subspace) -> bool:
    """Every ideal of semisimple g is a sum of simple ideals, and those are
    independent: k is an ideal exactly when the factors inside it fill it."""
    return k.dim == sum(
        ideal.dim for ideal in L.simple_ideal_subspaces() if k.contains_subspace(ideal)
    )


class Reduction:
    """Result of splitting off the simple ideals of g contained in k."""

    __slots__ = ("removed_factors", "algebra", "k", "t", "old_columns")

    def __init__(self, removed_factors: tuple, algebra: LieAlgebra, k: Subspace, t: Subspace,
                 old_columns: tuple):
        self.removed_factors = removed_factors  # indices into the original factor list
        self.algebra, self.k, self.t = algebra, k, t
        self.old_columns = old_columns  # basis index in the original algebra per new basis index


def split_off_contained_ideals(L: LieAlgebra, k: Subspace, t: Subspace):
    """Drop every simple ideal of g lying inside k; None if nothing to drop."""
    ideals = L.simple_ideal_subspaces()
    contained = [i for i, ideal in enumerate(ideals) if k.contains_subspace(ideal)]
    if not contained:
        return None
    kept = [i for i in range(len(ideals)) if i not in contained]
    if not kept:
        raise ReducedToZero("k contains every simple ideal of g, so k = g")
    ctype = CartanType(tuple(L.ctype.factors[i] for i in kept))
    L_red = _algebra.build_algebra(ctype)
    kept_cols = sorted(c for i in kept for c in L.rs.factor_ranges[i])

    def embed_root(c_red):
        full = [0] * L.rank
        pos = 0
        for i in kept:
            for j in L.rs.factor_ranges[i]:
                full[j] = c_red[pos]
                pos += 1
        return tuple(full)

    old_columns = []
    for label in L_red.basis:
        if label[0] == "h":
            old_columns.append(L.index[("h", kept_cols[label[1]])])
        else:
            old_columns.append(L.index[(label[0], embed_root(label[1]))])

    # k holds the dropped ideals, so its rows cut to the kept columns span
    # k ∩ rest; once t holds their Cartan, the same holds for t
    new_index = {c: i for i, c in enumerate(old_columns)}

    def cut(sub):
        rows = (
            {new_index[c]: x for c, x in row.items() if c in new_index}
            for row in sub.pivot_rows.values()
        )
        return Subspace.from_vectors(rows, L_red.dim)

    k_red, t_red = cut(k), cut(t)
    if k_red.dim != k.dim - sum(ideals[i].dim for i in contained):
        raise InputInvalid("k does not split along the contained ideals")
    if t_red.dim != t.dim - sum(L.ctype.factors[i][1] for i in contained):
        raise InputInvalid("t does not split along the contained ideals")
    return Reduction(tuple(contained), L_red, k_red, t_red, tuple(old_columns))


# -- the t-grading ------------------------------------------------------


def t_grading(L: LieAlgebra, k: Subspace, t: Subspace) -> TGrading:
    """The t-weight of each basis index of g, and dim k_w per weight.

    dim k_w is the rank of k's rows restricted to the columns of g_w: the
    projection of k to g_w. The projections' dimensions sum to dim k
    exactly when k = sum of (k ∩ g_w), that is, when k is t-invariant; so
    the blocks of k_perp (`TGrading.kperp_dim`) sum to dim g - dim k.
    """
    # the t-weight of each positive root, by root index; f_c has minus it
    trows = t.pivot_rows.values()
    root_wts = [
        tuple(exact(sum(x * f[i] for i, x in row.items())) for row in trows)
        for f in L.rs.positive_root_weights
    ]
    weights = []
    for kind, data in L.basis:
        if kind == "h":
            weights.append((0,) * t.dim)
            continue
        w = root_wts[L.rs.root_index[data]]
        weights.append(w if kind == "e" else tuple(-x for x in w))
    blocks = {}
    for idx, w in enumerate(weights):
        blocks.setdefault(w, []).append(idx)
    cuts = {w: [] for w in blocks}  # k's rows cut to the columns of each g_w
    for row in k.pivot_rows.values():
        parts = {}
        for i, x in row.items():
            parts.setdefault(weights[i], {})[i] = x
        for w, part in parts.items():
            cuts[w].append(part)
    k_dims = {w: rank(rows) for w, rows in cuts.items() if rows}
    if sum(k_dims.values()) != k.dim:
        raise NotTInvariant(
            f"subspace is not a sum of joint t-weight spaces "
            f"({sum(k_dims.values())} of {k.dim})"
        )
    # -w lies on the line of w, so the positive roots' weights meet every
    # line; short lines first, as they vanish on the most search candidates
    lines = {primitive(w)[0] for w in set(root_wts) if any(w)}
    lines = tuple(sorted(lines, key=lambda p: (sum(map(abs, p)), p)))
    return TGrading(tuple(weights), {w: tuple(idxs) for w, idxs in blocks.items()}, k_dims, lines)


# -- regular element ---------------------------------------------------


def regular_from_coeffs(L: LieAlgebra, emb: EmbeddedSubalgebra, coeffs):
    """RegularElement for h = sum coeffs[i] * t_basis[i], or None if some
    nonzero joint t-weight of g vanishes on it."""
    coeffs = tuple(exact(c) for c in coeffs)
    spectrum = {}
    for w, idxs in emb.grading.blocks.items():
        val = exact(sum(c * x for c, x in zip(coeffs, w)))
        if val == 0 and any(w):
            return None
        spectrum[val] = spectrum.get(val, 0) + len(idxs)
    h = [0] * L.dim
    for c, row in zip(coeffs, emb.t.pivot_rows.values()):
        for i, x in row.items():
            h[i] += c * x
    h = [exact(x) for x in h]
    return RegularElement(h=h, t_coeffs=coeffs, g_spectrum=tuple(sorted(spectrum.items())))


def choose_regular(
    L: LieAlgebra, emb: EmbeddedSubalgebra, seed: int = 0, max_height: int = DEFAULT_MAX_HEIGHT
) -> RegularElement:
    """Deterministic seeded search for h in t with C_g(h) = C_g(t).

    No nonzero joint t-weight of g vanishes on h, so h is regular in k and
    the parabolic built from h is minimal t-compatible.  The integer
    coefficients c on the t basis run shell by shell, max |c_i| = 0, 1,
    ..., max_height, each shell in descending lexicographic order (a
    nonzero seed shuffles the whole shell with random.Random(seed)); the
    first c with a nonzero dot product on each line of g's nonzero
    t-weights (`TGrading.lines`) is taken."""
    rng = random.Random(seed) if seed else None
    for radius in range(max_height + 1):
        shell = (c for c in product(range(radius, -radius - 1, -1), repeat=emb.t.dim)
                 if radius in map(abs, c))
        if rng is not None:
            shell = list(shell)
            rng.shuffle(shell)
        for coeffs in shell:
            if all(sum(map(mul, p, coeffs)) for p in emb.grading.lines):
                return regular_from_coeffs(L, emb, coeffs)
    raise NoRegularFound(
        f"no regular element with integer coefficients up to {max_height}; raise max_height"
    )
