"""The embedded pair (k, t): closure, reductivity checks, the ideal test,
the Killing complement, the t-grading and the regular element h.

Input contract: the torus t must lie inside the standard Cartan h_std of g
(its basis vectors are supported on the Cartan coordinates).  This keeps
every ad-spectrum rational and lets t-weight spaces be read off from the
root decomposition.
"""

import random
from dataclasses import dataclass

from ghcert.algebra import LieAlgebra, Subspace
from ghcert.errors import (
    DegenerateRestriction,
    InputInvalid,
    InvariantViolation,
    NoRegularFound,
    NotTInvariant,
    ReducedToZero,
    TNotInK,
)
from ghcert.linalg import Echelon, exact, integral, nullspace, rank
from ghcert.rootsystem import CartanType
from ghcert.weights import WeightMultiset
from ghcert import algebra as _algebra


@dataclass(frozen=True)
class ReductivityReport:
    bracket_closed: bool
    killing_nondegenerate_on_k: bool
    toral_action_semisimple: bool

    @property
    def passed(self) -> bool:
        return (
            self.bracket_closed
            and self.killing_nondegenerate_on_k
            and self.toral_action_semisimple
        )


@dataclass(frozen=True)
class TGrading:
    """g = sum of the joint t-weight spaces g_w, and k = sum of k_w = k ∩ g_w.

    t lies in the standard Cartan, so ad t is diagonal on the Chevalley
    basis: each g_w is spanned by the basis vectors of t-weight w.
    """

    weights: tuple  # t-weight (coords tuple) of each basis index
    blocks: dict  # t-weight -> basis indices of g_w
    k_dims: dict  # t-weight -> dim k_w, for the weights with k_w != 0
    k_roots: WeightMultiset  # the nonzero t-weights of k: the t-roots


@dataclass
class EmbeddedSubalgebra:
    k: Subspace
    t: Subspace
    checks: ReductivityReport
    grading: TGrading


@dataclass
class RegularElement:
    h: list  # coordinates in the algebra basis
    t_coeffs: tuple  # integer coefficients on the t basis rows
    g_spectrum: tuple  # sorted ((eigenvalue, multiplicity), ...)

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


def _dense(v, dim):
    out = [0] * dim
    for i, x in v.items():
        out[i] = x
    return out


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
    t = Subspace.from_vectors([list(r) for r in t_rows], L.dim)
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


def killing_perp(L: LieAlgebra, k: Subspace) -> Subspace:
    """Killing-orthogonal complement of k in g."""
    pairing = [_dense(L.killing_dual(r), L.dim) for r in k.pivot_rows.values()]
    perp = Subspace(nullspace(pairing, n_cols=L.dim), L.dim)  # canonical already
    both = list(k.pivot_rows.values()) + list(perp.pivot_rows.values())
    if rank(both) != k.dim + perp.dim:
        raise DegenerateRestriction("k meets its Killing complement nontrivially")
    if k.dim + perp.dim != L.dim:
        raise InvariantViolation(
            f"dim k + dim k_perp = {k.dim} + {perp.dim} != dim g = {L.dim}"
        )
    return perp


@dataclass
class Reduction:
    """Result of splitting off the simple ideals of g contained in k."""

    removed_factors: tuple  # indices into the original factor list
    algebra: LieAlgebra
    k: Subspace
    t: Subspace
    old_columns: tuple  # basis index in the original algebra per new basis index


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
    k_red = Subspace.from_vectors([[row[c] for c in old_columns] for row in k.rows], L_red.dim)
    t_red = Subspace.from_vectors([[row[c] for c in old_columns] for row in t.rows], L_red.dim)
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
    exactly when k = sum of (k ∩ g_w), that is, when k is t-invariant.
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
    cuts = split_by_weight(k.pivot_rows.values(), blocks, weights)
    k_dims = {w: rank(rows) for w, rows in cuts.items() if rows}
    if sum(k_dims.values()) != k.dim:
        raise NotTInvariant(
            f"subspace is not a sum of joint t-weight spaces "
            f"({sum(k_dims.values())} of {k.dim})"
        )
    k_roots = WeightMultiset("t", {w: d for w, d in k_dims.items() if any(w)})
    return TGrading(
        tuple(weights), {w: tuple(idxs) for w, idxs in blocks.items()}, k_dims, k_roots
    )


def split_by_weight(rows, blocks, weights):
    """{w: the sparse rows cut to the columns of g_w}, in block order; a
    row with nothing in g_w is left out there."""
    cuts = {w: [] for w in blocks}
    for row in rows:
        parts = {}
        for i, x in row.items():
            parts.setdefault(weights[i], {})[i] = x
        for w, part in parts.items():
            cuts[w].append(part)
    return cuts


# -- regular element ---------------------------------------------------


def _shells(dim, max_height):
    for radius in range(max_height + 1):
        shell = []

        def rec(prefix):
            if len(prefix) == dim:
                if max(abs(x) for x in prefix) == radius:
                    shell.append(tuple(prefix))
                return
            for v in range(-radius, radius + 1):
                rec(prefix + [v])

        rec([])
        yield shell


def regular_from_coeffs(L: LieAlgebra, emb: EmbeddedSubalgebra, coeffs):
    """RegularElement for h = sum coeffs[i] * t_basis[i], or None if some
    nonzero joint t-weight of g vanishes on it."""
    t = emb.t
    coeffs = tuple(exact(c) for c in coeffs)
    spectrum = {}
    for w, idxs in emb.grading.blocks.items():
        val = exact(sum(c * x for c, x in zip(coeffs, w)))
        if val == 0 and any(w):
            return None
        spectrum[val] = spectrum.get(val, 0) + len(idxs)
    h = [
        exact(sum(c * row[i] for c, row in zip(coeffs, t.rows)))
        for i in range(L.dim)
    ]
    return RegularElement(h=h, t_coeffs=coeffs, g_spectrum=tuple(sorted(spectrum.items())))


def choose_regular(
    L: LieAlgebra, emb: EmbeddedSubalgebra, seed: int = 0, max_height: int = 6
) -> RegularElement:
    """Deterministic seeded search for h in t with C_g(h) = C_g(t).

    The returned h is regular in k (all t-roots of k nonzero on it) and,
    more strongly, no nonzero joint t-weight of g vanishes on it, so the
    parabolic built from h is minimal t-compatible.
    """
    rng = random.Random(seed) if seed else None
    for shell in _shells(emb.t.dim, max_height):
        # canonical order prefers positive leading coefficients; a nonzero
        # seed permutes candidates within each shell
        shell = sorted(shell, key=lambda c: tuple(-x for x in c))
        if rng is not None:
            rng.shuffle(shell)
        for coeffs in shell:
            reg = regular_from_coeffs(L, emb, coeffs)
            if reg is not None:
                return reg
    raise NoRegularFound(
        f"no regular element with integer coefficients up to {max_height}; raise max_height"
    )
