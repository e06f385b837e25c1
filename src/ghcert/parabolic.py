"""The minimal t-compatible parabolic p = m + n built from the regular
element h, the intersections with k and its Killing complement, and the
rho-vectors on t*.

Everything is read off the t-grading of the embedding: m, n and nbar are
the basis indices whose t-weight is zero, positive or negative on h, and
each intersection is a sum of one block dimension per t-weight.
"""

from dataclasses import dataclass

from ghcert.algebra import LieAlgebra
from ghcert.embedding import EmbeddedSubalgebra, RegularElement, split_by_weight
from ghcert.errors import InvariantViolation
from ghcert.linalg import rank
from ghcert.weights import Weight, WeightMultiset


class Block(tuple):
    """A coordinate subspace of g: the sorted basis indices spanning it."""

    @property
    def dim(self) -> int:
        return len(self)


@dataclass
class ParabolicData:
    h: RegularElement
    m: Block
    n: Block
    nbar: Block
    kperp_dims: dict  # t-weight -> dim (k_perp)_w
    k_roots: WeightMultiset  # t-roots of k
    k_positive_roots: WeightMultiset  # the t-roots of k positive on h
    weights_n: WeightMultiset
    weights_n_cap_k: WeightMultiset
    weights_n_cap_kperp: WeightMultiset

    @property
    def r(self) -> int:
        return self.weights_n_cap_kperp.total()

    @property
    def s(self) -> int:
        return self.weights_n_cap_k.total()


@dataclass
class RhoVectors:
    rho: Weight
    rho_n: Weight
    rho_n_perp: Weight

    @property
    def mu_shift(self) -> Weight:
        return self.rho_n_perp.scale(2)


def _kperp_dims(L: LieAlgebra, emb: EmbeddedSubalgebra):
    """dim (k_perp)_w per t-weight w. The Killing form pairs g_w only with
    g_{-w}, so (k_perp)_w is the kernel of the pairing block K(k_{-w}, g_w):
    the functionals K(x, .) of k's rows x, cut to the columns of g_w."""
    grading = emb.grading
    duals = (L.killing_dual(row) for row in emb.k.pivot_rows.values())
    cuts = split_by_weight(duals, grading.blocks, grading.weights)
    return {w: len(cols) - rank(cuts[w]) for w, cols in grading.blocks.items()}


def build_parabolic(L: LieAlgebra, emb: EmbeddedSubalgebra, reg: RegularElement) -> ParabolicData:
    grading = emb.grading
    values = {w: reg.value(w) for w in grading.blocks}
    sign = {w: (v > 0) - (v < 0) for w, v in values.items()}
    parts = {-1: [], 0: [], 1: []}
    for idx, w in enumerate(grading.weights):
        parts[sign[w]].append(idx)
    kperp = _kperp_dims(L, emb)

    def positive(dims):
        return WeightMultiset("t", {w: d for w, d in dims.items() if d and sign[w] > 0})

    pd = ParabolicData(
        h=reg,
        m=Block(parts[0]),
        n=Block(parts[1]),
        nbar=Block(parts[-1]),
        kperp_dims=kperp,
        k_roots=grading.k_roots,
        k_positive_roots=positive(grading.k_roots.entries),
        weights_n=positive({w: len(idxs) for w, idxs in grading.blocks.items()}),
        weights_n_cap_k=positive(grading.k_dims),
        weights_n_cap_kperp=positive(kperp),
    )
    _validate(L, emb, pd, sign)
    return pd


def _validate(L, emb, pd, sign):
    def require(cond, name):
        if not cond:
            raise InvariantViolation(name)

    require(
        all(not any(w) for w, s in sign.items() if s == 0),
        "no nonzero t-weight vanishes on h, so m is the zero weight space",
    )
    part = [sign[w] for w in emb.grading.weights]  # -1 on nbar, 0 on m, 1 on n
    require(
        all(part[i] == 0 for row in emb.t.pivot_rows.values() for i in row), "t inside m"
    )
    # one pass over the nonzero brackets [b_i, b_j] with b_i, b_j in p
    p_closed = n_closed = mn_in_n = True
    lower = {j: set() for j in pd.n}  # j in n -> support of [n, b_j]
    for (i, j), out in L.structure_items():
        si, sj = part[i], part[j]
        if si < 0 or sj < 0:
            continue
        for k in out:
            sk = part[k]
            if sk < 0:
                p_closed = False
            if sj > 0 and sk <= 0:
                if si > 0:
                    n_closed = False
                else:
                    mn_in_n = False
        if si > 0 and sj > 0:
            lower[j].update(out)
    require(p_closed, "p = m + n closed under bracket")
    require(n_closed, "n closed under bracket")
    require(mn_in_n, "[m, n] inside n")
    require(_nilpotent(lower), "n is ad-nilpotent")
    require(
        sum(pd.kperp_dims.values()) == L.dim - emb.k.dim,
        "the blocks of k_perp have dimensions summing to dim g - dim k",
    )
    require(pd.n.dim == pd.nbar.dim, "dim n equals dim nbar")


def _nilpotent(lower):
    """The lower central series of n, on supports, reaches zero; lower maps
    each index j of n to the support of [n, b_j], and n is closed."""
    current = set(lower)
    for _ in range(len(lower) + 1):
        if not current:
            return True
        current = set().union(*(lower[j] for j in current))
    return False


def rho_vectors(L: LieAlgebra, emb: EmbeddedSubalgebra, pd: ParabolicData) -> RhoVectors:
    dim = emb.t.dim
    return RhoVectors(
        rho=pd.k_positive_roots.half_sum(dim=dim),
        rho_n=pd.weights_n.half_sum(dim=dim),
        rho_n_perp=pd.weights_n_cap_kperp.half_sum(dim=dim),
    )
