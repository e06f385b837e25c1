"""The minimal t-compatible parabolic p = m + n built from the regular
element h, the multiplicities of n's t-weights, and the rho-vectors on t*.

m, n and nbar are the basis indices whose t-weight is zero, positive or
negative on h. The multiplicities of the t-weights of n, n ∩ k and
n ∩ k_perp are the t-grading's (`TGrading`), cut by the sign of each
weight on h.
"""

from fractions import Fraction

from ghcert.algebra import LieAlgebra
from ghcert.embedding import EmbeddedSubalgebra, RegularElement
from ghcert.errors import InvariantViolation
from ghcert.weights import Weight


class Block(tuple):
    """A coordinate subspace of g: the sorted basis indices spanning it."""

    @property
    def dim(self) -> int:
        return len(self)


class ParabolicData:
    __slots__ = ("m", "n", "nbar", "weights_n", "weights_n_cap_k", "weights_n_cap_kperp")

    def __init__(self, m: Block, n: Block, nbar: Block, weights_n: dict,
                 weights_n_cap_k: dict, weights_n_cap_kperp: dict):
        self.m, self.n, self.nbar = m, n, nbar
        # {t-weight: multiplicity}; a t-root of k is positive on h exactly
        # when it is a t-weight of n ∩ k
        self.weights_n, self.weights_n_cap_k = weights_n, weights_n_cap_k
        self.weights_n_cap_kperp = weights_n_cap_kperp

    @property
    def r(self) -> int:
        return sum(self.weights_n_cap_kperp.values())

    @property
    def s(self) -> int:
        return sum(self.weights_n_cap_k.values())


class RhoVectors:
    __slots__ = ("rho", "rho_n", "rho_n_perp")

    def __init__(self, rho: Weight, rho_n: Weight, rho_n_perp: Weight):
        self.rho, self.rho_n, self.rho_n_perp = rho, rho_n, rho_n_perp

    @property
    def mu_shift(self) -> Weight:
        return self.rho_n_perp.scale(2)


def build_parabolic(L: LieAlgebra, emb: EmbeddedSubalgebra, reg: RegularElement) -> ParabolicData:
    """m, n and nbar at the regular h, and the grading's dim g_w, dim k_w
    and dim (k_perp)_w at each t-weight w positive on h."""
    grading = emb.grading
    values = {w: reg.value(w) for w in grading.blocks}
    sign = {w: (v > 0) - (v < 0) for w, v in values.items()}
    parts = {-1: [], 0: [], 1: []}
    for idx, w in enumerate(grading.weights):
        parts[sign[w]].append(idx)
    positive = [w for w, s in sign.items() if s > 0]

    def cut(dim):
        return {w: d for w in positive if (d := dim(w))}

    pd = ParabolicData(
        m=Block(parts[0]),
        n=Block(parts[1]),
        nbar=Block(parts[-1]),
        weights_n=cut(lambda w: len(grading.blocks[w])),
        weights_n_cap_k=cut(lambda w: grading.k_dims.get(w, 0)),
        weights_n_cap_kperp=cut(grading.kperp_dim),
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
    require(pd.r == emb.grading.r, "r = dim(n ∩ k_perp) is the t-grading's")
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


def half_sum(mults: dict, dim: int) -> Weight:
    """Half the sum of the t-weights in {t-weight: multiplicity}."""
    acc = [0] * dim
    for coords, mult in mults.items():
        for i, x in enumerate(coords):
            acc[i] += mult * x
    return Weight("t", acc).scale(Fraction(1, 2))


def rho_vectors(L: LieAlgebra, emb: EmbeddedSubalgebra, pd: ParabolicData) -> RhoVectors:
    dim = emb.t.dim
    return RhoVectors(
        rho=half_sum(pd.weights_n_cap_k, dim),
        rho_n=half_sum(pd.weights_n, dim),
        rho_n_perp=half_sum(pd.weights_n_cap_kperp, dim),
    )
