"""The minimal t-compatible parabolic p = m + n built from the regular
element h, the intersections with k and its Killing complement, and the
rho-vectors on t*.
"""

from dataclasses import dataclass
from fractions import Fraction

from ghcert.algebra import LieAlgebra, Subspace
from ghcert.embedding import (
    EmbeddedSubalgebra,
    RegularElement,
    killing_perp,
    t_roots_and_rho,
    t_weight_spaces_of,
)
from ghcert.errors import InvariantViolation, NonDiagonalizable
from ghcert.linalg import nullspace
from ghcert.weights import Weight, WeightMultiset


@dataclass
class ParabolicData:
    h: RegularElement
    eigenspaces: dict  # eigenvalue -> Subspace
    m: Subspace
    n: Subspace
    nbar: Subspace
    k_perp: Subspace
    n_cap_k: Subspace
    n_cap_kperp: Subspace
    m_cap_kperp: Subspace
    nbar_cap_kperp: Subspace

    @property
    def r(self) -> int:
        return self.n_cap_kperp.dim

    @property
    def s(self) -> int:
        return self.n_cap_k.dim


@dataclass
class RhoVectors:
    rho: Weight
    rho_n: Weight
    rho_n_perp: Weight

    @property
    def mu_shift(self) -> Weight:
        return self.rho_n_perp.scale(2)


def eigenspace_decomposition(L: LieAlgebra, reg: RegularElement):
    """Exact kernels of (ad h - alpha) for each recorded eigenvalue."""
    adh = L.ad(list(reg.h))
    out = {}
    total = 0
    for alpha, _mult in reg.g_spectrum:
        shifted = [
            [adh[i][j] - (alpha if i == j else 0) for j in range(L.dim)]
            for i in range(L.dim)
        ]
        ker = Subspace.from_vectors(nullspace(shifted, n_cols=L.dim), L.dim)
        out[alpha] = ker
        total += ker.dim
    if total != L.dim:
        raise NonDiagonalizable(
            f"eigenspaces of ad h span dimension {total} of {L.dim}"
        )
    return out


def _subspace_sum(L, spaces):
    rows = [list(r) for sp in spaces for r in sp.rows]
    return Subspace.from_vectors(rows, L.dim)


def build_parabolic(L: LieAlgebra, emb: EmbeddedSubalgebra, reg: RegularElement) -> ParabolicData:
    eig = eigenspace_decomposition(L, reg)
    m = eig.get(Fraction(0), Subspace((), L.dim))
    n = _subspace_sum(L, [sp for a, sp in eig.items() if a > 0])
    nbar = _subspace_sum(L, [sp for a, sp in eig.items() if a < 0])
    kp = killing_perp(L, emb.k)
    pd = ParabolicData(
        h=reg,
        eigenspaces=eig,
        m=m,
        n=n,
        nbar=nbar,
        k_perp=kp,
        n_cap_k=n.intersect(emb.k),
        n_cap_kperp=n.intersect(kp),
        m_cap_kperp=m.intersect(kp),
        nbar_cap_kperp=nbar.intersect(kp),
    )
    _validate(L, emb, pd)
    return pd


def _validate(L, emb, pd):
    def require(cond, name):
        if not cond:
            raise InvariantViolation(name)

    require(not emb.t.rows or pd.m.contains_subspace(emb.t), "t inside m")
    require(
        pd.m.dim + pd.n.dim + pd.nbar.dim == L.dim,
        "eigenspace dimensions sum to dim g",
    )
    p = pd.m.sum(pd.n)
    require(_bracket_closed(L, p), "p = m + n closed under bracket")
    require(_bracket_closed(L, pd.n), "n closed under bracket")
    require(_maps_into(L, pd.m, pd.n, pd.n), "[m, n] inside n")
    require(_nilpotent(L, pd.n), "n is ad-nilpotent")
    require(
        pd.k_perp.dim
        == pd.n_cap_kperp.dim + pd.m_cap_kperp.dim + pd.nbar_cap_kperp.dim,
        "triangular decomposition of k-perp",
    )
    require(pd.n.dim == pd.nbar.dim, "dim n equals dim nbar")


def _bracket_closed(L, sp):
    rows = [list(r) for r in sp.rows]
    for i, x in enumerate(rows):
        for y in rows[i:]:
            if not sp.contains(L.bracket(x, y)):
                return False
    return True


def _maps_into(L, a, b, target):
    for x in a.rows:
        for y in b.rows:
            if not target.contains(L.bracket(list(x), list(y))):
                return False
    return True


def _nilpotent(L, n):
    current = n
    for _ in range(n.dim + 1):
        if current.dim == 0:
            return True
        rows = [
            L.bracket(list(x), list(y)) for x in n.rows for y in current.rows
        ]
        current = Subspace.from_vectors(rows, L.dim)
    return False


def t_weight_multiset(L: LieAlgebra, emb: EmbeddedSubalgebra, V: Subspace) -> WeightMultiset:
    """Multiset of joint t-weights on a t-invariant subspace."""
    ms = WeightMultiset("t")
    for w, piece in t_weight_spaces_of(L, emb.t, V).items():
        ms.add(w, piece.dim)
    if ms.total() != V.dim:
        raise InvariantViolation(f"t-weights cover {ms.total()} of dim {V.dim}")
    return ms


def rho_vectors(L: LieAlgebra, emb: EmbeddedSubalgebra, pd: ParabolicData) -> RhoVectors:
    _, rho = t_roots_and_rho(L, emb, pd.h)
    rho_n = t_weight_multiset(L, emb, pd.n).half_sum(dim=emb.t.dim)
    rho_n_perp = t_weight_multiset(L, emb, pd.n_cap_kperp).half_sum(dim=emb.t.dim)
    return RhoVectors(rho=rho, rho_n=rho_n, rho_n_perp=rho_n_perp)
