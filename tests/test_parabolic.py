from fractions import Fraction

import pytest

from ghcert.algebra import LieAlgebra, build_algebra
from ghcert.borel import build_borel
from ghcert.embedding import choose_regular, make_embedding
from ghcert.errors import InvariantViolation
from ghcert.parabolic import build_parabolic, rho_vectors
from ghcert.rootsystem import CartanType

F = Fraction


def unit(dim, *idx):
    v = [F(0)] * dim
    for i in idx:
        v[i] = F(1)
    return v


def setup(algebra, gens, t_rows, seed=0):
    L = build_algebra(algebra)
    emb = make_embedding(L, gens, t_rows)
    reg = choose_regular(L, emb, seed=seed)
    pd = build_parabolic(L, emb, reg)
    return L, emb, reg, pd


def test_a1_torus_parabolic():
    L, emb, reg, pd = setup("A1", [unit(3, 0)], [unit(3, 0)])
    assert (pd.r, pd.s) == (1, 0)  # [DERIVED] n cap k_perp = span(e)
    assert pd.m.dim == 1 and pd.n.dim == 1 and pd.nbar.dim == 1
    assert L.index[("e", (1,))] in pd.n


def test_a2_principal_parabolic():
    gens = [unit(8, 0, 1), unit(8, 2, 3), unit(8, 5, 6)]
    L, emb, reg, pd = setup("A2", gens, [unit(8, 0, 1)])
    assert (pd.r, pd.s) == (2, 1)  # [DERIVED] n cap k = span(e1+e2); s=1 [PAPER] for principal sl2
    assert pd.n.dim == 3 and pd.m.dim == 2
    assert sum(pd.kperp_dims.values()) == 5  # dim k_perp
    # triangular decomposition of k_perp: its n, m and nbar parts
    by_sign = {-1: 0, 0: 0, 1: 0}
    for w, d in pd.kperp_dims.items():
        v = reg.value(w)
        by_sign[(v > 0) - (v < 0)] += d
    assert by_sign[1] == pd.r
    assert by_sign[1] + by_sign[0] + by_sign[-1] == 5


def test_a2_torus_parabolic():
    gens = [unit(8, 0), unit(8, 1)]
    L, emb, reg, pd = setup("A2", gens, gens)
    assert (pd.r, pd.s) == (3, 0)
    assert pd.m.dim == 2  # m = t = h_std


def test_m_n_nbar_partition():
    gens = [unit(8, 0, 1), unit(8, 2, 3), unit(8, 5, 6)]
    L, emb, reg, pd = setup("A2", gens, [unit(8, 0, 1)])
    assert sorted(pd.m + pd.n + pd.nbar) == list(range(L.dim))
    assert pd.m.dim == dict(reg.g_spectrum)[F(0)]
    assert all(reg.value(emb.grading.weights[i]) > 0 for i in pd.n)
    assert all(reg.value(emb.grading.weights[i]) < 0 for i in pd.nbar)


def test_bracket_into_nbar_is_caught():
    # built directly, so the cached A2 of build_algebra stays intact
    L = LieAlgebra(CartanType.parse("A2"))
    emb = make_embedding(L, [unit(8, 0, 1), unit(8, 2, 3), unit(8, 5, 6)], [unit(8, 0, 1)])
    reg = choose_regular(L, emb)
    build_parabolic(L, emb, reg)
    i, j = L.index[("e", (0, 1))], L.index[("e", (1, 0))]
    L._structure[(i, j)] = {**L._structure[(i, j)], L.index[("f", (0, 1))]: F(1)}
    with pytest.raises(InvariantViolation, match="closed under bracket"):
        build_parabolic(L, emb, reg)


def test_t_weight_multiset_principal():
    gens = [unit(8, 0, 1), unit(8, 2, 3), unit(8, 5, 6)]
    L, emb, reg, pd = setup("A2", gens, [unit(8, 0, 1)])
    S = pd.weights_n
    assert S.total() == 3
    # weights of n on t are {1, 1, 2} in canonical t-coordinates
    flat = sorted(w[0] for w, m in S.items() for _ in range(m))
    assert flat == [F(1), F(1), F(2)]


def test_rho_vectors_principal():
    gens = [unit(8, 0, 1), unit(8, 2, 3), unit(8, 5, 6)]
    L, emb, reg, pd = setup("A2", gens, [unit(8, 0, 1)])
    rv = rho_vectors(L, emb, pd)
    # t-roots of k are +-1 in canonical t-coordinates
    assert rv.rho.coords == (F(1, 2),)
    assert rv.rho_n.coords == (F(2),)
    # n cap k_perp has weights {1, 2}
    assert rv.rho_n_perp.coords == (F(3, 2),)
    assert rv.mu_shift.coords == (F(3),)


def test_borel_adapted_to_regular_element():
    gens = [unit(8, 0, 1), unit(8, 2, 3), unit(8, 5, 6)]
    L, emb, reg, pd = setup("A2", gens, [unit(8, 0, 1)])
    borel = build_borel(L, [reg.h[i] for i in range(L.rank)])
    assert len(borel.pos_roots) == 3
    assert borel.m_pos_roots == ()
    # rho consistency: half-sum of b-positive roots
    assert borel.rho.coords == (F(1), F(1))


def test_nonstandard_borel_sifting():
    L = build_algebra("A2")
    borel = build_borel(L, [F(-1), F(2)])
    # alpha1 flips sign; w_b maps the standard positives onto the new set
    assert (-1, 0) in borel.pos_roots
    image = {
        tuple(L.rs.act_on_root([list(r) for r in borel.w_b], c))
        for c in L.rs.positive_roots
    }
    assert image == set(borel.pos_roots)
