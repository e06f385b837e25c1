import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ghcert.algebra import LieAlgebra, build_algebra
from ghcert.borel import build_borel
from ghcert.embedding import choose_regular, make_embedding
from ghcert.errors import InvariantViolation
from ghcert.parabolic import _validate, build_parabolic, rho_vectors
from ghcert.rootsystem import CartanType

from conftest import CASES, act_on_root

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
    # k_perp is spanned by e and f: nothing of it at weight 0
    grading = emb.grading
    assert {w: grading.kperp_dim(w) for w in grading.blocks} == {(0,): 0, (2,): 1, (-2,): 1}
    assert pd.weights_n_cap_kperp == {(2,): 1}


def test_a2_principal_parabolic():
    gens = [unit(8, 0, 1), unit(8, 2, 3), unit(8, 5, 6)]
    L, emb, reg, pd = setup("A2", gens, [unit(8, 0, 1)])
    assert (pd.r, pd.s) == (2, 1)  # [DERIVED] n cap k = span(e1+e2); s=1 [PAPER] for principal sl2
    assert pd.n.dim == 3 and pd.m.dim == 2
    kperp_dims = {w: emb.grading.kperp_dim(w) for w in emb.grading.blocks}
    assert sum(kperp_dims.values()) == 5  # dim k_perp
    # K is nondegenerate on k, so k and k_perp are independent: g = k + k_perp
    assert emb.checks.killing_nondegenerate_on_k
    # triangular decomposition of k_perp: its n, m and nbar parts
    by_sign = {-1: 0, 0: 0, 1: 0}
    for w, d in kperp_dims.items():
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


def test_r_is_checked_against_the_grading():
    """n's r, cut at h, must be the grading's r: a dim k_w raised at one
    weight negative on h leaves n alone but not the grading."""
    gens = [unit(8, 0, 1), unit(8, 2, 3), unit(8, 5, 6)]
    L, emb, reg, pd = setup("A2", gens, [unit(8, 0, 1)])
    grading = emb.grading
    w = next(w for w in grading.blocks if reg.value(w) < 0 and grading.kperp_dim(w))
    grading.k_dims[w] = grading.k_dims.get(w, 0) + 1
    with pytest.raises(InvariantViolation, match="^r = dim\\(n ∩ k_perp\\) is the t-grading's$"):
        build_parabolic(L, emb, reg)


def test_t_weight_multiset_principal():
    gens = [unit(8, 0, 1), unit(8, 2, 3), unit(8, 5, 6)]
    L, emb, reg, pd = setup("A2", gens, [unit(8, 0, 1)])
    S = pd.weights_n
    assert sum(S.values()) == 3
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
    image = {act_on_root(L.rs, borel.w_b, c) for c in L.rs.positive_roots}
    assert image == set(borel.pos_roots)


# -- the one-pass check against the pairwise one it replaced --------------


def pairwise_validate(L, pd):
    """The first bracket check of `_validate` that fails, or None, with
    the structure constants looked up pair by pair."""

    def into(a, b, target):
        return all(L.structure(i, j).keys() <= target for i in a for j in b)

    def nilpotent(n):
        current = n
        for _ in range(len(n) + 1):
            if not current:
                return True
            current = {k for i in n for j in current for k in L.structure(i, j)}
        return False

    m, n = set(pd.m), set(pd.n)
    p = m | n
    checks = (
        (into(p, p, p), "p = m + n closed under bracket"),
        (into(n, n, n), "n closed under bracket"),
        (into(m, n, n), "[m, n] inside n"),
        (nilpotent(n), "n is ad-nilpotent"),
    )
    return next((name for ok, name in checks if not ok), None)


def one_pass_validate(L, emb, reg, pd):
    sign = {w: (v > 0) - (v < 0) for w, v in ((w, reg.value(w)) for w in emb.grading.blocks)}
    try:
        _validate(L, emb, pd, sign)
    except InvariantViolation as exc:
        return str(exc)
    return None


@pytest.mark.parametrize("name", ["a2_principal", "a2_torus", "b2_sl2", "g2_sl2"])
@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(st.data())
def test_one_pass_validate_matches_pairwise(name, data):
    """A corrupted table entry, one-sided or antisymmetric, fails the same
    check first in both; the intact table passes both."""
    raw = CASES[name]
    L = LieAlgebra(CartanType.parse(raw["algebra"]))  # not the cached algebra
    emb = make_embedding(L, raw["subalgebra_generators"], raw["cartan_t"])
    reg = choose_regular(L, emb)
    pd = build_parabolic(L, emb, reg)
    assert one_pass_validate(L, emb, reg, pd) is None is pairwise_validate(L, pd)
    index = st.integers(0, L.dim - 1)
    i, j, k = data.draw(index), data.draw(index), data.draw(index)
    both = data.draw(st.booleans())
    L._structure[(i, j)] = {**L.structure(i, j), k: 1}
    if both:
        L._structure[(j, i)] = {**L.structure(j, i), k: -1}
    assert one_pass_validate(L, emb, reg, pd) == pairwise_validate(L, pd)


def test_n_leaving_n_is_caught_without_asserts():
    """[n, n] sent into m fails "n closed under bracket", under -O too."""
    code = (
        "from ghcert.algebra import LieAlgebra\n"
        "from ghcert.embedding import choose_regular, make_embedding\n"
        "from ghcert.errors import InvariantViolation\n"
        "from ghcert.parabolic import build_parabolic\n"
        "from ghcert.rootsystem import CartanType\n"
        "L = LieAlgebra(CartanType.parse('A2'))\n"
        "u = lambda *i: [int(j in i) for j in range(8)]\n"
        "emb = make_embedding(L, [u(0, 1), u(2, 3), u(5, 6)], [u(0, 1)])\n"
        "reg = choose_regular(L, emb)\n"
        "pd = build_parabolic(L, emb, reg)\n"
        "i, j = L.index[('e', (1, 0))], L.index[('e', (0, 1))]\n"
        "L._structure[(i, j)] = {**L._structure[(i, j)], pd.m[0]: 1}\n"
        "try:\n"
        "    build_parabolic(L, emb, reg)\n"
        "except InvariantViolation as exc:\n"
        "    print(exc)\n"
    )
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(Path(__file__).resolve().parent.parent / "src"), os.environ.get("PYTHONPATH", "")]))
    for flags in ([], ["-O"]):
        proc = subprocess.run([sys.executable, *flags, "-c", code], capture_output=True,
                              text=True, env=env, timeout=120)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "n closed under bracket"
