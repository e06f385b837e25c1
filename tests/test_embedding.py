from fractions import Fraction

import pytest

from ghcert.algebra import LieAlgebra, Subspace, build_algebra
from ghcert.embedding import (
    choose_regular,
    close_generators,
    is_ideal,
    killing_perp,
    make_embedding,
    regular_from_coeffs,
    split_off_contained_ideals,
    t_grading,
    verify_reductive,
)
from ghcert.errors import InputInvalid, NoRegularFound, NotTInvariant
from ghcert.rootsystem import CartanType

F = Fraction


def unit(dim, *idx):
    v = [F(0)] * dim
    for i in idx:
        v[i] = F(1)
    return v


@pytest.fixture
def a2():
    return build_algebra("A2")


def principal_sl2(L):
    # h = h1 + h2, e = e_a1 + e_a2, f = f_a1 + f_a2 in A2
    h = unit(8, 0, 1)
    e = unit(8, 2, 3)
    f = unit(8, 5, 6)
    return [h, e, f]


def test_close_generators_principal(a2):
    k = close_generators(a2, principal_sl2(a2))
    assert k.dim == 3


def test_close_generators_single_nilpotent(a2):
    # a single root vector generates only its line
    k = close_generators(a2, [unit(8, 2)])
    assert k.dim == 1


def test_verify_reductive_flags(a2):
    k = close_generators(a2, principal_sl2(a2))
    t = Subspace.from_vectors([unit(8, 0, 1)], 8)
    rep = verify_reductive(a2, k, t)
    assert rep.passed
    # a nilpotent line is closed but Killing-degenerate
    n = Subspace.from_vectors([unit(8, 2)], 8)
    rep2 = verify_reductive(a2, n, Subspace.from_vectors([], 8))
    assert not rep2.killing_nondegenerate_on_k


def test_make_embedding_requires_t_in_hstd(a2):
    with pytest.raises(InputInvalid):
        make_embedding(a2, [unit(8, 2)], [unit(8, 2)])


def test_verify_reductive_requires_t_in_hstd(a2):
    k = close_generators(a2, principal_sl2(a2))
    # h1 + h2 + e_a1: one coordinate on a root vector
    t = Subspace.from_vectors([unit(8, 0, 1, 2)], 8)
    with pytest.raises(InputInvalid, match="standard Cartan"):
        verify_reductive(a2, k, t)


def test_corrupted_structure_breaks_semisimplicity():
    # built directly, so the cached B2 of build_algebra stays intact
    L = LieAlgebra(CartanType.parse("B2"))
    k = Subspace.from_vectors([unit(10, 0), unit(10, 3), unit(10, 7)], 10)
    t = Subspace.from_vectors([unit(10, 0)], 10)
    assert verify_reductive(L, k, t).toral_action_semisimple
    j = L.index[("e", (1, 0))]
    other = L.index[("e", (1, 1))]
    L._structure[(0, j)] = {**L._structure[(0, j)], other: F(1)}
    assert not verify_reductive(L, k, t).toral_action_semisimple


def test_killing_perp_dims(a2):
    k = close_generators(a2, principal_sl2(a2))
    perp = killing_perp(a2, k)
    assert perp.dim == 5
    assert perp.intersect(k).dim == 0


def test_killing_perp_torus():
    L = build_algebra("A1")
    t = Subspace.from_vectors([unit(3, 0)], 3)
    perp = killing_perp(L, t)
    # the complement of the Cartan line is spanned by e and f
    assert perp.dim == 2
    assert perp.contains(unit(3, 1)) and perp.contains(unit(3, 2))


def test_is_ideal_cases():
    L = build_algebra("A1xA1")
    factor = close_generators(L, [unit(6, 0), unit(6, 3), unit(6, 5)])
    assert is_ideal(L, factor)
    diag_t = Subspace.from_vectors([unit(6, 0, 1)], 6)
    assert not is_ideal(L, diag_t)


def test_split_off_contained_ideals():
    L = build_algebra("A1xA1")
    # k = first factor plus the second torus; contains the first factor
    k = close_generators(
        L, [unit(6, 0), unit(6, 3), unit(6, 5), unit(6, 1)]
    )
    t = Subspace.from_vectors([unit(6, 0), unit(6, 1)], 6)
    red = split_off_contained_ideals(L, k, t)
    assert red is not None
    assert red.algebra.rank == 1
    assert red.k.dim == 1 and red.t.dim == 1


def test_split_off_no_contained_ideal(a2):
    k = close_generators(a2, principal_sl2(a2))
    t = Subspace.from_vectors([unit(8, 0, 1)], 8)
    assert split_off_contained_ideals(a2, k, t) is None


def test_t_roots_of_principal(a2):
    emb = make_embedding(a2, principal_sl2(a2), [unit(8, 0, 1)])
    roots = emb.grading.k_roots
    assert roots.total() == 2
    vals = sorted(w[0] for w in roots.entries)
    assert vals == [-vals[1], vals[1]] and vals[1] > 0


def test_grading_of_principal(a2):
    emb = make_embedding(a2, principal_sl2(a2), [unit(8, 0, 1)])
    # e_a1 and e_a2 both have t-weight 1, e_(a1+a2) has t-weight 2
    assert emb.grading.blocks[(F(1),)] == (2, 3)
    assert emb.grading.blocks[(F(2),)] == (4,)
    assert emb.grading.k_dims == {(F(-1),): 1, (F(0),): 1, (F(1),): 1}


def test_grading_rejects_non_invariant_subspace(a2):
    # e_a1 + e_a2 on t = span(h1): the two root vectors have t-weights 2 and -1
    k = Subspace.from_vectors([unit(8, 2, 3)], 8)
    t = Subspace.from_vectors([unit(8, 0)], 8)
    with pytest.raises(NotTInvariant):
        t_grading(a2, k, t)


def test_choose_regular_deterministic(a2):
    emb = make_embedding(a2, principal_sl2(a2), [unit(8, 0, 1)])
    r1 = choose_regular(a2, emb, seed=0)
    r2 = choose_regular(a2, emb, seed=0)
    assert r1.t_coeffs == r2.t_coeffs and r1.h == r2.h
    # seeded variant still yields a regular element
    r3 = choose_regular(a2, emb, seed=5)
    assert all(r3.value(w) != 0 for w in emb.grading.k_roots.entries)


def test_choose_regular_spectrum_a1():
    L = build_algebra("A1")
    emb = make_embedding(L, [unit(3, 0)], [unit(3, 0)])
    reg = choose_regular(L, emb, seed=0)
    assert reg.t_coeffs == (1,)
    assert reg.g_spectrum == ((F(-2), 1), (F(0), 1), (F(2), 1))


def test_regular_from_coeffs_rejects_singular(a2):
    emb = make_embedding(
        a2, [unit(8, 0), unit(8, 1)], [unit(8, 0), unit(8, 1)]
    )
    # h = h1 + h2 kills no root of A2; h with alpha1(h) = 0 is rejected
    assert regular_from_coeffs(a2, emb, [1, 1]) is not None
    # alpha1 = 2w1 - w2 on (1, 2): 2*1 - 1*2... use a singular direction
    from ghcert.rootsystem import root_system

    rs = root_system("A2")
    # find integer coeffs killing alpha1: alpha1(c1 h1 + c2 h2) = 2c1 - c2
    assert regular_from_coeffs(a2, emb, [1, 2]) is None


def test_no_regular_in_trivial_t():
    L = build_algebra("A1")
    emb = make_embedding(L, [unit(3, 0)], [unit(3, 0)])
    with pytest.raises(NoRegularFound):
        choose_regular(L, emb, max_height=0)
