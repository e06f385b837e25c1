from fractions import Fraction

import pytest

from ghcert.algebra import build_algebra
from ghcert.borel import build_borel
from ghcert.errors import NonDominant
from ghcert.kostant import (
    kostant_cohomology,
    m_rho,
    verify_vanishing,
)
from ghcert.weights import Weight

F = Fraction


def w(*coords):
    return Weight("g", tuple(F(x) for x in coords))


def test_a1_trivial_coefficients():
    L = build_algebra("A1")
    borel = build_borel(L, [F(1)])
    dec0 = kostant_cohomology(L, borel, w(0), 0)
    # [TRIVIAL] r=0 keeps only the identity, gamma = nu
    assert [s.gamma.coords for s in dec0.summands] == [(F(0),)]
    dec1 = kostant_cohomology(L, borel, w(0), 1)
    # [DERIVED] single w = s_alpha, gamma = s_alpha(rho~) - rho~ = -alpha
    assert [s.gamma.coords for s in dec1.summands] == [(F(-2),)]
    assert dec1.total_dim == 1


def test_a2_borel_histogram():
    L = build_algebra("A2")
    borel = build_borel(L, [F(1), F(1)])
    counts = [
        len(kostant_cohomology(L, borel, w(1, 1), r).summands)
        for r in range(4)
    ]
    assert counts == [1, 2, 2, 1]  # [TRIVIAL] Weyl length histogram of A2


def test_summands_pairwise_distinct():
    L = build_algebra("A2")
    borel = build_borel(L, [F(1), F(1)])
    for r in range(4):
        gammas = [
            s.gamma.coords
            for s in kostant_cohomology(L, borel, w(1, 1), r).summands
        ]
        assert len(set(gammas)) == len(gammas)  # multiplicity one


def test_vanishing_false_at_degree_zero():
    L = build_algebra("A2")
    borel = build_borel(L, [F(1), F(1)])
    assert not verify_vanishing(L, borel, w(1, 1), 0)
    for r in range(1, 4):
        assert verify_vanishing(L, borel, w(1, 1), r)


def test_nondominant_nu_rejected():
    L = build_algebra("A2")
    borel = build_borel(L, [F(1), F(1)])
    with pytest.raises(NonDominant):
        kostant_cohomology(L, borel, w(-1, 0), 1)
    with pytest.raises(NonDominant):
        kostant_cohomology(L, borel, w(F(1, 2), 0), 1)


def test_adapted_borel_lengths():
    # for a nonstandard Borel the dominant weights are w_b-images
    L = build_algebra("A2")
    borel = build_borel(L, [F(-1), F(2)])
    nu = borel.apply_wb(w(1, 1))
    assert borel.dominant(nu) and borel.integral(nu)
    counts = [
        len(kostant_cohomology(L, borel, nu, r).summands) for r in range(4)
    ]
    assert counts == [1, 2, 2, 1]


def test_levi_dominance_filter():
    # h = (1,-1) on A2: m is the sl2 along alpha1+alpha2
    L = build_algebra("A2")
    borel = build_borel(L, [F(1), F(-1)])
    assert borel.m_pos_roots == ((1, 1),)
    nu = borel.apply_wb(w(0, 0))
    total = sum(
        len(kostant_cohomology(L, borel, nu, r).summands) for r in range(3)
    )
    # only the minimal-length coset representatives survive: |W| / |W_m|
    assert total == 3  # [DERIVED] |W|/|W_m| = 6/2 minimal coset representatives


def m_weyl_dimension(borel, gamma):
    return borel.L.rs.weyl_dimension(gamma.coords, borel.m_pos_roots, m_rho(borel).coords)


def test_m_weyl_dimension():
    L = build_algebra("A2")
    borel = build_borel(L, [F(1), F(-1)])
    # adjoint-like weight restricted to the m-sl2: dim = <gamma, beta^vee> + 1
    gamma = w(1, 1)
    assert m_weyl_dimension(borel, gamma) == 3  # [DERIVED] <gamma,beta_vee>+1 = 3
    assert m_weyl_dimension(borel, w(0, 0)) == 1


def test_total_dims_follow_weyl_dimension():
    L = build_algebra("A2")
    borel = build_borel(L, [F(1), F(-1)])
    nu = borel.apply_wb(w(1, 0))
    for r in range(3):
        dec = kostant_cohomology(L, borel, nu, r)
        assert [s.dim for s in dec.summands] == [
            m_weyl_dimension(borel, s.gamma) for s in dec.summands
        ]
        assert dec.total_dim == sum(s.dim for s in dec.summands)
