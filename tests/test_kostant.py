import itertools
from fractions import Fraction

import pytest
from conftest import CASES, borel_from_case, problem, unit

from ghcert.algebra import build_algebra
from ghcert.borel import build_borel
from ghcert.errors import LengthOutOfRange, NonDominant
from ghcert.linalg import inverse
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


# -- the minimal-coset search against the length-r filter over all of W ----


def reference_summands(L, borel, nu, r, images):
    """(gamma, dim) of every degree-r summand by the full filter: every
    standard Weyl element w of length r, its image w_b w w_b^-1 (nu + rho)
    - rho, kept when that is dominant for m.  `images` memoises w(w_b^-1
    (nu + rho)) by reduced word across the degrees of one nu."""
    rs = L.rs
    w_b = [[int(x) for x in row] for row in borel.w_b]
    rho = [int(x) for x in borel.rho.coords]
    if not images:
        inv = [[int(x) for x in row] for row in inverse([list(row) for row in borel.w_b])]
        images[()] = tuple(
            sum(a * (int(x) + p) for a, x, p in zip(row, nu.coords, rho)) for row in inv
        )

    def act(word):
        # s_{i_1} (s_{i_2} ... s_{i_l}); the tail is the element one level down
        if word not in images:
            images[word] = rs.reflect_simple(word[0], act(word[1:]))
        return images[word]

    rho_m = m_rho(borel).coords
    # <gamma, beta^vee> for the simple roots beta of m, in integers
    coroots = [rs.coroot_coeffs(b) for b in borel.m_simple_roots]
    out = []
    for el in rs.weyl_elements_of_length(r):
        img = act(el.word)
        gamma = [sum(a * b for a, b in zip(row, img)) - p for row, p in zip(w_b, rho)]
        if all(sum(g * c for g, c in zip(gamma, co)) >= 0 for co in coroots):
            gamma = tuple(F(g) for g in gamma)
            out.append((gamma, rs.weyl_dimension(gamma, borel.m_pos_roots, rho_m)))
    return sorted(out)


def sl2_on_alpha1(algebra):
    L = build_algebra(algebra)
    alpha1 = tuple(int(i == 0) for i in range(L.rank))
    gens = [unit(L.dim, L.index[(kind, alpha1)]) for kind in ("e", "f")]
    return problem(algebra, [unit(L.dim, 0)] + gens, [unit(L.dim, 0)])


def torus_h1(algebra):
    dim = build_algebra(algebra).dim
    return problem(algebra, [unit(dim, 0)], [unit(dim, 0)])


PARITY_INPUTS = {
    **{name: raw for name, raw in CASES.items() if name != "a1a1_factor"},
    **{f"{a}_sl2_alpha1": sl2_on_alpha1(a) for a in ("A3", "B3", "C3", "D4", "F4", "E6")},
    **{f"{a}_t_h1": torus_h1(a) for a in ("B2", "G2", "A3", "B3", "C3")},
}


def parity_lambdas(rank):
    """Every lambda with coefficients in 0..2 up to rank 3; above that, the
    constant ones and one mixed pattern, with 2 omega_i for each i up to
    rank 4 (the full filter walks all of W once per lambda)."""
    if rank <= 3:
        return list(itertools.product(range(3), repeat=rank))
    lams = [(c,) * rank for c in range(3)] + [tuple(j % 3 for j in range(rank))]
    if rank == 4:
        lams += [tuple(2 * (j == i) for j in range(rank)) for i in range(rank)]
    return lams


@pytest.mark.parametrize("name", sorted(PARITY_INPUTS))
def test_coset_search_matches_full_filter(name):
    L, _, _, _, borel = borel_from_case(PARITY_INPUTS[name])
    for lam in parity_lambdas(L.rank):
        nu = borel.apply_wb(w(*lam))
        images = {}
        for r in range(len(L.rs.positive_roots) + 1):
            dec = kostant_cohomology(L, borel, nu, r)
            assert [(s.gamma.coords, s.dim) for s in dec.summands] == reference_summands(
                L, borel, nu, r, images
            ), (lam, r)


def test_degree_bounds_and_empty_range():
    L, _, _, pd, borel = borel_from_case(CASES["b2_sl2"])
    n_pos = len(L.rs.positive_roots)
    nu = borel.apply_wb(w(1, 1))
    for r in (-1, n_pos + 1):
        with pytest.raises(LengthOutOfRange, match=rf"length {r} not in \[0, {n_pos}\]"):
            kostant_cohomology(L, borel, nu, r)
    dim_n = n_pos - len(borel.m_pos_roots)
    assert dim_n == pd.n.dim < n_pos
    for r in range(dim_n + 1, n_pos + 1):
        dec = kostant_cohomology(L, borel, nu, r)
        assert dec.summands == [] and dec.total_dim == 0
    assert kostant_cohomology(L, borel, nu, dim_n).summands


def principal_sl2(algebra):
    """e = sum of the simple e_i, f = sum of c_i f_i with h = [e, f] =
    sum of c_i h_i = 2 rho^vee, the sum of the positive coroots."""
    L = build_algebra(algebra)
    rs = L.rs
    c = [sum(rs.coroot_coeffs(a)[i] for a in rs.positive_roots) for i in range(L.rank)]
    simple = [tuple(int(i == j) for j in range(L.rank)) for i in range(L.rank)]
    e = unit(L.dim, *(L.index[("e", a)] for a in simple))
    f = [0] * L.dim
    for a, ci in zip(simple, c):
        f[L.index[("f", a)]] = ci
    return problem(algebra, [e, f], [c + [0] * (L.dim - L.rank)])


def test_principal_e6_near_the_top():
    # m = h, so W^J is all of W(E6); degree dim n - 1 is one step from the top
    raw = principal_sl2("E6")
    L, _, _, pd, borel = borel_from_case(raw)
    assert borel.m_pos_roots == () and pd.r == 35
    dec = kostant_cohomology(L, borel, borel.rho, pd.r)
    assert len(dec.summands) == 6 and dec.omits(borel.rho)


def test_coset_search_skips_the_weyl_levels(monkeypatch):
    from ghcert.certify import certify, parse_input, verify_certificate
    from ghcert.rootsystem import RootSystem

    def refuse(*args, **kwargs):
        raise AssertionError("the full Weyl enumeration is not on the certify path")

    monkeypatch.setattr(RootSystem, "weyl_by_length", refuse)
    monkeypatch.setattr(RootSystem, "weyl_elements_of_length", refuse)
    raw = sl2_on_alpha1("D4")
    cert = certify(parse_input(raw), raw)
    assert verify_certificate(cert, raw) == (True, [])


def test_coset_cap_exits_4(monkeypatch, write_input, capsys):
    import ghcert.kostant
    from ghcert.cli import main

    inp = write_input("in.json", CASES["a2_torus"])
    argv = ["kostant", "--type", "A2", "--nu", "1,1", "--k-spec", inp, "--degree", "1"]
    monkeypatch.setattr(ghcert.kostant, "COSET_CAP", 2)
    assert main(argv) == 4
    assert "more than 2 elements" in capsys.readouterr().err
    monkeypatch.setattr(ghcert.kostant, "COSET_CAP", 3)
    assert main(argv) == 0
