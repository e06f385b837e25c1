import itertools
from fractions import Fraction

import pytest
from conftest import (
    CASES,
    borel_from_case,
    fraction_inverse,
    fraction_weyl_dimension,
    problem,
    sl2_on_alpha1,
    unit,
)

from ghcert.algebra import build_algebra
from ghcert.borel import build_borel, m_rho
from ghcert.errors import LengthOutOfRange, NonDominant
from ghcert.kostant import (
    _coset_representatives,
    coset_counts,
    kostant_cohomology,
    verify_vanishing,
)
from ghcert.rootsystem import root_system
from ghcert.weights import Weight

F = Fraction


def w(*coords):
    return Weight("g", tuple(F(x) for x in coords))


def test_a1_trivial_coefficients():
    L = build_algebra("A1")
    borel = build_borel(L, [F(1)])
    dec0 = kostant_cohomology(L, borel, w(0), 0)
    # [TRIVIAL] r=0 keeps only the identity, gamma = nu
    assert dec0.summands == [w(0)]
    dec1 = kostant_cohomology(L, borel, w(0), 1)
    # [DERIVED] single w = s_alpha, gamma = s_alpha(rho~) - rho~ = -alpha
    assert dec1.summands == [w(-2)]


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
        gammas = [g.coords for g in kostant_cohomology(L, borel, w(1, 1), r).summands]
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
    # the summands' m-dimensions, as `ghc kostant` adds them up: V = C^3 and
    # dim n = 2, so sum_r (-1)^r dim H^r(n, V) = 3 (1 - 2 + 1) = 0
    L = build_algebra("A2")
    borel = build_borel(L, [F(1), F(-1)])
    nu = borel.apply_wb(w(1, 0))
    totals = [
        sum(m_weyl_dimension(borel, g) for g in kostant_cohomology(L, borel, nu, r).summands)
        for r in range(3)
    ]
    assert totals == [2, 3, 1] and totals[0] - totals[1] + totals[2] == 0


# -- the minimal-coset search against the length-r filter over all of W ----


def reference_summands(L, borel, nu, r, images):
    """The gamma of every degree-r summand by the full filter: every
    standard Weyl element w of length r, its image w_b w w_b^-1 (nu + rho)
    - rho, kept when that is dominant for m.  `images` memoises w(w_b^-1
    (nu + rho)) by reduced word across the degrees of one nu."""
    rs = L.rs
    w_b = [[int(x) for x in row] for row in borel.w_b]
    rho = [int(x) for x in borel.rho.coords]
    if not images:
        inv = [[int(x) for x in row] for row in fraction_inverse(borel.w_b)]
        images[()] = tuple(
            sum(a * (int(x) + p) for a, x, p in zip(row, nu.coords, rho)) for row in inv
        )

    def act(word):
        # s_{i_1} (s_{i_2} ... s_{i_l}); the tail is the element one level down
        if word not in images:
            images[word] = rs.reflect_simple(word[0], act(word[1:]))
        return images[word]

    # <gamma, beta^vee> for the simple roots beta of m, in integers
    coroots = [rs.coroot_coeffs(b) for b in borel.m_simple_roots]
    out = []
    for el in rs.weyl_elements_of_length(r):
        img = act(el.word)
        gamma = [sum(a * b for a, b in zip(row, img)) - p for row, p in zip(w_b, rho)]
        if all(sum(g * c for g, c in zip(gamma, co)) >= 0 for co in coroots):
            out.append(tuple(gamma))
    return sorted(out)


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
            assert [g.coords for g in dec.summands] == reference_summands(
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
        assert dec.summands == []
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


def walk_level_sizes(rs, J):
    """Reference: |W^J_l| for every l, by the walk of `_coset_representatives`
    on the orbit of lambda_J, the sum of the fundamental weights outside J."""
    level = {tuple(int(i not in J) for i in range(rs.rank))}
    sizes = []
    while level:
        sizes.append(len(level))
        level = {rs.reflect_simple(i, p) for p in level for i, x in enumerate(p) if x > 0}
    return sizes


@pytest.mark.parametrize("algebra", ["A1", "A2", "A3", "A4", "A5", "B3", "C3", "D4", "G2", "F4",
                                     "E6"])
def test_coset_counts_match_the_walk(algebra):
    """The Poincaré counts equal the walk's level sizes for every J, and the
    reference walk's middle level is `_coset_representatives`' (below E6)."""
    rs = root_system(algebra)
    for size in range(rs.rank + 1):
        for J in itertools.combinations(range(rs.rank), size):
            sizes = walk_level_sizes(rs, J)
            m_roots = [c for c in rs.positive_roots
                       if not any(c[i] for i in range(rs.rank) if i not in J)]
            assert coset_counts(rs, m_roots, len(sizes) - 1) == sizes, J
            if algebra != "E6":
                mid = len(sizes) // 2
                assert len(_coset_representatives(rs, J, mid)) == sizes[mid], J


def test_coset_counts_over_a_base_of_their_own():
    """m's positive roots need not contain simple roots of g: for the sl2 on
    the highest root of A2 (t-weight 0 on h_1 - h_2), W_m has order 2."""
    rs = root_system("A2")
    assert coset_counts(rs, [(1, 1)], 3) == [1, 1, 1, 0]


def test_coset_cap_refused_before_h(monkeypatch):
    """certify refuses a Kostant walk over COSET_CAP before any h is
    searched: the principal sl2 of A2 walks W(A2) to length 1, 1 + 2
    elements."""
    import ghcert.certify
    import ghcert.kostant
    from ghcert.certify import certify, parse_input
    from ghcert.errors import PipelineError, SearchTooLarge

    def no_search(*args, **kwargs):
        raise AssertionError("searched")

    monkeypatch.setattr(ghcert.certify, "choose_regular", no_search)
    monkeypatch.setattr(ghcert.kostant, "COSET_CAP", 2)
    raw = CASES["a2_principal"]
    with pytest.raises(PipelineError) as exc:
        certify(parse_input(raw), raw)
    assert type(exc.value.cause) is SearchTooLarge
    assert str(exc.value) == (
        "stage 'check_coset_cap': W^J search to length 1 visits more than 2 elements "
        "(at length 1)"
    )


@pytest.mark.parametrize("name", sorted(set(CASES) - {"a1a1_factor"}))
def test_summand_dims_match_fraction_weyl_formula(name):
    L, _, _, _, borel = borel_from_case(CASES[name])
    rho_m = m_rho(borel).coords
    for lam in parity_lambdas(L.rank):
        nu = borel.apply_wb(w(*lam))
        for r in range(len(L.rs.positive_roots) + 1):
            for g in kostant_cohomology(L, borel, nu, r).summands:
                want = fraction_weyl_dimension(L.rs, g.coords, borel.m_pos_roots, rho_m)
                assert m_weyl_dimension(borel, g) == want, (lam, r, g.coords)
