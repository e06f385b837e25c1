import random
from fractions import Fraction
from math import lcm

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ghcert.algebra import build_algebra
from ghcert.borel import build_borel
from ghcert.embedding import TGrading, choose_regular, make_embedding
from ghcert.errors import DegenerateOnT, InvariantViolation, SearchTooLarge
from ghcert.genericity import (
    TStarForm,
    check_cond2_cap,
    check_integral_dominant,
    check_condition_2,
    evaluate_genericity,
    find_generic_nu,
    induced_form_on_tstar,
    mu_from_nu,
    restrict_to_t,
)
from ghcert.linalg import exact, primitive
from ghcert.parabolic import build_parabolic, rho_vectors
from ghcert.weights import Weight

from conftest import (
    CASES,
    SWEEP_TYPES,
    assert_condition_2_matches_brute_force,
    brute_force_condition_2,
    fraction_inverse,
    levi,
    problem,
    sweep_inputs,
    unit as int_unit,
)

F = Fraction


def unit(dim, *idx):
    v = [F(0)] * dim
    for i in idx:
        v[i] = F(1)
    return v


def pipeline(algebra, gens, t_rows, seed=0):
    L = build_algebra(algebra)
    emb = make_embedding(L, gens, t_rows)
    reg = choose_regular(L, emb, seed=seed)
    pd = build_parabolic(L, emb, reg)
    rv = rho_vectors(L, emb, pd)
    borel = build_borel(L, [reg.h[i] for i in range(L.rank)])
    form = induced_form_on_tstar(L, emb)
    return L, emb, pd, rv, borel, form


def test_tstar_form_positive_definite():
    L, emb, pd, rv, borel, form = pipeline(
        "A2", [unit(8, 0), unit(8, 1)], [unit(8, 0), unit(8, 1)]
    )
    v = (F(1), F(2))
    assert form.ip(v, v) > 0


def test_tstar_form_rejects_degenerate():
    with pytest.raises(DegenerateOnT):
        TStarForm([[F(1), F(1)], [F(1), F(1)]])


def test_tstar_form_degenerate_messages():
    """Singular Grams, whether a leading minor vanishes early or only the
    determinant does, degenerate; a nonsingular Gram with a leading minor
    <= 0 is not positive definite."""
    for gram in ([[1, 1], [1, 1]], [[0, 0], [0, 1]], [[1, 0, 1], [0, 1, 1], [1, 1, 2]]):
        with pytest.raises(DegenerateOnT, match="^Killing form degenerates on t$"):
            TStarForm([[F(x) for x in row] for row in gram])
    for gram in ([[1, 0], [0, -1]], [[0, 1], [1, 0]], [[-1]], [[1, 2], [2, 1]]):
        with pytest.raises(DegenerateOnT, match="^Killing form is not positive definite on t$"):
            TStarForm([[F(x) for x in row] for row in gram])


@settings(max_examples=120, deadline=None, derandomize=True, database=None)
@given(
    st.integers(1, 4).flatmap(
        lambda n: st.lists(
            st.lists(st.fractions(-3, 3, max_denominator=4), min_size=n, max_size=n),
            min_size=n,
            max_size=n,
        )
    )
)
def test_tstar_form_inverse_matches_fraction_reference(a):
    """den and inv_scaled equal the common denominator and the scaled
    entries of the Fraction inverse of gram = a a^T + 1/7."""
    n = len(a)
    gram = [
        [exact(sum(x * y for x, y in zip(a[i], a[j])) + F(int(i == j), 7)) for j in range(n)]
        for i in range(n)
    ]
    form = TStarForm(gram)
    inv = fraction_inverse(gram)
    den = lcm(*(x.denominator for row in inv for x in row))
    assert form.den == den
    assert form.inv_scaled == [[int(x * den) for x in row] for row in inv]
    assert all(type(x) is int for row in form.inv_scaled for x in row)


def test_restriction_and_mu():
    L, emb, pd, rv, borel, form = pipeline(
        "A1", [unit(3, 0)], [unit(3, 0)]
    )
    nu = Weight("g", (F(0),))
    om = restrict_to_t(emb, nu)
    assert om.coords == (F(0),)
    mu = mu_from_nu(emb, nu, rv)
    # mu = omega + 2 rho_n_perp; n cap k_perp = n = span(e) of weight 2
    assert mu.coords == (F(2),)


def integral_over_all_t_roots(form, mu, k_dims):
    """Reference: 2 <mu, beta> / <beta, beta> is an integer for every t-root
    beta of k, positive or negative on h."""
    return all(
        F(2 * form.ip(mu.coords, beta), form.ip(beta, beta)).denominator == 1
        for beta in k_dims if any(beta)
    )


@pytest.mark.parametrize("algebra", ("cases",) + SWEEP_TYPES)
def test_integrality_over_positive_t_roots_matches_all(algebra):
    """-beta pairs to the negative of beta, so the t-roots of k positive on
    h decide integrality for all of them: at the mu of nu = 0 and at three
    random mu, integral, halves and thirds, on every non-ideal input of the
    sweep."""
    from ghcert.certify import front, parse_input

    rng = random.Random(algebra)
    inputs = CASES.values() if algebra == "cases" else [raw for _, raw in sweep_inputs(algebra)]
    seen = set()
    for raw in inputs:
        fr = front(parse_input(raw))
        if fr.ideal:
            continue
        L, emb = fr.L, fr.emb
        pd = build_parabolic(L, emb, choose_regular(L, emb))
        form = induced_form_on_tstar(L, emb)
        mus = [mu_from_nu(emb, Weight("g", (0,) * L.rank), rho_vectors(L, emb, pd))]
        mus += [Weight("t", tuple(F(rng.randint(-4, 4), den) for _ in range(emb.t.dim)))
                for den in (1, 2, 3)]
        for mu in mus:
            integral, _ = check_integral_dominant(form, mu, pd.weights_n_cap_k)
            assert integral == integral_over_all_t_roots(form, mu, emb.grading.k_dims)
            seen.add(integral)
    assert seen == {True, False}


def test_find_generic_nu_worked_cases():
    # (case, expected nu, expected mu, expected grouped count)
    cases = [
        ("A1", [unit(3, 0)], [unit(3, 0)], (F(0),), (F(2),), 1),
        (
            "A2",
            [unit(8, 0), unit(8, 1)],
            [unit(8, 0), unit(8, 1)],
            (F(0), F(0)),
            (F(2), F(2)),
            7,
        ),
        (
            "A2",
            [unit(8, 0, 1), unit(8, 2, 3), unit(8, 5, 6)],
            [unit(8, 0, 1)],
            (F(0), F(0)),
            (F(3),),
            5,
        ),
    ]
    for algebra, gens, t_rows, want_nu, want_mu, count in cases:
        L, emb, pd, rv, borel, form = pipeline(algebra, gens, t_rows)
        nu, rep = find_generic_nu(L, emb, pd, rv, borel, form)
        assert nu.coords == want_nu
        assert rep.mu.coords == want_mu
        assert rep.passed
        assert rep.enumerated_count == count


def test_enumerated_count_formula():
    form = TStarForm([[F(1)]])
    S = {(F(1),): 3, (F(2),): 2}
    mu = Weight("t", (F(40),))
    rho = Weight("t", (F(0),))
    res = check_condition_2(form, mu, rho, S)
    # [DERIVED] product over distinct weights of (mult+1), minus the empty set
    assert res.enumerated_count == (3 + 1) * (2 + 1) - 1
    assert res.ok


def test_condition_2_witness_reported():
    form = TStarForm([[F(1)]])
    S = {(F(4),): 1}
    mu = Weight("t", (F(0),))
    rho = Weight("t", (F(0),))
    res = check_condition_2(form, mu, rho, S)
    # [DERIVED] <mu + 2rho - rho_T, rho_T> = -4 for T = {4}: a failing single
    assert not res.ok
    assert res.witness == (((F(4),), 1),)


def _plane(weights, mults=None):
    """A multiset of weights of t = Q^2 with the standard form."""
    return {tuple(F(x) for x in w): mults[i] if mults else 1 for i, w in enumerate(weights)}


PLANE = TStarForm([[F(1), F(0)], [F(0), F(1)]])
FAR = Weight("t", (F(400), F(300))), Weight("t", (F(0), F(0)))  # mu, rho: all pass


def _grading(weights, sizes=None):
    """The blocks and lines of a t-grading of t = Q^2 whose nonzero weights
    are the w and -w for w in `weights`, g_w of dimension sizes[i]."""
    blocks = {}
    for i, w in enumerate(weights):
        w = tuple(F(x) for x in w)
        blocks[w] = blocks[tuple(-x for x in w)] = tuple(range(sizes[i] if sizes else 1))
    lines = tuple(dict.fromkeys(primitive(w)[0] for w in blocks))
    return TGrading((), blocks, {}, lines)


def test_condition_2_cap():
    """30 distinct lines in the plane: 30 singles and 60 regions exceed
    2^6, although the singles alone are under it."""
    grading = _grading([(1, i) for i in range(30)])
    with pytest.raises(SearchTooLarge, match="^90 singles and regions exceed the 2\\^6 cap$"):
        check_cond2_cap(grading, cap=6)
    assert check_cond2_cap(grading, cap=7) == 90


def test_condition_2_cap_raises_before_the_walk(monkeypatch):
    """Over the cap, certify refuses before any h is chosen: no regular
    element is searched, no region enumerated and no value taken."""
    import ghcert.certify
    import ghcert.genericity
    from ghcert.certify import certify, parse_input
    from ghcert.errors import PipelineError

    def no_walk(*args, **kwargs):
        raise AssertionError("walked")

    monkeypatch.setattr(ghcert.certify, "choose_regular", no_walk)
    monkeypatch.setattr(ghcert.genericity, "_vertices", no_walk)
    monkeypatch.setattr(ghcert.genericity, "_regions", no_walk)
    monkeypatch.setattr(TStarForm, "image", no_walk)
    # a 2-torus of A3: 6 singles and 12 regions, over 2^4
    raw = problem("A3", [int_unit(15, 0), int_unit(15, 1)], [int_unit(15, 0), int_unit(15, 1)])
    raw["search"] = {"caps": {"cond2": 4}}
    with pytest.raises(PipelineError) as exc:
        certify(parse_input(raw), raw)
    assert type(exc.value.cause) is SearchTooLarge
    assert str(exc.value) == "stage 'check_cond2_cap': 18 singles and regions exceed the 2^4 cap"


def test_condition_2_huge_cap_is_prompt():
    # a cap far beyond any grading is only compared by bit length
    grading = _grading([(1, 0), (0, 1), (1, 1)], [3, 2, 1])
    assert check_cond2_cap(grading, cap=10**12) == check_cond2_cap(grading) == 9


@pytest.mark.parametrize(
    "mults, cap, fits",
    [
        # two lines, two weights on each: 4 singles + 4 regions = 2^3
        ({(1, 0): 1, (2, 0): 2, (0, 1): 3, (0, 2): 1}, 3, True),
        ({(1, 0): 3, (0, 1): 3}, 2, False),  # 2 + 4 regions
        ({(1, 0): 2, (2, 0): 1}, 2, True),  # one line: 2 + 2 regions = 2^2
        ({(1, 0): 1, (2, 0): 1, (3, 0): 1}, 2, False),  # 3 + 2
    ],
)
def test_condition_2_cap_boundary(mults, cap, fits):
    """The cap bounds the work, the singles plus the regions, to 2^cap;
    the dimensions of the weight spaces cost nothing."""
    grading = _grading(list(mults), list(mults.values()))
    if fits:
        assert check_cond2_cap(grading, cap=cap) <= 2**cap
    else:
        with pytest.raises(SearchTooLarge):
            check_cond2_cap(grading, cap=cap)


@pytest.mark.parametrize("weights", [
    [(1, 0), (0, 1), (1, 1)],  # 3 singles + 6 regions
    [(1, 0), (2, 0), (3, 0), (0, 1), (0, 2)],  # 5 singles + 4 regions
])
def test_condition_2_cap_counts_regions(weights):
    grading = _grading(weights)
    with pytest.raises(SearchTooLarge, match="^9 singles and regions exceed the 2\\^3 cap$"):
        check_cond2_cap(grading, cap=3)
    assert check_cond2_cap(grading, cap=4) == 9


def test_condition_2_equal_rank_cap_counts_singles():
    grading = _grading([(1, 0), (0, 1), (1, 1)])
    assert check_cond2_cap(grading, cap=2, equal_rank=True) == 3
    with pytest.raises(SearchTooLarge, match="^3 singles and regions exceed the 2\\^1 cap$"):
        check_cond2_cap(grading, cap=1, equal_rank=True)


def test_condition_2_witness_is_first_not_least():
    """A failing single is reported before any vertex, the first in the
    sorted order of S."""
    form = TStarForm([[F(1)]])
    S = {(F(-2),): 2, (F(6),): 1}
    mu, rho = Weight("t", (F(4),)), Weight("t", (F(0),))
    # [DERIVED] <4 - h, h> with h = (sum of T)/2: the singles give -5 at
    # {-2} and 3 at {6}; the least value, -12, is at the vertex {-2, -2}
    res = check_condition_2(form, mu, rho, S)
    assert not res.ok
    assert res.witness == (((F(-2),), 1),)


def test_condition_2_witness_is_a_vertex_once_the_singles_pass():
    form = TStarForm([[F(1)]])
    S = {(F(1),): 1, (F(2),): 2}
    mu, rho = Weight("t", (F(2),)), Weight("t", (F(0),))
    # [DERIVED] <2 - s, s> at s = 1/2, 1 (the singles) is 3/4, 1; the
    # lexicographically first violation is {2, 2} (s = 2, value 0), and the
    # one nonzero vertex {1, 2, 2} (s = 5/2) gives -5/4
    res = check_condition_2(form, mu, rho, S)
    assert brute_force_condition_2(form, mu, rho, S)[1] == (((F(2),), 2),)
    assert res.witness == (((F(1),), 1), ((F(2),), 2))


def test_condition_2_zero_value_survives_scaling():
    form = TStarForm([[F(1)]])
    S = {(F(-9, 5),): 1, (F(-9, 7),): 1}
    mu, rho = Weight("t", (F(-54, 35),)), Weight("t", (F(0),))
    # [DERIVED] <c - h, h> with c = -54/35: the singles T = {-9/7} and
    # T = {-9/5} both give 81/140 > 0; the vertex T = {-9/5, -9/7} gives
    # exactly 0, which violates only if the scaling to integers rounds
    # nothing.
    res = check_condition_2(form, mu, rho, S)
    assert res.witness == (((F(-9, 5),), 1), ((F(-9, 7),), 1))


def test_condition_2_empty_multiset():
    form = TStarForm([[F(2), F(1)], [F(1), F(3)]])
    mu, rho = Weight("t", (F(1), F(-1))), Weight("t", (F(0), F(1, 2)))
    S = {}
    for equal_rank in (False, True):
        res = check_condition_2(form, mu, rho, S, equal_rank=equal_rank)
        assert (res.ok, res.witness, res.enumerated_count) == (True, None, 0)
        assert check_cond2_cap(_grading([]), cap=1, equal_rank=equal_rank) == 0
    assert brute_force_condition_2(form, mu, rho, S) == (True, None, 0)


def _random_form(rng, dim, den=lambda: 1):
    """A random positive definite form on Q^dim; den() draws the
    denominators of its factor's entries."""
    while True:
        a = [[F(rng.randint(-2, 2), den()) for _ in range(dim)] for _ in range(dim)]
        g = [[sum(a[i][k] * a[j][k] for k in range(dim)) for j in range(dim)]
             for i in range(dim)]
        try:
            return TStarForm(g)
        except DegenerateOnT:
            continue


def _random_instance(rng, dim, den=lambda: 1):
    """A random positive definite form, multiset, mu and rho; den() draws
    the denominator of each coordinate (1 keeps them in Z, rho in Z/2)."""
    form = _random_form(rng, dim, den)
    S = {}
    total = 0
    while total < rng.randint(1, 12):
        w = tuple(F(rng.randint(-3, 3), den()) for _ in range(dim))
        if all(x == 0 for x in w):
            continue
        m = rng.randint(1, 3)
        S[w] = S.get(w, 0) + m
        total += m
    mu = Weight("t", tuple(F(rng.randint(-6, 6), den()) for _ in range(dim)))
    rho = Weight("t", tuple(F(rng.randint(-3, 3), 2 * den()) for _ in range(dim)))
    return form, mu, rho, S


@pytest.mark.parametrize("dim", [1, 2, 3])
def test_condition_2_matches_brute_force(dim):
    rng = random.Random(42 + dim)
    for _ in range(60):
        form, mu, rho, S = _random_instance(rng, dim)
        res = check_condition_2(form, mu, rho, S)
        assert_condition_2_matches_brute_force(res, form, mu, rho, S)


@pytest.mark.parametrize("dim", [1, 2, 3])
def test_condition_2_matches_brute_force_thirds_and_fifths(dim):
    rng = random.Random(142 + dim)
    dens = set()  # of <w, w> over the weights, and of the inverse Gram matrix
    for _ in range(60):
        form, mu, rho, S = _random_instance(rng, dim, lambda: rng.choice((1, 3, 5)))
        dens.update(form.ip(w, w).denominator for w, _ in S.items())
        dens.update(F(x, form.den).denominator for row in form.inv_scaled for x in row)
        res = check_condition_2(form, mu, rho, S)
        assert_condition_2_matches_brute_force(res, form, mu, rho, S)
    # the common denominator of the pairings takes factors 3 and 5
    assert any(d % 3 == 0 for d in dens)
    assert any(d % 5 == 0 for d in dens)


@pytest.mark.parametrize("dim", [1, 2, 3, 4])
def test_condition_2_matches_brute_force_in_a_half_space(dim):
    """Weights in an open half-space, as n's are, multiplicities up to 3,
    and mu scaled up so that about half the instances pass: the regions of
    up to 4 dimensions and their vertices decide as the exhaustive walk."""
    rng = random.Random(242 + dim)
    passed = 0
    for _ in range(50):
        form = _random_form(rng, dim)
        ell = [rng.randint(-2, 2) or 1 for _ in range(dim)]
        S = {}
        while len(S) < rng.randint(1, 6):
            w = tuple(F(rng.randint(-2, 2), rng.choice((1, 2))) for _ in range(dim))
            if sum(x * y for x, y in zip(ell, w)) > 0:
                S[w] = S.get(w, 0) + rng.randint(1, 3)
        scale = rng.choice((2, 4, 8))
        mu = Weight("t", tuple(F(scale * rng.randint(-2, 6)) for _ in range(dim)))
        rho = Weight("t", tuple(F(rng.randint(-3, 3), 2) for _ in range(dim)))
        res = check_condition_2(form, mu, rho, S)
        assert_condition_2_matches_brute_force(res, form, mu, rho, S)
        passed += res.ok
    assert 5 <= passed <= 45


# equal rank: t = h, so n's t-weights are a positive system of roots of g
EQUAL_RANK = [
    ("A1", levi("A1", [0], full=True)),
    ("A2", levi("A2", [0], full=True)),
    ("A3", levi("A3", [1], full=True)),
    ("A4", levi("A4", [0, 3], full=True)),
    ("B2", levi("B2", [1], full=True)),
    ("B3", levi("B3", [0], full=True)),
    ("C3", levi("C3", [2], full=True)),
    ("D4", levi("D4", [1], full=True)),
    ("G2", levi("G2", [0], full=True)),
    ("A1xA1", levi("A1xA1", [0], full=True)),
    # A2 on the long roots (0,1) and (3,1) of G2, with t = h: not a Levi
    ("G2", problem("G2", [int_unit(14, i) for i in (0, 1, 2, 6, 8, 12)],
                   [int_unit(14, 0), int_unit(14, 1)])),
]


@pytest.mark.parametrize("algebra, raw", EQUAL_RANK)
def test_condition_2_equal_rank_singles_match_brute_force(algebra, raw):
    """At equal rank the singles decide: ok equals the exhaustive walk's
    over mu = -2 rho + (1 + s) rho_n + x w, w a weight of n; the singles
    pass when s rho_n + x w is strictly dominant for n's roots."""
    from ghcert.certify import parse_input

    pin = parse_input(raw)
    L, emb, pd, rv, borel, form = pipeline(algebra, pin.generators, pin.cartan_t)
    S = pd.weights_n
    assert len(S) == sum(S.values()) == len(L.rs.positive_roots)
    rng = random.Random(algebra)
    weights = sorted(S)
    passed = 0
    for _ in range(16):
        s, x, w = rng.randint(0, 3), rng.randint(-3, 3), rng.choice(weights)
        mu = Weight("t", tuple(
            -2 * r + (1 + s) * rn + x * y
            for r, rn, y in zip(rv.rho.coords, rv.rho_n.coords, w)
        ))
        res = check_condition_2(form, mu, rv.rho, S, equal_rank=True)
        assert_condition_2_matches_brute_force(res, form, mu, rv.rho, S)
        passed += res.ok
    assert 0 < passed < 16


def test_condition_2_equal_rank_needs_a_positive_system():
    S = _plane([(1, 0), (0, 1)], [1, 2])
    with pytest.raises(InvariantViolation):
        check_condition_2(PLANE, *FAR, S, equal_rank=True)


def test_evaluate_genericity_passes_on_witness():
    L, emb, pd, rv, borel, form = pipeline(
        "A2", [unit(8, 0, 1), unit(8, 2, 3), unit(8, 5, 6)], [unit(8, 0, 1)]
    )
    nu, rep = find_generic_nu(L, emb, pd, rv, borel, form)
    again = evaluate_genericity(L, emb, pd, rv, form, nu)
    assert again.passed and again.mu.coords == rep.mu.coords
