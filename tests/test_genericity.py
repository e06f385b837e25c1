import random
from fractions import Fraction
from math import lcm

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ghcert.algebra import build_algebra
from ghcert.borel import build_borel
from ghcert.embedding import choose_regular, make_embedding
from ghcert.errors import DegenerateOnT, SearchTooLarge
from ghcert.genericity import (
    TStarForm,
    check_condition_2,
    evaluate_genericity,
    find_generic_nu,
    induced_form_on_tstar,
    mu_from_nu,
    restrict_to_t,
)
from ghcert.linalg import exact, inverse
from ghcert.parabolic import build_parabolic, rho_vectors
from ghcert.weights import Weight, WeightMultiset

from conftest import brute_force_condition_2

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
    inv = inverse(gram)
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
        nu, mu, rep = find_generic_nu(L, emb, pd, rv, borel, form)
        assert nu.coords == want_nu
        assert mu.coords == want_mu
        assert rep.passed
        assert rep.enumerated_count == count


def test_enumerated_count_formula():
    form = TStarForm([[F(1)]])
    S = WeightMultiset("t")
    S.add((F(1),), 3)
    S.add((F(2),), 2)
    mu = Weight("t", (F(40),))
    rho = Weight("t", (F(0),))
    res = check_condition_2(form, mu, rho, S)
    # [DERIVED] product over distinct weights of (mult+1), minus the empty set
    assert res.enumerated_count == (3 + 1) * (2 + 1) - 1
    assert res.ok


def test_condition_2_witness_reported():
    form = TStarForm([[F(1)]])
    S = WeightMultiset("t")
    S.add((F(4),), 1)
    mu = Weight("t", (F(0),))
    rho = Weight("t", (F(0),))
    res = check_condition_2(form, mu, rho, S)
    # [DERIVED] <mu + 2rho - rho_T, rho_T> = -4 for T = {4}
    assert not res.ok
    assert res.witness == (((F(4),), 1),)


def test_condition_2_cap():
    form = TStarForm([[F(1)]])
    S = WeightMultiset("t")
    for i in range(30):
        S.add((F(i + 1),), 1)
    with pytest.raises(SearchTooLarge):
        check_condition_2(form, Weight("t", (F(0),)), Weight("t", (F(0),)), S, cap=4)


def test_condition_2_huge_cap_is_prompt():
    # a cap far beyond any multiset is only compared by bit length
    form = TStarForm([[F(1)]])
    S = WeightMultiset("t")
    S.add((F(1),), 3)
    S.add((F(2),), 2)
    mu, rho = Weight("t", (F(1),)), Weight("t", (F(0),))
    assert check_condition_2(form, mu, rho, S, cap=10**12) == check_condition_2(
        form, mu, rho, S
    )


@pytest.mark.parametrize(
    "mults, cap, fits",
    [
        ((1, 1, 1), 3, True),  # 2^3 submultisets
        ((1, 1, 1), 2, False),
        ((3,), 2, True),  # 4 = 2^2
        ((4,), 2, False),  # 5 = 2^2 + 1
    ],
)
def test_condition_2_cap_boundary(mults, cap, fits):
    form = TStarForm([[F(1)]])
    S = WeightMultiset("t")
    for i, m in enumerate(mults):
        S.add((F(i + 1),), m)
    args = (form, Weight("t", (F(40),)), Weight("t", (F(0),)), S)
    if fits:
        assert check_condition_2(*args, cap=cap).ok
    else:
        with pytest.raises(SearchTooLarge):
            check_condition_2(*args, cap=cap)


def test_condition_2_witness_is_first_not_least():
    form = TStarForm([[F(1)]])
    S = WeightMultiset("t")
    S.add((F(-2),), 2)
    S.add((F(6),), 1)
    mu, rho = Weight("t", (F(4),)), Weight("t", (F(0),))
    # [DERIVED] <4 - h, h> with h = (sum of T)/2, counts in lexicographic
    # order: (0,1) -> 3, (1,0) -> -5, (1,1) -> 4, (2,0) -> -12, (2,1) -> 3.
    # The first violation is (1,0); the least value is at (2,0).
    res = check_condition_2(form, mu, rho, S)
    assert not res.ok
    assert res.witness == (((F(-2),), 1),)


def test_condition_2_zero_value_survives_scaling():
    form = TStarForm([[F(1)]])
    S = WeightMultiset("t")
    S.add((F(-9, 5),), 1)
    S.add((F(-9, 7),), 1)
    mu, rho = Weight("t", (F(-54, 35),)), Weight("t", (F(0),))
    # [DERIVED] <c - h, h> with c = -54/35: T = {-9/7} and T = {-9/5}
    # both give 81/140 > 0; T = {-9/5, -9/7} gives exactly 0, which
    # violates only if the scaling to integers rounds nothing.
    res = check_condition_2(form, mu, rho, S)
    assert res.witness == (((F(-9, 5),), 1), ((F(-9, 7),), 1))


def test_condition_2_empty_multiset():
    form = TStarForm([[F(2), F(1)], [F(1), F(3)]])
    mu, rho = Weight("t", (F(1), F(-1))), Weight("t", (F(0), F(1, 2)))
    S = WeightMultiset("t")
    res = check_condition_2(form, mu, rho, S)
    assert (res.ok, res.witness, res.enumerated_count) == (True, None, 0)
    assert brute_force_condition_2(form, mu, rho, S) == (True, None, 0)


def _random_instance(rng, dim, den=lambda: 1):
    """A random positive definite form, multiset, mu and rho; den() draws
    the denominator of each coordinate (1 keeps them in Z, rho in Z/2)."""
    gram = None
    while gram is None:
        a = [
            [F(rng.randint(-2, 2), den()) for _ in range(dim)] for _ in range(dim)
        ]
        g = [[sum(a[i][k] * a[j][k] for k in range(dim)) for j in range(dim)]
             for i in range(dim)]
        try:
            TStarForm(g)
            gram = g
        except DegenerateOnT:
            continue
    form = TStarForm(gram)
    S = WeightMultiset("t")
    total = 0
    while total < rng.randint(1, 12):
        w = tuple(F(rng.randint(-3, 3), den()) for _ in range(dim))
        if all(x == 0 for x in w):
            continue
        m = rng.randint(1, 3)
        S.add(w, m)
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
        assert (res.ok, res.witness, res.enumerated_count) == (
            brute_force_condition_2(form, mu, rho, S)
        )


@pytest.mark.parametrize("dim", [1, 2, 3])
def test_condition_2_matches_brute_force_thirds_and_fifths(dim):
    rng = random.Random(142 + dim)
    dens = set()  # of <w, w> over the weights, and of the inverse Gram matrix
    for _ in range(60):
        form, mu, rho, S = _random_instance(rng, dim, lambda: rng.choice((1, 3, 5)))
        dens.update(form.ip(w, w).denominator for w, _ in S.items())
        dens.update(F(x, form.den).denominator for row in form.inv_scaled for x in row)
        res = check_condition_2(form, mu, rho, S)
        assert (res.ok, res.witness, res.enumerated_count) == (
            brute_force_condition_2(form, mu, rho, S)
        )
    # the common denominator of the pairings takes factors 3 and 5
    assert any(d % 3 == 0 for d in dens)
    assert any(d % 5 == 0 for d in dens)


def test_evaluate_genericity_passes_on_witness():
    L, emb, pd, rv, borel, form = pipeline(
        "A2", [unit(8, 0, 1), unit(8, 2, 3), unit(8, 5, 6)], [unit(8, 0, 1)]
    )
    nu, mu, rep = find_generic_nu(L, emb, pd, rv, borel, form)
    again = evaluate_genericity(L, emb, pd, rv, form, nu)
    assert again.passed and again.mu.coords == mu.coords
