import itertools
from fractions import Fraction
from math import comb

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ghcert.algebra import LieAlgebra, Subspace, build_algebra
from ghcert.certify import certify, dec_vec, enc_vec, front, parse_input
from ghcert.embedding import (
    choose_regular,
    close_generators,
    is_ideal,
    make_embedding,
    regular_from_coeffs,
    split_off_contained_ideals,
    t_grading,
    verify_reductive,
)
from ghcert.errors import InputInvalid, NoRegularFound, NotTInvariant, ReducedToZero
from ghcert.genericity import check_cond2_cap
from ghcert.linalg import Echelon, primitive, rank
from ghcert.parabolic import build_parabolic
from ghcert.rootsystem import CartanType

from conftest import (
    CASES,
    REDUCTION,
    SWEEP_TYPES,
    fraction_nullspace,
    fraction_rref,
    killing_kperp_dims,
    levi,
    shell_search_regular,
    sweep_inputs,
)
from test_genericity import EQUAL_RANK

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
    roots = {w: d for w, d in emb.grading.k_dims.items() if any(w)}
    assert sum(roots.values()) == 2
    vals = sorted(w[0] for w in roots)
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
    assert all(r3.value(w) != 0 for w in emb.grading.k_dims if any(w))


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


PARITY_INPUTS = (
    [(f"case-{name}", CASES[name]) for name in CASES if name != "a1a1_factor"]
    + [(f"equal-rank-{i}-{algebra}", raw) for i, (algebra, raw) in enumerate(EQUAL_RANK)]
    + [
        (f"levi-{algebra}-{nodes}", levi(algebra, nodes))
        for algebra, nodes in (("A4", [0, 3]), ("B3", [0]), ("C3", [2]), ("D4", [1]),
                               ("G2", [0]), ("F4", [1, 2]), ("E6", [0, 2, 3]))
    ]
    + [
        (f"full-levi-{algebra}-{nodes}", levi(algebra, nodes, full=True))
        for algebra, nodes in (("E6", [0]), ("D6", [0, 1, 2]))
    ]
)


@pytest.mark.parametrize("raw", [raw for _, raw in PARITY_INPUTS],
                         ids=[name for name, _ in PARITY_INPUTS])
def test_choose_regular_matches_the_shell_search(raw):
    """The lazy integer scan returns what the search over whole sorted
    shells, each candidate tested in exact arithmetic, returns, for the
    canonical order (seed 0) and a shuffled one (seed 5)."""
    pin = parse_input(raw)
    L = build_algebra(pin.algebra)
    emb = make_embedding(L, pin.generators, pin.cartan_t)
    for seed in (0, 5):
        got = choose_regular(L, emb, seed=seed)
        want = shell_search_regular(L, emb, seed=seed)
        assert (got.t_coeffs, got.h, got.g_spectrum) == (want.t_coeffs, want.h, want.g_spectrum)


def cond2_work_at_h(pd, equal_rank):
    """Reference: condition (2)'s work as counted at a chosen h, from n's
    distinct t-weights, their lines and the lines' rank."""
    weights = list(pd.weights_n)
    lines = list(dict.fromkeys(primitive(w)[0] for w in weights))
    work = len(weights)
    if lines and not equal_rank:
        work += 2 * sum(comb(len(lines) - 1, i) for i in range(rank(lines)))
    return work


@pytest.mark.parametrize("raw", [raw for _, raw in PARITY_INPUTS],
                         ids=[name for name, _ in PARITY_INPUTS])
def test_cond2_cap_counts_at_any_regular_h(raw):
    """The count from the t-grading equals the count from n's weights at
    the searched h, and so does r = dim(n ∩ k_perp), for seeds 0 and 5."""
    pin = parse_input(raw)
    L = build_algebra(pin.algebra)
    emb = make_embedding(L, pin.generators, pin.cartan_t)
    equal_rank = emb.t.dim == L.rank
    grading = emb.grading
    work = check_cond2_cap(grading, cap=10**6, equal_rank=equal_rank)
    r = sum(len(idxs) - grading.k_dims.get(w, 0)
            for w, idxs in grading.blocks.items() if any(w)) // 2
    assert grading.r == r
    for seed in (0, 5):
        pd = build_parabolic(L, emb, choose_regular(L, emb, seed=seed))
        assert work == cond2_work_at_h(pd, equal_rank)
        assert r == pd.r


def test_no_regular_in_trivial_t():
    L = build_algebra("A1")
    emb = make_embedding(L, [unit(3, 0)], [unit(3, 0)])
    with pytest.raises(NoRegularFound):
        choose_regular(L, emb, max_height=0)


@pytest.mark.parametrize("algebra", ("cases",) + SWEEP_TYPES)
def test_kperp_closed_form_matches_killing_ranks(algebra):
    """dim (k_perp)_w = dim g_w - dim k_w is the kernel dimension of the
    Killing pairing of g_w with k_{-w}, and r is half its sum over the
    nonzero w, on every non-ideal input of the sweep."""
    inputs = CASES.values() if algebra == "cases" else [raw for _, raw in sweep_inputs(algebra)]
    compared = 0
    for raw in inputs:
        fr = front(parse_input(raw))
        if fr.ideal:
            continue
        grading = fr.emb.grading
        want = killing_kperp_dims(fr.L, fr.emb)
        assert {w: grading.kperp_dim(w) for w in grading.blocks} == want
        assert grading.r == sum(d for w, d in want.items() if any(w)) // 2
        compared += 1
    rank = CartanType.parse(algebra).rank if algebra != "cases" else None
    assert compared == (6 if rank is None else 1 + 2 * (2**rank - 2))


# -- the front against the textbook definitions ---------------------------
#
# The front reads the ideal test, membership, C_k(t) and the reduced pair
# off coordinates; the references below solve for them in general linear
# algebra, as the definitions state them.


def rank_contains(space, v):
    """v in span(space.rows), by the rank test."""
    rows = [list(r) for r in space.rows]
    return rank(rows + [list(v)]) == len(rows)


def ad_invariant(L, k):
    """[g, k] ⊆ k, bracket by bracket."""
    return all(
        rank_contains(k, L.bracket(L.basis_vector(label), list(x)))
        for label in L.basis
        for x in k.rows
    )


def centralizer_dim(L, k, t):
    """dim {x in k : [t, x] = 0}, by a nullspace solve on k's coefficients."""
    rows = [list(r) for r in k.rows]
    if not rows:
        return 0
    # one equation per coordinate of each [t_i, x]; none when t = 0
    eqs = []
    for tv in t.rows:
        brackets = [L.bracket(list(tv), x) for x in rows]
        eqs += [[b[c] for b in brackets] for c in range(L.dim)]
    return len(fraction_nullspace(eqs, n_cols=len(rows)))


def intersect(a, b):
    """a ∩ b: solve x·a = y·b and map the x part back through a."""
    if a.dim == 0 or b.dim == 0:
        return Subspace.from_vectors([], a.ambient)
    eqs = [
        [r[c] for r in a.rows] + [-r[c] for r in b.rows] for c in range(a.ambient)
    ]
    sols = fraction_nullspace(eqs, n_cols=a.dim + b.dim)
    return Subspace.from_vectors(
        [[sum(s[i] * r[c] for i, r in enumerate(a.rows)) for c in range(a.ambient)]
         for s in sols],
        a.ambient,
    )


def _factor_sums():
    """Every sum of simple factors of A1xA1, A1xA2, B2xA1 and A2xA1xA1, as
    (name, g, k, t): t is the Cartan of the chosen factors, or, with the
    extra torus, k also holds the Cartan of the other factors and t = h."""
    for ctype in ("A1xA1", "A1xA2", "B2xA1", "A2xA1xA1"):
        L = build_algebra(ctype)
        ideals = L.simple_ideal_subspaces()
        n = len(ideals)
        for size in range(n + 1):
            for chosen in itertools.combinations(range(n), size):
                for torus in (False, True):
                    if torus and size == n:
                        continue
                    rows = [list(r) for i in chosen for r in ideals[i].rows]
                    cartan = [
                        L.basis_vector(("h", j))
                        for i in range(n)
                        if i in chosen or torus
                        for j in L.rs.factor_ranges[i]
                    ]
                    yield (
                        f"{ctype}:{'+'.join(f'g{i}' for i in chosen) or '0'}{'+h' if torus else ''}",
                        L,
                        Subspace.from_vectors(rows + cartan, L.dim),
                        Subspace.from_vectors(cartan, L.dim),
                    )


def _case(raw):
    pin = parse_input(raw)
    L = build_algebra(pin.algebra)
    return (
        L,
        close_generators(L, pin.generators),
        Subspace.from_vectors([list(r) for r in pin.cartan_t], L.dim),
    )


FRONT_INPUTS = (
    [(name, *_case(raw)) for name, raw in CASES.items()]
    + [("reduction", *_case(REDUCTION))]
    + list(_factor_sums())
)


@pytest.mark.parametrize("name,L,k,t", FRONT_INPUTS, ids=[x[0] for x in FRONT_INPUTS])
def test_front_matches_definitions(name, L, k, t):
    assert is_ideal(L, k) == ad_invariant(L, k)

    units = [L.basis_vector(label) for label in L.basis]
    for space in (k, t):
        probes = units + [list(r) for r in space.rows]
        if space.dim:
            total = [sum(col) for col in zip(*space.rows)]
            probes += [total] + [[a + b for a, b in zip(total, u)] for u in units]
        for v in probes:
            assert space.contains(v) == rank_contains(space, v)

    # dim k_0 of the grading is dim C_k(t), for t and for every sub-torus
    # spanned by a prefix of its rows, the empty one included
    for j in range(t.dim + 1):
        sub = Subspace.from_vectors(t.rows[:j], L.dim)
        k0 = t_grading(L, k, sub).k_dims.get((F(0),) * j, 0)
        assert k0 == centralizer_dim(L, k, sub)

    if k.dim == L.dim:
        with pytest.raises(ReducedToZero):
            split_off_contained_ideals(L, k, t)
        return
    red = split_off_contained_ideals(L, k, t)
    if red is None:
        return
    rest = Subspace.from_vectors(
        [
            list(r)
            for i, ideal in enumerate(L.simple_ideal_subspaces())
            if i not in red.removed_factors
            for r in ideal.rows
        ],
        L.dim,
    )
    for full, cut in ((k, red.k), (t, red.t)):
        expect = Subspace.from_vectors(
            [[row[c] for c in red.old_columns] for row in intersect(full, rest).rows],
            red.algebra.dim,
        )
        assert cut == expect


IDEAL_INPUTS = [x for x in FRONT_INPUTS if is_ideal(x[1], x[2])]


@pytest.mark.parametrize("name,L,k,t", IDEAL_INPUTS, ids=[x[0] for x in IDEAL_INPUTS])
def test_ideal_complement_is_killing_nullspace(name, L, k, t):
    """When k is an ideal, the certificate's Killing complement (the basis
    vectors of the factors k does not contain) is the Fraction nullspace of
    the pairing K(k, .) read off the dense Gram matrix, k = 0 and k = g
    included."""
    raw = {
        "algebra": str(L.ctype),
        "subalgebra_generators": [enc_vec(r) for r in k.rows] or [[0] * L.dim],
        "cartan_t": [enc_vec(r) for r in t.rows],
    }
    cert = certify(parse_input(raw), raw)
    assert cert["verdict"]["kind"] == "IdealNoModule"
    km = L.killing_matrix
    pairing = [[sum(x[i] * km[i][j] for i in range(L.dim)) for j in range(L.dim)] for x in k.rows]
    expect = fraction_nullspace(pairing, n_cols=L.dim)
    assert [dec_vec(v) for v in cert["ideal"]["complement_basis"]] == expect
    assert cert["ideal"]["complement_dim"] == len(expect) == L.dim - k.dim


def test_split_off_rejects_t_without_a_dropped_cartan():
    """REDUCTION's k holds the first factor, but t = span(h2) lacks its Cartan."""
    L, k, _ = _case(REDUCTION)
    t = Subspace.from_vectors([unit(6, 1)], 6)
    with pytest.raises(InputInvalid, match="t does not split along the contained ideals"):
        split_off_contained_ideals(L, k, t)


# -- the sparse closure against the dense one it replaced -----------------


def dense_bracket(L, x, y):
    """[x, y] of dense vectors, summed pair by pair over the table."""
    out = [0] * L.dim
    for i, a in enumerate(x):
        for j, b in enumerate(y):
            if a and b:
                for k, c in L.structure(i, j).items():
                    out[k] += a * b * c
    return out


def dense_closure(L, gens):
    """Bracket every pair of RREF rows and reduce again, until the
    dimension stops growing."""
    space = Subspace.from_vectors([list(g) for g in gens], L.dim)
    while True:
        rows = [list(r) for r in space.rows]
        extra = [dense_bracket(L, x, y) for i, x in enumerate(rows) for y in rows[i:]]
        bigger = Subspace.from_vectors(rows + extra, L.dim)
        if bigger.dim == space.dim:
            return space
        space = bigger


@pytest.mark.parametrize("raw", [*CASES.values(), REDUCTION], ids=[*CASES, "reduction"])
def test_closure_matches_dense_reference(raw):
    pin = parse_input(raw)
    L = build_algebra(pin.algebra)
    assert close_generators(L, pin.generators) == dense_closure(L, pin.generators)


@pytest.mark.parametrize("raw", [*CASES.values(), REDUCTION], ids=[*CASES, "reduction"])
def test_subspace_from_echelon_matches_from_vectors(raw):
    """The span read off an `Echelon`, as `close_generators` builds k, is
    the canonical RREF of the same vectors in Fractions, sparse rows in
    pivot and key order."""
    pin = parse_input(raw)
    L = build_algebra(pin.algebra)
    ech = Echelon.from_rows(pin.generators)
    k = close_generators(L, pin.generators)
    spans = [
        (Subspace.from_echelon(ech, L.dim), pin.generators),
        (Subspace.from_vectors(pin.generators, L.dim), pin.generators),
        (k, k.rows),
    ]
    for got, vecs in spans:
        rows, pivots = fraction_rref(vecs)
        assert [(p, list(r.items())) for p, r in got.pivot_rows.items()] == [
            (p, [(c, x) for c, x in enumerate(row) if x]) for p, row in zip(pivots, rows)
        ]


def _generator_sets(draw_types=("A2", "B2", "G2", "A3")):
    def vectors(dim):
        entry = st.one_of(st.integers(-2, 2), st.fractions(-2, 2, max_denominator=3))
        return st.dictionaries(st.integers(0, dim - 1), entry, max_size=3).map(
            lambda d: [d.get(i, 0) for i in range(dim)]
        )

    return st.sampled_from(draw_types).flatmap(
        lambda ctype: st.tuples(
            st.just(ctype),
            st.lists(vectors(build_algebra(ctype).dim), min_size=1, max_size=3),
        )
    )


@settings(max_examples=80, deadline=None, derandomize=True, database=None)
@given(_generator_sets())
def test_sparse_closure_and_bracket_match_dense(drawn):
    ctype, gens = drawn
    L = build_algebra(ctype)
    k = close_generators(L, gens)
    assert k == dense_closure(L, gens)
    for x, y in itertools.product(gens, repeat=2):
        assert L.bracket(x, y) == dense_bracket(L, x, y)
    # the reductivity battery's closure pass agrees with the definition
    assert verify_reductive(L, k, Subspace.from_vectors([], L.dim)).bracket_closed
    if k.dim > 1:
        cut = Subspace.from_vectors(k.rows[:-1], L.dim)
        rows = [list(r) for r in cut.rows]
        closed = all(
            rank_contains(cut, dense_bracket(L, x, y)) for x in rows for y in rows
        )
        assert verify_reductive(L, cut, Subspace.from_vectors([], L.dim)).bracket_closed == closed
