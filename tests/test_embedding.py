import itertools
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ghcert.algebra import LieAlgebra, Subspace, build_algebra
from ghcert.certify import parse_input
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
from ghcert.errors import InputInvalid, NoRegularFound, NotTInvariant, ReducedToZero
from ghcert.linalg import Echelon, nullspace, rank
from ghcert.rootsystem import CartanType

from conftest import CASES, REDUCTION

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
    assert rank(list(perp.rows) + list(k.rows)) == perp.dim + k.dim


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
    return len(nullspace(eqs, n_cols=len(rows)))


def intersect(a, b):
    """a ∩ b: solve x·a = y·b and map the x part back through a."""
    if a.dim == 0 or b.dim == 0:
        return Subspace((), a.ambient)
    eqs = [
        [r[c] for r in a.rows] + [-r[c] for r in b.rows] for c in range(a.ambient)
    ]
    sols = nullspace(eqs, n_cols=a.dim + b.dim)
    return Subspace.from_vectors(
        [[sum(s[i] * r[c] for i, r in enumerate(a.rows)) for c in range(a.ambient)]
         for s in sols],
        a.ambient,
    )


def _factor_sums():
    """Every sum of simple factors of A1xA1, A1xA2 and B2xA1, as (name, g,
    k, t): t is the Cartan of the chosen factors, or, with the extra torus,
    k also holds the Cartan of the other factors and t = h."""
    for ctype in ("A1xA1", "A1xA2", "B2xA1"):
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
        sub = Subspace(t.rows[:j], L.dim)
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
    the canonical RREF of the same vectors, and so are its cached sparse
    rows, key order included."""
    pin = parse_input(raw)
    L = build_algebra(pin.algebra)
    ech = Echelon.from_rows(pin.generators)
    spans = [(Subspace.from_echelon(ech, L.dim), Subspace.from_vectors(pin.generators, L.dim))]
    k = close_generators(L, pin.generators)
    spans.append((k, Subspace(k.rows, L.dim)))
    for got, ref in spans:
        assert got == ref
        assert [(p, list(r.items())) for p, r in got.pivot_rows.items()] == [
            (p, list(r.items())) for p, r in ref.pivot_rows.items()
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
    assert verify_reductive(L, k, Subspace((), L.dim)).bracket_closed
    if k.dim > 1:
        cut = Subspace(k.rows[:-1], L.dim)
        rows = [list(r) for r in cut.rows]
        closed = all(
            rank_contains(cut, dense_bracket(L, x, y)) for x in rows for y in rows
        )
        assert verify_reductive(L, cut, Subspace((), L.dim)).bracket_closed == closed
