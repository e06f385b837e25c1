import math
from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from ghcert.linalg import Echelon, exact, integral, primitive, rank, rref_in_place

from conftest import fraction_det, fraction_rref, is_normal

F = Fraction


def fm(rows):
    return [[F(x) for x in r] for r in rows]


def test_rref_identity():
    m = fm([[1, 0], [0, 1]])
    assert rref_in_place(m) == [0, 1]
    assert m == [[1, 0], [0, 1]]


def test_rref_canonical_form():
    m = fm([[2, 4, 6], [1, 2, 4]])
    assert rref_in_place(m) == [0, 2]
    assert m == [[F(1), F(2), F(0)], [F(0), F(0), F(1)]]


def test_rref_zero_rows_sink():
    m = fm([[0, 0], [1, 2], [2, 4]])
    pivots = rref_in_place(m)
    assert pivots == [0]
    assert m[1] == [F(0), F(0)] and m[2] == [F(0), F(0)]


def test_rank_and_det():
    assert rank(fm([[1, 2], [2, 4]])) == 1
    assert rank([{0: 1, 1: F(1, 2)}, {0: 2, 1: 1}, {}]) == 1
    assert fraction_det(fm([[1, 2], [3, 4]])) == F(-2)
    assert fraction_det(fm([[2, 0], [0, 3]])) == F(6)


# -- the normal-form kernel against a Fraction-only reference -----------


# ints, and Fractions that may be integral (Fraction(2, 1) is not in normal
# form on the way in, and must be on the way out)
entries = st.one_of(
    st.integers(-4, 4), st.fractions(min_value=-4, max_value=4, max_denominator=5)
)
matrices = st.integers(1, 6).flatmap(
    lambda n: st.lists(st.lists(entries, min_size=n, max_size=n), min_size=1, max_size=5)
)


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(matrices)
def test_rref_and_nullspace_match_fraction_reference(m):
    ref_rows, ref_pivots = fraction_rref(m)
    work = [list(row) for row in m]
    assert rref_in_place(work) == ref_pivots
    assert work[: len(ref_pivots)] == ref_rows
    assert all(x == 0 for row in work[len(ref_pivots):] for x in row)
    assert all(is_normal(x) for row in work for x in row)


def test_exact_normal_form():
    assert type(exact(F(4, 2))) is int and exact(F(4, 2)) == 2
    assert exact(F(1, 2)) == F(1, 2) and type(exact(F(1, 2))) is Fraction
    assert exact(-3) == -3


# -- the fraction-free rank against the Fraction RREF ---------------------


rows_with_zeros = st.integers(1, 6).flatmap(
    lambda n: st.lists(
        st.one_of(
            st.lists(entries, min_size=n, max_size=n),
            st.lists(st.sampled_from([0, F(0)]), min_size=n, max_size=n),
        ),
        min_size=0,
        max_size=6,
    )
)


@settings(max_examples=400, deadline=None, derandomize=True, database=None)
@given(rows_with_zeros)
def test_rank_matches_fraction_rref(m):
    expected = len(fraction_rref(m)[1]) if m else 0
    assert rank(m) == expected
    # the same rows as sparse dicts, nonzero entries only
    assert rank([{c: x for c, x in enumerate(row) if x} for row in m]) == expected
    assert all(type(x) is int for row in m for x in integral(row).values())


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(st.lists(st.fractions(max_denominator=6).map(exact), min_size=1, max_size=5)
       .filter(any))
def test_primitive_is_the_positive_primitive_vector_on_the_line(row):
    """row = sign * p times a positive rational, p integral with content 1
    and its first nonzero entry positive."""
    p, sign = primitive(row)
    assert all(type(x) is int for x in p) and math.gcd(*p) == 1
    assert next(x for x in p if x) > 0 and sign in (1, -1)
    i = next(i for i, x in enumerate(p) if x)
    c = F(row[i]) / (sign * p[i])
    assert c > 0 and all(x == sign * c * y for x, y in zip(row, p))
    assert primitive([F(0), F(-1, 2), F(1, 3)]) == ((0, 3, -2), -1)


# -- the canonical rows of the Echelon against the Fraction RREF ----------


@settings(max_examples=400, deadline=None, derandomize=True, database=None)
@given(rows_with_zeros, st.booleans())
def test_canonical_rows_match_fraction_rref(m, sparse):
    """Dense or sparse rows, zero rows and non-integral entries, inserted in
    either order, read off the same canonical rows as the Fraction RREF."""
    rows, pivots = fraction_rref(m) if m else ([], [])
    expected = [(p, [(c, x) for c, x in enumerate(row) if x]) for row, p in zip(rows, pivots)]
    if sparse:
        m = [{c: x for c, x in enumerate(row) if x} for row in m]
    for order in (m, m[::-1]):
        canon = Echelon.from_rows(order).canonical_rows()
        assert [(p, list(row.items())) for p, row in canon.items()] == expected
        assert all(is_normal(x) for row in canon.values() for x in row.values())
