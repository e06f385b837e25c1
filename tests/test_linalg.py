from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from ghcert.linalg import (
    det,
    exact,
    inverse,
    matmul,
    matvec,
    nullspace,
    rank,
    rref,
    rref_in_place,
)

from conftest import is_normal

F = Fraction


def fm(rows):
    return [[F(x) for x in r] for r in rows]


def test_rref_identity():
    m = fm([[1, 0], [0, 1]])
    rows, pivots = rref(m)
    assert rows == [[1, 0], [0, 1]]
    assert pivots == [0, 1]


def test_rref_canonical_form():
    m = fm([[2, 4, 6], [1, 2, 4]])
    rows, pivots = rref(m)
    assert pivots == [0, 2]
    assert rows == [[F(1), F(2), F(0)], [F(0), F(0), F(1)]]


def test_rref_zero_rows_sink():
    m = fm([[0, 0], [1, 2], [2, 4]])
    pivots = rref_in_place(m)
    assert pivots == [0]
    assert m[1] == [F(0), F(0)] and m[2] == [F(0), F(0)]


def test_rank_and_det():
    assert rank(fm([[1, 2], [2, 4]])) == 1
    assert det(fm([[1, 2], [3, 4]])) == F(-2)
    assert det(fm([[2, 0], [0, 3]])) == F(6)


def test_inverse_round_trip():
    m = fm([[2, 1], [1, 1]])
    inv = inverse(m)
    assert matmul(m, inv) == fm([[1, 0], [0, 1]])


def test_nullspace_orthogonal_to_rows():
    m = fm([[1, 2, 3], [2, 4, 6]])
    basis = nullspace(m, 3)
    assert len(basis) == 2
    for v in basis:
        assert all(
            sum(row[i] * v[i] for i in range(3)) == 0 for row in m
        )


def test_matvec():
    assert matvec(fm([[1, 2], [3, 4]]), [F(1), F(1)]) == [F(3), F(7)]


# -- the normal-form kernel against a Fraction-only reference -----------


def fraction_rref(m):
    """The canonical RREF computed in Fractions throughout: (rows, pivots)."""
    work = [[F(x) for x in row] for row in m]
    n_cols = len(work[0]) if work else 0
    pivots = []
    for c in range(n_cols):
        r = next((r for r in range(len(pivots), len(work)) if work[r][c]), None)
        if r is None:
            continue
        p = len(pivots)
        work[p], work[r] = work[r], work[p]
        work[p] = [x / work[p][c] for x in work[p]]
        for i in range(len(work)):
            if i != p and work[i][c]:
                f = work[i][c]
                work[i] = [x - f * y for x, y in zip(work[i], work[p])]
        pivots.append(c)
    return work[: len(pivots)], pivots


def fraction_nullspace(m):
    rows, pivots = fraction_rref(m)
    n_cols = len(m[0])
    basis = []
    for f in (c for c in range(n_cols) if c not in pivots):
        v = [F(0)] * n_cols
        v[f] = F(1)
        for row, p in zip(rows, pivots):
            v[p] = -row[f]
        basis.append(v)
    return fraction_rref(basis)[0] if basis else []


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
    rows, pivots = rref(m)
    ref_rows, ref_pivots = fraction_rref(m)
    assert pivots == ref_pivots
    assert rows == ref_rows
    assert all(is_normal(x) for row in rows for x in row)
    null = nullspace(m)
    assert null == fraction_nullspace(m)
    assert all(is_normal(x) for row in null for x in row)
    work = [list(row) for row in m]
    assert rref_in_place(work) == ref_pivots
    assert all(is_normal(x) for row in work for x in row)


def test_exact_normal_form():
    assert type(exact(F(4, 2))) is int and exact(F(4, 2)) == 2
    assert exact(F(1, 2)) == F(1, 2) and type(exact(F(1, 2))) is Fraction
    assert exact(-3) == -3
