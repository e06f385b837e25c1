from fractions import Fraction

from ghcert.linalg import (
    det,
    inverse,
    matmul,
    matvec,
    nullspace,
    rank,
    rref,
    rref_in_place,
)

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
