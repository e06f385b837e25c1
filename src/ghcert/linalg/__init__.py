"""Exact rational linear algebra."""

from ghcert.linalg.matrix import (
    rref_in_place,
    rref,
    rank,
    nullspace,
    matmul,
    matvec,
    identity,
    transpose,
    inverse,
    det,
    row_space_contains,
    intersect_row_spaces,
)

__all__ = [
    "rref_in_place",
    "rref",
    "rank",
    "nullspace",
    "matmul",
    "matvec",
    "identity",
    "transpose",
    "inverse",
    "det",
    "row_space_contains",
    "intersect_row_spaces",
]
