"""Exact rational linear algebra."""

from ghcert.linalg.matrix import (
    exact,
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
)

__all__ = [
    "exact",
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
]
