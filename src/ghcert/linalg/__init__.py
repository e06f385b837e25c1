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
]
