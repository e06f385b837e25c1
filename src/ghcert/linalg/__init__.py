"""Exact rational linear algebra.

``KERNEL`` names the row-reduction kernel that ``ghcert.linalg.matrix``
selected at import time; ``GHCERT_PURE_PYTHON=1`` forces the pure-Python
fallback (used by the benchmark and by the kernel-parity tests).
"""

from ghcert.linalg.matrix import (
    KERNEL,
    rref_in_place,
    frac,
    fracvec,
    fracmat,
    rref,
    rank,
    nullspace,
    matmul,
    matvec,
    identity,
    transpose,
    inverse,
    det,
    solve,
    row_space_contains,
    intersect_row_spaces,
)

__all__ = [
    "KERNEL",
    "rref_in_place",
    "frac",
    "fracvec",
    "fracmat",
    "rref",
    "rank",
    "nullspace",
    "matmul",
    "matvec",
    "identity",
    "transpose",
    "inverse",
    "det",
    "solve",
    "row_space_contains",
    "intersect_row_spaces",
]
