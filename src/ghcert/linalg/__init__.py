"""Exact rational linear algebra."""

from ghcert.linalg.echelon import Echelon, axpy, exact, integral, primitive, rank
from ghcert.linalg.matrix import rref_in_place

__all__ = ["Echelon", "axpy", "integral", "primitive", "rank", "exact", "rref_in_place"]
