"""Exact rational linear algebra."""

from ghcert.linalg.echelon import Echelon, axpy, exact, integral, rank
from ghcert.linalg.matrix import rref_in_place

__all__ = ["Echelon", "axpy", "integral", "rank", "exact", "rref_in_place"]
