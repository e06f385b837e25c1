"""Weight functionals and weight multisets.

A weight is a linear functional recorded by its values on a fixed basis of
the relevant subalgebra:

* context "g": values on the standard simple coroots h_1..h_l of the full
  algebra (fundamental coordinates);
* context "t": values on the user-supplied basis of the torus t.

Coordinates are kept in exact normal form (`ghcert.linalg.exact`): an int
when integral, otherwise a Fraction; a float is refused.
"""

from fractions import Fraction

from ghcert.errors import ContextMismatch
from ghcert.linalg import exact


class Weight:
    __slots__ = ("context", "coords")

    def __init__(self, context: str, coords):
        self.context = context
        self.coords = tuple(exact(x) for x in coords)

    def __eq__(self, other):
        if type(other) is not Weight:
            return NotImplemented
        return self.context == other.context and self.coords == other.coords

    def __repr__(self):
        return f"Weight({self.context!r}, {self.coords!r})"

    def __add__(self, other):
        if self.context != other.context or len(self.coords) != len(other.coords):
            raise ContextMismatch(f"cannot add {self} and {other}")
        return Weight(self.context, tuple(a + b for a, b in zip(self.coords, other.coords)))

    def __sub__(self, other):
        return self + (-other)

    def __neg__(self):
        return Weight(self.context, tuple(-a for a in self.coords))

    def scale(self, k):
        k = exact(k)
        return Weight(self.context, tuple(k * a for a in self.coords))


def zero_weight(context, dim):
    return Weight(context, (0,) * dim)


class WeightMultiset:
    """Map coords-tuple -> positive multiplicity, with one shared context."""

    def __init__(self, context, entries=None):
        self.context = context
        self.entries = {}
        if entries:
            for coords, mult in dict(entries).items():
                self.add(coords, mult)

    def add(self, coords, mult=1):
        if mult <= 0:
            raise ValueError("multiplicities must be positive")
        coords = tuple(exact(x) for x in coords)
        self.entries[coords] = self.entries.get(coords, 0) + mult

    def total(self) -> int:
        return sum(self.entries.values())

    def items(self):
        return sorted(self.entries.items())

    def half_sum(self, dim=None) -> Weight:
        if not self.entries:
            if dim is None:
                raise ValueError("empty multiset needs explicit dimension")
            return zero_weight(self.context, dim)
        n = len(next(iter(self.entries)))
        acc = [0] * n
        for coords, mult in self.entries.items():
            for i, x in enumerate(coords):
                acc[i] += mult * x
        return Weight(self.context, tuple(Fraction(x, 2) for x in acc))

    def __eq__(self, other):
        return (
            isinstance(other, WeightMultiset)
            and self.context == other.context
            and self.entries == other.entries
        )

    def __repr__(self):
        return f"WeightMultiset({self.context}, {self.items()})"
