"""Weight functionals.

A weight is a linear functional recorded by its values on a fixed basis of
the relevant subalgebra:

* context "g": values on the standard simple coroots h_1..h_l of the full
  algebra (fundamental coordinates);
* context "t": values on the user-supplied basis of the torus t.

Coordinates are kept in exact normal form (`ghcert.linalg.exact`): an int
when integral, otherwise a Fraction; a float is refused.
"""

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
