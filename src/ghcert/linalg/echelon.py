"""Fraction-free row reduction of sparse integer vectors (after Bareiss,
Math. Comp. 22, 1968): the one elimination behind the rank and the
canonical RREF of exact rational rows.  It keeps rows only; a caller that
needs the combination behind a remainder appends identity marks to the
vectors it reduces and reads them off the remainder.

A sparse vector is a dict {key: value} holding the nonzero entries only.
An exact rational is kept in one normal form (`exact`): an int when it is
integral, a Fraction only when its denominator exceeds 1, never a float.
"""

import math
from fractions import Fraction

from ghcert.errors import InvariantViolation


def exact(x):
    """x in normal form: an int when integral, else a Fraction with
    denominator > 1.  Anything inexact (a float) raises InvariantViolation,
    so that it cannot pass for an exact value."""
    if type(x) is int:
        return x
    if isinstance(x, Fraction):
        return x.numerator if x.denominator == 1 else x
    raise InvariantViolation(f"{x!r} is not an exact rational")


class Echelon:
    """Echelon form of sparse integer vectors ({key: int}, nonzero entries
    only), grown one vector at a time without fractions.  Each row is a
    primitive integer vector, positive at its least key, which leads no
    other row."""

    def __init__(self):
        self.rows = {}  # leading key -> row

    @classmethod
    def from_rows(cls, m):
        """The echelon of rows of exact rationals, lists or sparse dicts,
        each scaled to integers (`integral`)."""
        ech = cls()
        for vec in map(integral, m):
            if vec:
                ech.insert(vec)
        return ech

    def reduce(self, vec):
        """The remainder of vec: a positive multiple of vec minus a
        combination of the rows, whose least key leads no row.  It is empty
        iff vec lies in the span of the rows.  Each step cancels the
        remainder's least key against the row led there (`cancel`)."""
        cur = dict(vec)
        rows = self.rows
        while cur:
            lead = min(cur)
            row = rows.get(lead)
            if row is None:
                break
            cancel(cur, lead, row)
        return cur

    def add(self, rem):
        """Add a remainder (`reduce`) as a row, divided by its content and
        made positive at its lead, unless it is empty; True iff it was
        added."""
        if not rem:
            return False
        lead = min(rem)
        c = math.gcd(*rem.values())
        if rem[lead] < 0:
            c = -c
        self.rows[lead] = {k: x // c for k, x in rem.items()} if c != 1 else rem
        return True

    def insert(self, vec):
        """Add vec as a row unless the rows span it; True iff it was added."""
        return self.add(self.reduce(vec))

    def canonical_rows(self):
        """{pivot: sparse row} of the reduced row echelon form of the span,
        in pivot order, each row in key order and in normal form.  The
        reduced form is unique, so it does not depend on insertion order.

        From the rightmost pivot leftwards, each row clears the pivot
        columns right of its own with the rows already cleared there
        (`cancel`); a cleared row meets no other pivot column, so one pass
        suffices.  Each row is then divided once by its leading entry."""
        cleared = {}
        for lead in sorted(self.rows, reverse=True):
            cur = dict(self.rows[lead])
            for q in [q for q in cur if q in cleared]:
                cancel(cur, q, cleared[q])
            cleared[lead] = dict(sorted(cur.items()))
        return {p: divided(row, row[p]) for p, row in sorted(cleared.items())}


def cancel(cur, key, row):
    """Clear cur's entry a at key with row's entry b > 0 there,
    fraction-free: subtract (a/b) * row when b divides a, and otherwise
    cross-multiply, (b/g) * cur - (a/g) * row with g = gcd(a, b), and divide
    out the content.  Either way cur ends as a positive multiple of itself
    minus a multiple of row."""
    a, b = cur[key], row[key]
    if a % b == 0:
        axpy(cur, -(a // b), row)
        return
    g = math.gcd(a, b)
    u, a = b // g, a // g
    for k in cur:
        cur[k] *= u
    axpy(cur, -a, row)
    c = math.gcd(*cur.values()) or 1
    if c > 1:
        for k in cur:
            cur[k] //= c


def divided(vec, d):
    """The sparse integer vector vec divided by the int d, in normal form."""
    return {k: x // d if x % d == 0 else Fraction(x, d) for k, x in vec.items()}


def axpy(y, a, x):
    """y += a * x on sparse vectors, keeping only nonzero entries; a != 0."""
    for k, v in x.items():
        t = y.get(k, 0) + a * v
        if t:
            y[k] = t
        else:
            del y[k]


def integral(row):
    """A row of exact rationals, a list or a sparse dict, as a sparse
    integer vector: its nonzero entries times the least common denominator."""
    vec = {}
    den = 1
    for k, x in row.items() if type(row) is dict else enumerate(row):
        if x:
            if type(x) is not int:
                x = exact(x)  # refuses a float
                den = math.lcm(den, x.denominator)
            vec[k] = x
    if den != 1:
        vec = {k: x.numerator * (den // x.denominator) for k, x in vec.items()}
    return vec


def primitive(row):
    """(p, sign) with row = sign * p times a positive rational, for a nonzero
    dense row of exact rationals: p is the primitive integer tuple on its
    line whose first nonzero entry is positive."""
    den = math.lcm(*(x.denominator for x in row))
    ints = [x.numerator * (den // x.denominator) for x in row]
    g = math.gcd(*ints)
    if next(x for x in ints if x) < 0:
        g = -g
    return tuple(x // g for x in ints), 1 if g > 0 else -1


def rank(m) -> int:
    """The rank of the rows of m, each a list or a sparse dict of exact
    rationals."""
    return len(Echelon.from_rows(m).rows)
