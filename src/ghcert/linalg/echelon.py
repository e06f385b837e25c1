"""Fraction-free row reduction of sparse integer vectors (after Bareiss,
Math. Comp. 22, 1968): the one elimination behind the rank, the canonical
RREF and the nullspace of exact rational rows.

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
    other row.  A row records (combination, den): den * row equals the
    integer combination {ident: coefficient} of inserted vectors, modulo
    the span of those inserted without an ident."""

    def __init__(self):
        self.rows = {}  # leading key -> (row, combination, den)

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
        """(p, q, remainder, combination) with p * vec = q * remainder +
        combination, modulo the untracked span, and p > 0; the remainder is
        empty iff vec lies in the span of the rows.  Each step cancels the
        remainder's least key against the row led there (`cancel`)."""
        cur = dict(vec)
        comb = {}
        p = q = 1
        rows = self.rows
        while cur:
            lead = min(cur)
            hit = rows.get(lead)
            if hit is None:
                break
            row, row_comb, den = hit
            u, a, c = cancel(cur, lead, row)
            # u * old = c * cur + a * row and den * row = row_comb, so
            # (u den p) vec = (den q c) cur + (q a) row_comb + (u den) comb;
            # an untracked row lies in the untracked span, so den drops out
            if not row_comb:
                den = 1
            scale = u * den
            if scale != 1:
                for k in comb:
                    comb[k] *= scale
                p *= scale
            if row_comb:
                axpy(comb, q * a, row_comb)
            q *= den * c
            if scale != 1 or c != 1:
                g = math.gcd(p, q, *comb.values())
                if g != 1:
                    p, q = p // g, q // g
                    comb = {k: x // g for k, x in comb.items()}
        return p, q, cur, comb

    def insert(self, vec, ident=None):
        """Add vec as a row unless the rows span it; True iff it was added."""
        return self._add(self.reduce(vec), ident)

    def _add(self, reduced, ident):
        """Add the remainder of a reduction (`reduce`) as a row, unless it is
        empty; True iff it was added."""
        p, q, rem, comb = reduced
        if not rem:
            return False
        lead = min(rem)
        c = math.gcd(*rem.values())
        if rem[lead] < 0:
            c = -c
        if c != 1:
            rem = {k: x // c for k, x in rem.items()}
        # (q c) row = p vec - comb
        comb = {k: -x for k, x in comb.items()}
        if ident is not None:
            comb[ident] = p
        den = q * c
        if comb:
            g = math.gcd(den, *comb.values())
            if den < 0:
                g = -g
            den //= g
            comb = {k: x // g for k, x in comb.items()}
        else:
            den = 1
        self.rows[lead] = (rem, comb, den)
        return True

    def coords(self, vec, ident=None):
        """The combination of tracked vectors that vec equals modulo the
        untracked span, {ident: int, or Fraction where not integral}; None
        when vec is not in the span of the rows, and then, given an ident,
        vec is added as a row tracked by it, from the same reduction."""
        reduced = self.reduce(vec)
        p, _, rem, comb = reduced
        if rem:
            if ident is not None:
                self._add(reduced, ident)
            return None
        return comb if p == 1 else divided(comb, p)

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
            cur = dict(self.rows[lead][0])
            for q in [q for q in cur if q in cleared]:
                cancel(cur, q, cleared[q])
            cleared[lead] = dict(sorted(cur.items()))
        return {p: divided(row, row[p]) for p, row in sorted(cleared.items())}


def cancel(cur, key, row):
    """Clear cur's entry a at key with row's entry b there, fraction-free:
    subtract (a/b) * row when b divides a, and otherwise cross-multiply,
    (b/g) * cur - (a/g) * row with g = gcd(a, b), and divide out the
    content c.  Returns (u, m, c) with u * old cur = c * cur + m * row."""
    a, b = cur[key], row[key]
    if a % b == 0:
        axpy(cur, -(a // b), row)
        return 1, a // b, 1
    g = math.gcd(a, b)
    u, a = b // g, a // g
    for k in cur:
        cur[k] *= u
    axpy(cur, -a, row)
    c = math.gcd(*cur.values()) or 1
    if c > 1:
        for k in cur:
            cur[k] //= c
    return u, a, c


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


def rank(m) -> int:
    """The rank of the rows of m, each a list or a sparse dict of exact
    rationals."""
    return len(Echelon.from_rows(m).rows)
