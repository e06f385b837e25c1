"""Dense exact matrix operations: the canonical RREF and the nullspace, on
the Gauss-Jordan kernel ``rref_in_place``.  Ranks run on the fraction-free
`ghcert.linalg.echelon.Echelon` instead.

Matrices are plain lists of lists of exact rationals; vectors are lists of
them.  An exact rational is kept in one normal form (`exact`): an int when
it is integral, a Fraction only when its denominator exceeds 1, never a
float.  All functions except ``rref_in_place`` are pure (inputs are copied
before reduction).  The canonical RREF is part of the package's
reproducibility contract.
"""

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


def rref_in_place(m):
    """Reduce `m` (list of lists of exact rationals) to reduced row echelon
    form, its entries left in normal form.

    Returns the list of pivot column indices.  Rows of zeros sink to the
    bottom.  Deterministic: always picks the first nonzero entry in the
    current column as pivot.
    """
    n_rows = len(m)
    n_cols = len(m[0]) if n_rows else 0
    pivots = []
    piv_r = 0
    for piv_c in range(n_cols):
        i_row = -1
        for r in range(piv_r, n_rows):
            if m[r][piv_c] != 0:
                i_row = r
                break
        if i_row < 0:
            continue
        if i_row != piv_r:
            m[piv_r], m[i_row] = m[i_row], m[piv_r]
        fp = m[piv_r][piv_c]
        if fp != 1:
            inv = 1 / Fraction(fp)
            row = m[piv_r]
            for c in range(piv_c, n_cols):
                if row[c]:
                    row[c] = exact(row[c] * inv)
        prow = m[piv_r]
        for r in range(n_rows):
            if r == piv_r:
                continue
            fr = m[r][piv_c]
            if fr == 0:
                continue
            row = m[r]
            for c in range(piv_c, n_cols):
                if prow[c]:
                    row[c] -= prow[c] * fr
        pivots.append(piv_c)
        piv_r += 1
        if piv_r == n_rows:
            break
    for row in m:
        for c, x in enumerate(row):
            if type(x) is not int:
                row[c] = exact(x)
    return pivots


def rref(m):
    """Canonical RREF of `m`: returns (nonzero rows, pivot columns)."""
    work = [list(row) for row in m]
    pivots = rref_in_place(work)
    return work[: len(pivots)], pivots


def identity(n):
    return [[int(i == j) for j in range(n)] for i in range(n)]


def matvec(m, v):
    return [sum(x * y for x, y in zip(row, v)) for row in m]


def nullspace(m, n_cols=None):
    """Basis (as canonical RREF rows) of {x : m @ x = 0}."""
    if not m:
        if n_cols is None:
            return []
        return identity(n_cols)
    n_cols = len(m[0])
    red, pivots = rref(m)
    free = [c for c in range(n_cols) if c not in pivots]
    basis = []
    for f in free:
        v = [0] * n_cols
        v[f] = 1
        for r, p in enumerate(pivots):
            v[p] = -red[r][f]
        basis.append(v)
    red_basis, _ = rref(basis)
    return red_basis


def inverse(m):
    n = len(m)
    aug = [list(row) + ident_row for row, ident_row in zip(m, identity(n))]
    red, pivots = rref(aug)
    if pivots[:n] != list(range(n)):
        raise ZeroDivisionError("matrix is singular")
    return [row[n:] for row in red]
