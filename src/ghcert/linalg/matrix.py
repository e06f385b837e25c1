"""Dense exact matrix operations on lists of lists of exact rationals: the
canonical RREF, the nullspace and the inverse, each reduced on the
fraction-free `ghcert.linalg.echelon.Echelon`.  All functions except
``rref_in_place`` are pure.  The canonical RREF is part of the package's
reproducibility contract.
"""

from ghcert.linalg.echelon import Echelon


def rref_in_place(m):
    """Reduce `m` (list of lists of exact rationals) in place to its
    canonical RREF, read off one `Echelon` in normal form; zero rows sink
    to the bottom.  Returns the pivot columns.

    `rref`, `nullspace` and `inverse` reduce only here; the benchmark's
    tracer wraps this function by name, so it keeps its name and contract.
    """
    n_cols = len(m[0]) if m else 0
    canon = Echelon.from_rows(m).canonical_rows()
    for i, row in enumerate(canon.values()):
        m[i] = [row.get(c, 0) for c in range(n_cols)]
    for i in range(len(canon), len(m)):
        m[i] = [0] * n_cols
    return list(canon)


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
        return identity(n_cols or 0)
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
