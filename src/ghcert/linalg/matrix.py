"""The canonical RREF of a dense matrix in place, for callers that keep
lists of lists of exact rationals.  The canonical RREF is part of the
package's reproducibility contract.
"""

from ghcert.linalg.echelon import Echelon


def rref_in_place(m):
    """Reduce `m` (list of lists of exact rationals) in place to its
    canonical RREF, read off one `Echelon` in normal form; zero rows sink
    to the bottom.  Returns the pivot columns."""
    n_cols = len(m[0]) if m else 0
    canon = Echelon.from_rows(m).canonical_rows()
    for i, row in enumerate(canon.values()):
        m[i] = [row.get(c, 0) for c in range(n_cols)]
    for i in range(len(canon), len(m)):
        m[i] = [0] * n_cols
    return list(canon)
