import random
from fractions import Fraction

import pytest

from ghcert.linalg import (
    _rref_py,
    det,
    inverse,
    matmul,
    matvec,
    nullspace,
    rank,
    rref,
    solve,
)

try:
    from ghcert.linalg import _rref_cy
except ImportError:
    _rref_cy = None

F = Fraction


def fm(rows):
    return [[F(x) for x in r] for r in rows]


def test_rref_identity():
    m = fm([[1, 0], [0, 1]])
    rows, pivots = rref(m)
    assert rows == [[1, 0], [0, 1]]
    assert pivots == [0, 1]


def test_rref_canonical_form():
    m = fm([[2, 4, 6], [1, 2, 4]])
    rows, pivots = rref(m)
    assert pivots == [0, 2]
    assert rows == [[F(1), F(2), F(0)], [F(0), F(0), F(1)]]


def test_rref_zero_rows_sink():
    m = fm([[0, 0], [1, 2], [2, 4]])
    pivots = _rref_py.rref_in_place(m)
    assert pivots == [0]
    assert m[1] == [F(0), F(0)] and m[2] == [F(0), F(0)]


def test_rank_and_det():
    assert rank(fm([[1, 2], [2, 4]])) == 1
    assert det(fm([[1, 2], [3, 4]])) == F(-2)
    assert det(fm([[2, 0], [0, 3]])) == F(6)


def test_inverse_round_trip():
    m = fm([[2, 1], [1, 1]])
    inv = inverse(m)
    assert matmul(m, inv) == fm([[1, 0], [0, 1]])


def test_nullspace_orthogonal_to_rows():
    m = fm([[1, 2, 3], [2, 4, 6]])
    basis = nullspace(m, 3)
    assert len(basis) == 2
    for v in basis:
        assert all(
            sum(row[i] * v[i] for i in range(3)) == 0 for row in m
        )


def test_solve_consistent_and_inconsistent():
    m = fm([[1, 1], [0, 1]])
    assert solve(m, [F(3), F(1)]) == [F(2), F(1)]
    assert solve(fm([[1, 1], [2, 2]]), [F(1), F(3)]) is None


def test_matvec():
    assert matvec(fm([[1, 2], [3, 4]]), [F(1), F(1)]) == [F(3), F(7)]


@pytest.mark.skipif(_rref_cy is None, reason="compiled kernel not built")
def test_kernel_parity_random():
    rng = random.Random(7)
    for _ in range(200):
        rows = rng.randint(1, 8)
        cols = rng.randint(1, 8)
        m = [
            [F(rng.randint(-5, 5), rng.randint(1, 5)) for _ in range(cols)]
            for _ in range(rows)
        ]
        if rows > 1 and rng.random() < 0.4:
            m[rng.randrange(rows)] = [3 * x for x in m[rng.randrange(rows)]]
        a = [r[:] for r in m]
        b = [r[:] for r in m]
        assert _rref_py.rref_in_place(a) == _rref_cy.rref_in_place(b)
        assert a == b


def test_env_var_forces_pure_python():
    import os
    import subprocess
    import sys
    from pathlib import Path

    import ghcert.linalg

    # The child must import the same checkout as this process, whether the
    # package is installed or reached through PYTHONPATH.  ``ghcert`` is a
    # namespace package without ``__file__``, so locate it via the subpackage.
    root = str(Path(ghcert.linalg.__file__).resolve().parents[2])
    env = dict(os.environ, GHCERT_PURE_PYTHON="1")
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (root, os.environ.get("PYTHONPATH")) if p
    )
    # Check the ``KERNEL`` label and the ``rref_in_place`` that
    # ``matrix.rref`` and friends call.
    code = (
        "import ghcert.linalg as l, ghcert.linalg.matrix as m, "
        "ghcert.linalg._rref_py as p; "
        "print(l.KERNEL); print(m.rref_in_place is p.rref_in_place)"
    )
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True
    )
    assert out.returncode == 0, out.stderr
    assert out.stdout.split() == ["python", "True"], out.stderr
