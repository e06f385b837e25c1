"""Invariants raise typed errors, never a bare `assert`, so that they still
fire under `python -O`."""

import ast
from pathlib import Path

import ghcert.certify

SRC = Path(ghcert.certify.__file__).resolve().parent


def test_no_bare_assert_in_package():
    modules = sorted(SRC.rglob("*.py"))
    assert len(modules) > 10
    found = [
        f"{path.relative_to(SRC.parent)}:{node.lineno}"
        for path in modules
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert not found, found
