"""Invariants raise typed errors, never a bare `assert`, so that they still
fire under `python -O`; and every exception the package raises by name is
one of its own, which the CLI maps to an exit code."""

import ast
import builtins
import importlib
from pathlib import Path

import ghcert.certify
from ghcert.errors import GhcError

SRC = Path(ghcert.certify.__file__).resolve().parent

# perfbench's tracer wraps `oracle.build_complex` by name; the stub raises
ALLOWED = {("ghcert/oracle.py", "build_complex", "NotImplementedError")}


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


def _named_raises(tree):
    """(innermost enclosing function, exception name, line) of each
    `raise Name` or `raise Name(...)` in a module's syntax tree."""
    out = []

    def visit(node, func):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(child, child.name)
                continue
            if isinstance(child, ast.Raise):
                exc = child.exc.func if isinstance(child.exc, ast.Call) else child.exc
                if isinstance(exc, ast.Name):
                    out.append((func, exc.id, child.lineno))
            visit(child, func)

    visit(tree, None)
    return out


def test_every_named_raise_is_a_package_error():
    """A raised class is a `GhcError` subclass; a name that is no class (a
    local exception, or a helper that builds one) is left to its callers."""
    modules = sorted(SRC.rglob("*.py"))
    checked, found = 0, set()
    for path in modules:
        rel = path.relative_to(SRC.parent).as_posix()
        module = importlib.import_module(rel[:-3].replace("/", ".").removesuffix(".__init__"))
        for func, name, line in _named_raises(ast.parse(path.read_text(), filename=str(path))):
            cls = vars(module).get(name, getattr(builtins, name, None))
            if not isinstance(cls, type):
                continue
            checked += 1
            if not issubclass(cls, GhcError) and (rel, func, name) not in ALLOWED:
                found.add(f"{rel}:{line} raises {name}")
    assert checked > 50
    assert not found, sorted(found)
