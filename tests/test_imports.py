"""Every name a `qwh` module imports is read somewhere in its scope."""

import ast
import pathlib

import pytest

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "qwh"
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")


def _imported_names(body):
    """(bound name, line) of each import statement directly in `body` or
    nested in its control flow, not inside nested functions or classes."""
    out = []
    stack = list(body)
    while stack:
        node = stack.pop()
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            continue
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                out.append((name, node.lineno))
        else:
            stack.extend(ast.iter_child_nodes(node))
    return out


def _read_names(node):
    return {n.id for n in ast.walk(node) if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}


def unused_imports(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    scopes = [tree] + [
        n for n in ast.walk(tree) if isinstance(n, (ast.FunctionDef, ast.AsyncFunctionDef))
    ]
    unused = []
    for scope in scopes:
        read = _read_names(scope)
        unused += [
            f"{path.name}:{line}: {name}"
            for name, line in _imported_names(scope.body)
            if name not in read
        ]
    return unused


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path) == []
