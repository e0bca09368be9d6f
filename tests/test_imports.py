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


ROOT = SRC.parent.parent
REFERENCE_DIRS = [SRC, ROOT / "tests", ROOT / "scripts", ROOT / "perfbench"]


def _definitions(tree):
    """(name, line) of each undecorated top-level function and class and of
    each undecorated non-dunder method of a top-level class."""
    out = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            if not node.decorator_list:
                out.append((node.name, node.lineno))
            if isinstance(node, ast.ClassDef):
                out += [
                    (f"{node.name}.{m.name}", m.lineno)
                    for m in node.body
                    if isinstance(m, (ast.FunctionDef, ast.AsyncFunctionDef))
                    and not m.decorator_list
                    and not (m.name.startswith("__") and m.name.endswith("__"))
                ]
    return out


def _reference_nodes():
    """Every AST node of every file in `REFERENCE_DIRS`."""
    for d in REFERENCE_DIRS:
        for path in d.rglob("*.py"):
            yield from ast.walk(ast.parse(path.read_text(), filename=str(path)))


def _referenced_names():
    """Every name read as a `Name`, an `Attribute` or an import alias."""
    names = set()
    for n in _reference_nodes():
        if isinstance(n, ast.Name):
            names.add(n.id)
        elif isinstance(n, ast.Attribute):
            names.add(n.attr)
        elif isinstance(n, ast.alias):
            names.add(n.name.split(".")[-1])
    return names


def test_no_unreferenced_definitions():
    referenced = _referenced_names()
    unreferenced = [
        f"{path.name}:{line}: {name}"
        for path in sorted(SRC.glob("*.py"))
        for name, line in _definitions(ast.parse(path.read_text(), filename=str(path)))
        if name.split(".")[-1] not in referenced
    ]
    assert unreferenced == []


def _defaulted_parameters(tree):
    """(callee name, parameter, positional index or None, line) of each
    defaulted parameter of a top-level function or of a method of a
    top-level class.  A method's index skips `self`/`cls` unless it is a
    staticmethod; a class's `__init__` is called by the class name."""
    out = []
    for node in tree.body:
        if isinstance(node, ast.ClassDef):
            defs = [
                (node.name if m.name == "__init__" else m.name, m)
                for m in node.body
                if isinstance(m, (ast.FunctionDef, ast.AsyncFunctionDef))
            ]
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            defs = [(node.name, node)]
        else:
            continue
        for callee, fn in defs:
            a = fn.args
            positional = a.posonlyargs + a.args
            bound = node is not fn and not any(
                isinstance(d, ast.Name) and d.id == "staticmethod" for d in fn.decorator_list
            )
            skip = 1 if bound else 0
            first = len(positional) - len(a.defaults)
            out += [
                (callee, p.arg, i - skip, p.lineno)
                for i, p in enumerate(positional)
                if i >= first
            ]
            out += [
                (callee, p.arg, None, p.lineno)
                for p, d in zip(a.kwonlyargs, a.kw_defaults)
                if d is not None
            ]
    return out


def _set_parameters():
    """(callee last name, keyword or positional index) set at some call; a
    call with `*` or `**` sets everything (index "*")."""
    seen = set()
    for n in _reference_nodes():
        if not isinstance(n, ast.Call):
            continue
        f = n.func
        name = f.id if isinstance(f, ast.Name) else getattr(f, "attr", None)
        if name is None:
            continue
        if any(isinstance(a, ast.Starred) for a in n.args) or any(
            k.arg is None for k in n.keywords
        ):
            seen.add((name, "*"))
        seen.update((name, i) for i in range(len(n.args)))
        seen.update((name, k.arg) for k in n.keywords)
    return seen


def test_every_defaulted_parameter_is_set_by_some_call():
    # a default that no call overrides is a constant dressed as a parameter
    seen = _set_parameters()
    unset = [
        f"{path.name}:{line}: {callee}({param})"
        for path in sorted(SRC.glob("*.py"))
        for callee, param, index, line in _defaulted_parameters(
            ast.parse(path.read_text(), filename=str(path))
        )
        if not {(callee, "*"), (callee, param), (callee, index)} & seen
    ]
    assert unset == []


def _backend_leaks(path):
    """sympy imports and reads of an attribute named `f` (the scalar
    backend's value) in one module."""
    leaks = []
    for n in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(n, ast.Import):
            modules = [a.name for a in n.names]
        elif isinstance(n, ast.ImportFrom):
            modules = [n.module or ""]
        elif isinstance(n, ast.Attribute) and n.attr == "f":
            leaks.append(f"{path.name}:{n.lineno}: reads .f")
            continue
        else:
            continue
        leaks += [
            f"{path.name}:{n.lineno}: imports {m}"
            for m in modules
            if m == "sympy" or m.startswith("sympy.")
        ]
    return leaks


def test_scalar_backend_stays_inside_scalar_py():
    # the coefficient backend can change behind one module only if no
    # other module imports sympy or reads a Scalar's value directly
    leaks = [
        leak
        for path in MODULES
        if path.name != "scalar.py"
        for leak in _backend_leaks(path)
    ]
    assert leaks == []
    assert _backend_leaks(SRC / "scalar.py")  # the scan does see the backend
