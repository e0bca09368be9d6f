"""Every name a `qwh` module imports is read somewhere in its scope."""

import ast
import pathlib
import re

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
REFERENCE_DIRS = [SRC, ROOT / "tests", ROOT / "perfbench"]
#: left out of every reference scan: its own reads (`ast.walk`, `ast.parse`)
#: would credit any definition of the same name
THIS_FILE = pathlib.Path(__file__).resolve()


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


def _reference_nodes(dirs=REFERENCE_DIRS):
    """Every AST node of every file in `dirs` but this one."""
    for d in dirs:
        for path in d.rglob("*.py"):
            if path.resolve() != THIS_FILE:
                yield from ast.walk(ast.parse(path.read_text(), filename=str(path)))


def _referenced_names(dirs):
    """Every name read as a `Name`, an `Attribute` or an import alias."""
    names = set()
    for n in _reference_nodes(dirs):
        if isinstance(n, ast.Name):
            names.add(n.id)
        elif isinstance(n, ast.Attribute):
            names.add(n.attr)
        elif isinstance(n, ast.alias):
            names.add(n.name.split(".")[-1])
    return names


def unreferenced_definitions(src, dirs):
    """Definitions in the modules of `src` whose (last) name nothing in
    `dirs` reads.  A method is credited by any read of its bare name."""
    referenced = _referenced_names(dirs)
    return [
        f"{path.name}:{line}: {name}"
        for path in sorted(src.glob("*.py"))
        for name, line in _definitions(ast.parse(path.read_text(), filename=str(path)))
        if name.split(".")[-1] not in referenced
    ]


def test_no_unreferenced_definitions():
    assert unreferenced_definitions(SRC, REFERENCE_DIRS) == []


def test_a_name_only_this_file_reads_is_unreferenced(tmp_path):
    # this file reads `walk` (as `ast.walk`), and that read credits nothing
    (tmp_path / "tree.py").write_text("class Tree:\n    def walk(self):\n        pass\n")
    (tmp_path / "use.py").write_text("from tree import Tree\n\nTree()\n")
    dirs = [tmp_path, THIS_FILE.parent]
    assert unreferenced_definitions(tmp_path, dirs) == ["tree.py:2: Tree.walk"]


def _is_dataclass(node):
    decorators = [d.func if isinstance(d, ast.Call) else d for d in node.decorator_list]
    return any(isinstance(d, ast.Name) and d.id == "dataclass" for d in decorators)


def _signatures(tree):
    """(callee name, parameters) of each top-level function, of each method
    of a top-level class (a class's `__init__` is called by the class name)
    and of each top-level dataclass, whose fields are its `__init__`
    parameters.  A parameter is (name, positional index or None, default
    node or None, line); a method's index skips `self`/`cls` unless it is
    a staticmethod."""
    out = []
    for node in tree.body:
        if isinstance(node, ast.ClassDef):
            defs = [
                (node.name if m.name == "__init__" else m.name, m)
                for m in node.body
                if isinstance(m, (ast.FunctionDef, ast.AsyncFunctionDef))
            ]
            if _is_dataclass(node):
                fields = [
                    f
                    for f in node.body
                    if isinstance(f, ast.AnnAssign)
                    and not (
                        isinstance(f.value, ast.Call)
                        and any(k.arg == "init" for k in f.value.keywords)
                    )
                ]
                out.append(
                    (node.name, [
                        (f.target.id, i, f.value, f.lineno) for i, f in enumerate(fields)
                    ])
                )
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
            defaults = [None] * (len(positional) - len(a.defaults)) + a.defaults
            params = [
                (p.arg, i - skip, d, p.lineno)
                for i, (p, d) in enumerate(zip(positional, defaults))
                if i >= skip
            ]
            params += [(p.arg, None, d, p.lineno) for p, d in zip(a.kwonlyargs, a.kw_defaults)]
            out.append((callee, params))
    return out


def _calls(dirs=REFERENCE_DIRS):
    """(callee last name, call node) of each call in `dirs`."""
    for n in _reference_nodes(dirs):
        if isinstance(n, ast.Call):
            f = n.func
            name = f.id if isinstance(f, ast.Name) else getattr(f, "attr", None)
            if name is not None:
                yield name, n


def _set_parameters():
    """(callee last name, keyword or positional index) set at some call; a
    call with `*` or `**` sets everything (index "*")."""
    seen = set()
    for name, n in _calls():
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
        for callee, params in _signatures(ast.parse(path.read_text(), filename=str(path)))
        for param, index, default, line in params
        if default is not None
        and not {(callee, "*"), (callee, param), (callee, index)} & seen
    ]
    assert unset == []


def _literal(node):
    """The repr of a literal expression, or None for any other."""
    try:
        return repr(ast.literal_eval(node))
    except (ValueError, TypeError, SyntaxError):
        return None


def _passed(call, param, index, default):
    """The literal a call passes for a parameter (its default when the call
    omits it), or None when the value is not a literal or not known."""
    if any(isinstance(a, ast.Starred) for a in call.args) or any(
        k.arg is None for k in call.keywords
    ):
        return None
    for k in call.keywords:
        if k.arg == param:
            return _literal(k.value)
    if index is not None and index < len(call.args):
        return _literal(call.args[index])
    return None if default is None else _literal(default)


def test_no_argument_is_the_same_literal_at_every_call():
    # a value every call passes is a constant dressed as a parameter
    calls = {}
    for name, call in _calls():
        calls.setdefault(name, []).append(call)
    constant = [
        f"{path.name}:{line}: {callee}({param}) is always {values.pop()}"
        for path in sorted(SRC.glob("*.py"))
        for callee, params in _signatures(ast.parse(path.read_text(), filename=str(path)))
        if callee in calls
        for param, index, default, line in params
        for values in [{_passed(c, param, index, default) for c in calls[callee]}]
        if len(values) == 1 and None not in values
    ]
    assert constant == []


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


def _python_floor():
    """(major, minor) of the `requires-python = ">=X.Y"` in pyproject.toml."""
    text = (ROOT / "pyproject.toml").read_text()
    m = re.search(r'^requires-python\s*=\s*">=(\d+)\.(\d+)"', text, re.M)
    return int(m.group(1)), int(m.group(2))


def test_every_file_parses_at_the_declared_python_floor():
    """Every .py file under src/, tests/ and perfbench/ parses in the grammar
    of the oldest Python that pyproject.toml admits.  This checks syntax
    only, not whether the library APIs a file calls exist there."""
    floor = _python_floor()
    too_new = []
    for d in (ROOT / "src", ROOT / "tests", ROOT / "perfbench"):
        for path in sorted(d.rglob("*.py")):
            try:
                ast.parse(path.read_text(), filename=str(path), feature_version=floor)
            except SyntaxError as exc:
                too_new.append(f"{path.relative_to(ROOT)}:{exc.lineno}: {exc.msg}")
    assert too_new == []
    with pytest.raises(SyntaxError):  # the guard does see newer grammar
        ast.parse("try:\n    pass\nexcept* ValueError:\n    pass\n", feature_version=floor)
