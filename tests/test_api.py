"""The package namespace: every exported name resolves, no two names are
aliases of one object, and no name defined in the package is dead."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import gkf

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "gkf"


def test_exported_names_resolve():
    for name in gkf.__all__:
        assert getattr(gkf, name) is not None, name


def test_no_aliases():
    owners = {}
    for name in gkf.__all__:
        owners.setdefault(id(getattr(gkf, name)), []).append(name)
    assert [names for names in owners.values() if len(names) > 1] == []


def test_import_leaves_out_scipy_integrate():
    """Importing the package and its CLI loads no quadrature code, no special
    functions and no process pool: each loads on its first use."""
    deferred = (
        "scipy.integrate", "scipy.special", "concurrent.futures.process",
        "multiprocessing",
    )
    probe = (
        "import sys, gkf, gkf.cli; "
        f"print(*[name for name in {deferred!r} if name in sys.modules])"
    )
    result = subprocess.run(
        [sys.executable, "-c", probe], capture_output=True, text=True, check=True,
        env={**os.environ, "PYTHONPATH": str(PACKAGE.parent)},
    )
    assert result.stdout.strip() == ""


def _is_dunder(name: str) -> bool:
    return name.startswith("__") and name.endswith("__")


def _definitions(tree: ast.Module):
    """(qualified name, name, class or None, is a classmethod/staticmethod)
    of every module-level function, class and constant, and every
    non-dunder method."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield node.name, node.name, None, False
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                if isinstance(target, ast.Name) and not _is_dunder(target.id):
                    yield target.id, target.id, None, False
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, ast.FunctionDef) and not _is_dunder(item.name):
                    on_class = any(
                        isinstance(d, ast.Name) and d.id in ("classmethod", "staticmethod")
                        for d in item.decorator_list
                    )
                    yield f"{node.name}.{item.name}", item.name, node.name, on_class


def _reads(files):
    """(names, attributes, (object, attribute) pairs) read by the files."""
    names, attributes, on_class = set(), set(), set()
    for path in files:
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                attributes.add(node.attr)
                if isinstance(node.value, ast.Name):
                    on_class.add((node.value.id, node.attr))
    return names, attributes, on_class


def test_every_definition_is_referenced():
    """A module-level name outside `gkf.__all__` counts as used when code in
    `src/gkf` or `perfbench` reads it; a name only tests read belongs in
    `tests/oracles.py`. An exported name or a method counts as used when
    code in `src/gkf`, `tests` or `perfbench` reads it. An import, a string
    in `__all__` or the definition itself does not count. A class-level
    constructor counts only when read off its class (`ValuationVector.from_coeffs`,
    `cls.from_coeffs`)."""
    package_files = sorted(PACKAGE.glob("*.py")) + sorted((ROOT / "perfbench").glob("*.py"))
    package_names, package_attributes, _ = _reads(package_files)
    names, attributes, on_class = _reads(package_files + sorted((ROOT / "tests").glob("*.py")))
    exported = set(gkf.__all__)
    dead = []
    for path in sorted(PACKAGE.glob("*.py")):
        for qualified, name, owner, class_level in _definitions(ast.parse(path.read_text())):
            if owner is None and name not in exported:
                used = name in package_names or name in package_attributes
            elif owner is None:
                used = name in names or name in attributes
            elif class_level:
                used = (owner, name) in on_class or ("cls", name) in on_class
            else:
                used = name in attributes
            if not used:
                dead.append(f"{path.stem}.{qualified}")
    assert dead == []


def _defaulted_parameters(tree: ast.Module):
    """(qualified name, called name, parameter, positional index or None)
    of every parameter with a default of every function and method; a
    method's index leaves out self or cls, and `__init__` is called by its
    class name."""
    scopes = [(tree, None)]
    while scopes:
        scope, owner = scopes.pop()
        for node in ast.iter_child_nodes(scope):
            if isinstance(node, ast.ClassDef):
                scopes.append((node, node.name))
            elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                scopes.append((node, None))
                args = node.args
                bound = owner is not None and not any(
                    isinstance(d, ast.Name) and d.id == "staticmethod"
                    for d in node.decorator_list
                )
                called = owner if node.name == "__init__" else node.name
                qualified = f"{owner}.{node.name}" if owner else node.name
                positional = args.posonlyargs + args.args
                for index in range(len(positional) - len(args.defaults), len(positional)):
                    yield qualified, called, positional[index].arg, index - bound
                for arg, default in zip(args.kwonlyargs, args.kw_defaults):
                    if default is not None:
                        yield qualified, called, arg.arg, None


def _calls(files) -> dict:
    """called name -> [(number of positional arguments, keyword names)] of
    every call in the files; a call that unpacks *args or **kwargs may pass
    any parameter."""
    calls = {}
    for path in files:
        for node in ast.walk(ast.parse(path.read_text())):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            name = getattr(func, "id", None) or getattr(func, "attr", None)
            unpacks = any(isinstance(a, ast.Starred) for a in node.args) or any(
                k.arg is None for k in node.keywords
            )
            keywords = {k.arg for k in node.keywords}
            calls.setdefault(name, []).append((len(node.args), keywords, unpacks))
    return calls


def test_every_default_is_overridden_outside_tests():
    """A parameter with a default that only tests set is an option no
    caller uses: some call in `src/gkf` or `perfbench` passes each one, by
    keyword or positionally past its index."""
    calls = _calls(sorted(PACKAGE.glob("*.py")) + sorted((ROOT / "perfbench").glob("*.py")))
    unused = []
    for path in sorted(PACKAGE.glob("*.py")):
        for qualified, called, parameter, index in _defaulted_parameters(
            ast.parse(path.read_text())
        ):
            if not any(
                parameter in keywords or unpacks or (index is not None and positional > index)
                for positional, keywords, unpacks in calls.get(called, [])
            ):
                unused.append(f"{path.stem}.{qualified}({parameter})")
    assert unused == []


def _unread_imports(path: Path) -> list[str]:
    """Names an import statement in the file binds and no code there reads;
    a name listed in the module's `__all__` counts as read."""
    tree = ast.parse(path.read_text())
    bound = {}
    read = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                bound[alias.asname or alias.name.partition(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                bound[alias.asname or alias.name] = node.lineno
        elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            read.add(node.id)
        elif isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            read.update(elt.value for elt in node.value.elts)
    return [
        f"{path.relative_to(ROOT)}:{line} {name}"
        for name, line in sorted(bound.items(), key=lambda item: item[1])
        if name not in read
    ]


def test_every_import_is_read():
    files = sorted(PACKAGE.glob("*.py"))
    files += sorted((ROOT / "tests").glob("*.py")) + sorted((ROOT / "perfbench").glob("*.py"))
    assert [entry for path in files for entry in _unread_imports(path)] == []


def test_no_import_inside_a_function():
    """Every import in the package sits at module top, where the import
    graph is visible; none is needed to break an import cycle.  A heavy
    submodule is deferred at module top too: `import scipy` there and call
    `scipy.special.x`, and the submodule loads on its first attribute
    access."""
    nested = set()
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                nested.update(
                    f"{path.relative_to(ROOT)}:{inner.lineno}"
                    for inner in ast.walk(node)
                    if isinstance(inner, (ast.Import, ast.ImportFrom))
                )
    assert sorted(nested) == []


def test_one_integer_rule():
    """`scalars._integer` alone decides what counts as an integer: no other
    isinstance call in the package names bool, np.integer or
    numbers.Integral.  (The exact-scalar dispatch on (int, Fraction) in
    `PiScalar` is a different question and stays.)"""
    banned = {"bool", "np.integer", "numpy.integer", "numbers.Integral", "Integral"}
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text())
        allowed = {
            id(node)
            for fn in ast.walk(tree)
            if isinstance(fn, ast.FunctionDef) and (path.stem, fn.name) == ("scalars", "_integer")
            for node in ast.walk(fn)
        }
        for node in ast.walk(tree):
            if (
                isinstance(node, ast.Call)
                and getattr(node.func, "id", None) == "isinstance"
                and len(node.args) == 2
                and id(node) not in allowed
            ):
                types = node.args[1]
                named = types.elts if isinstance(types, ast.Tuple) else [types]
                if banned & {ast.unparse(t) for t in named}:
                    found.append(f"{path.relative_to(ROOT)}:{node.lineno}")
    assert found == []
