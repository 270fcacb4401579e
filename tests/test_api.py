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
    """Importing the package and its CLI loads no quadrature code."""
    probe = "import sys, gkf, gkf.cli; print('scipy.integrate' in sys.modules)"
    result = subprocess.run(
        [sys.executable, "-c", probe], capture_output=True, text=True, check=True,
        env={**os.environ, "PYTHONPATH": str(PACKAGE.parent)},
    )
    assert result.stdout.strip() == "False"


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
    graph is visible; none is needed to break an import cycle."""
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
