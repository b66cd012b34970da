"""Layout rules for the package source and tests: no name that nothing
reaches, and no import that nothing uses."""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SOURCES = sorted((ROOT / "src" / "chamberwalk").glob("*.py"))
READERS = SOURCES + sorted((ROOT / "bench").glob("*.py"))
TESTS = sorted((ROOT / "tests").glob("*.py"))

# Names kept although only tests use them, each with the reason it stays.
ALLOWED = {
    "buildings.refines": "states the refinement order on cylinders Omega_x(y) "
                         "that the cylinder measure is additive over",
    "buildings.TreeBuilding.relabel": "the origin-fixing automorphisms under which "
                                      "tests check distance and the product measure",
    "coxeter.RootSystem.in_coroot_lattice": "W moves a coweight within its class modulo "
                                            "the coroots: vertex types are W-invariant",
    "coxeter.WeylElement.apply_root": "the root action of a Weyl element; tests check "
                                      "that W permutes the roots and keeps the form",
}

_DOTTED = re.compile(r"[A-Za-z_][A-Za-z0-9_]*(\.[A-Za-z_][A-Za-z0-9_]*)*")


def _definitions(path):
    """(qualified name, first line, last line) of every top-level function,
    class, method and assigned name of one module."""
    out = []
    for node in ast.parse(path.read_text()).body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            out.append((f"{path.stem}.{node.name}", node.lineno, node.end_lineno))
        if isinstance(node, ast.ClassDef):
            out.extend((f"{path.stem}.{node.name}.{sub.name}", sub.lineno, sub.end_lineno)
                       for sub in node.body if isinstance(sub, ast.FunctionDef))
        if isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            out.extend((f"{path.stem}.{name.id}", node.lineno, node.end_lineno)
                       for target in targets for name in ast.walk(target)
                       if isinstance(name, ast.Name))
    return out


def _references(path):
    """(line, identifier, bare) of every name read, attribute, import and
    dotted string constant (as bench/tracing.py names its targets) in one
    file.  bare marks a plain name or an import: a local variable or a
    function of the same name, which reaches no class member.  A name that
    is only assigned is not read."""
    out = []
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            out.append((node.lineno, node.id, True))
        elif isinstance(node, ast.Attribute):
            out.append((node.lineno, node.attr, False))
        elif isinstance(node, ast.ImportFrom):
            out.extend((node.lineno, alias.name, True) for alias in node.names)
        elif (isinstance(node, ast.Constant) and isinstance(node.value, str)
              and _DOTTED.fullmatch(node.value)):
            out.extend((node.lineno, part, False) for part in node.value.split("."))
    return out


def test_every_definition_is_reached_outside_itself():
    refs = {path: _references(path) for path in READERS}
    unreached = []
    for path in SOURCES:
        for qualname, first, last in _definitions(path):
            name = qualname.rsplit(".", 1)[1]
            member = qualname.count(".") == 2
            if name.startswith("__") and name.endswith("__") or qualname in ALLOWED:
                continue
            if not any(ident == name and not (member and bare)
                       and not (other == path and first <= line <= last)
                       for other, found in refs.items() for line, ident, bare in found):
                unreached.append(qualname)
    assert unreached == []


def test_the_allow_list_names_only_live_definitions():
    defined = {q for path in SOURCES for q, _, _ in _definitions(path)}
    assert set(ALLOWED) <= defined


def _unused_imports(path):
    """The names one module imports and never reads.  An ``import a.b``
    binds ``a``; ``from __future__`` imports are exempt."""
    tree = ast.parse(path.read_text())
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"{path.name}:{line} {name}" for name, line in imported.items() if name not in used]


def test_every_import_is_used():
    assert [name for path in SOURCES + TESTS for name in _unused_imports(path)] == []


def test_model_modules_import_no_network_layer():
    # coxeter and buildings are pure models: networks over them live elsewhere
    allowed = {"coxeter": {"errors"}, "buildings": {"coxeter", "errors"}}
    for stem, modules in allowed.items():
        tree = ast.parse((ROOT / "src" / "chamberwalk" / f"{stem}.py").read_text())
        imported = {node.module for node in ast.walk(tree)
                    if isinstance(node, ast.ImportFrom) and node.level}
        assert imported <= modules, stem
