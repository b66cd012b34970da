"""Layout rules for the package source: no name that nothing reaches."""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SOURCES = sorted((ROOT / "src" / "chamberwalk").glob("*.py"))
READERS = SOURCES + sorted((ROOT / "bench").glob("*.py"))

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
    class and method of one module."""
    out = []
    for node in ast.parse(path.read_text()).body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            out.append((f"{path.stem}.{node.name}", node.lineno, node.end_lineno))
        if isinstance(node, ast.ClassDef):
            out.extend((f"{path.stem}.{node.name}.{sub.name}", sub.lineno, sub.end_lineno)
                       for sub in node.body if isinstance(sub, ast.FunctionDef))
    return out


def _references(path):
    """(line, identifier, bare) of every name, attribute, import and dotted
    string constant (as bench/tracing.py names its targets) in one file.
    bare marks a plain name or an import: a local variable or a function
    of the same name, which reaches no class member."""
    out = []
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Name):
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
