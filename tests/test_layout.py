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
    "discretize.stopping_times": "the visit times tau_k that define the induced chain, "
                                 "with tau_0 = 0 for a start inside the subset",
    "discretize.LatticeMeasure.exponential_moment": "the finite exponential moment of a "
                                                    "discretized step law",
    "netwalk.harmonic_defect": "P-harmonicity, whose bounded solutions the Poisson "
                               "boundary represents; tests check hitting rows with it",
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
    """(line, identifier) of every name, attribute, import and dotted string
    constant (as bench/tracing.py names its targets) in one file."""
    out = []
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Name):
            out.append((node.lineno, node.id))
        elif isinstance(node, ast.Attribute):
            out.append((node.lineno, node.attr))
        elif isinstance(node, ast.ImportFrom):
            out.extend((node.lineno, alias.name) for alias in node.names)
        elif (isinstance(node, ast.Constant) and isinstance(node.value, str)
              and _DOTTED.fullmatch(node.value)):
            out.extend((node.lineno, part) for part in node.value.split("."))
    return out


def test_every_definition_is_reached_outside_itself():
    refs = {path: _references(path) for path in READERS}
    unreached = []
    for path in SOURCES:
        for qualname, first, last in _definitions(path):
            name = qualname.rsplit(".", 1)[1]
            if name.startswith("__") and name.endswith("__") or qualname in ALLOWED:
                continue
            if not any(ident == name and not (other == path and first <= line <= last)
                       for other, found in refs.items() for line, ident in found):
                unreached.append(qualname)
    assert unreached == []


def test_the_allow_list_names_only_live_definitions():
    defined = {q for path in SOURCES for q, _, _ in _definitions(path)}
    assert set(ALLOWED) <= defined
