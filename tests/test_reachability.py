"""No dead code in the package, and no missing name the benchmark's tracer
rebinds.

Every module-level function and class in src/cdfsched must be reached,
through the names it is referred by, from a root: the public exports
(cdfsched.__all__), every definition in cli.py, or the scalar reference
scheduler kept as the simulator's oracle.  Every module-level import must
be read in its own module (the package __init__ only re-exports).
"""

import ast
import importlib
import inspect
from pathlib import Path

import cdfsched

SRC = Path(cdfsched.__file__).parent
TRACING = Path(__file__).resolve().parents[1] / "benchmarks" / "cdfbench" \
    / "tracing.py"
ORACLES = {"schedule_slot", "best_m_select"}


def _names(node):
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            yield sub.id
        elif isinstance(sub, ast.Attribute):
            yield sub.attr


def test_every_definition_is_reachable():
    defs, roots = {}, set(cdfsched.__all__) | ORACLES
    for path in sorted(SRC.glob("*.py")):
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                defs.setdefault(node.name, []).append(node)
                if path.name == "cli.py":
                    roots.add(node.name)
            elif not isinstance(node, (ast.Import, ast.ImportFrom)):
                roots.update(_names(node))  # runs at import time
    reached, frontier = set(), roots & defs.keys()
    while frontier:
        reached |= frontier
        frontier = {name for n in frontier for node in defs[n]
                    for name in _names(node)} & defs.keys() - reached
    unreached = sorted(defs.keys() - reached)
    assert not unreached, f"definitions nothing reaches: {unreached}"


def test_every_import_is_read():
    unread = []
    for path in sorted(SRC.glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text())
        bound = [alias.asname or alias.name.split(".")[0]
                 for node in tree.body
                 if isinstance(node, (ast.Import, ast.ImportFrom))
                 and getattr(node, "module", None) != "__future__"
                 for alias in node.names]
        read = {sub.id for sub in ast.walk(tree) if isinstance(sub, ast.Name)}
        unread += [f"{path.name}: {name}" for name in bound
                   if name not in read]
    assert not unread, f"imports never read: {unread}"


def _constant(tree, name):
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == name for t in node.targets):
            return ast.literal_eval(node.value)
    raise AssertionError(f"{name} not defined in {TRACING.name}")


def test_names_the_tracer_rebinds_exist():
    """The traced benchmark run rebinds imported names in package modules;
    each must exist, and the wrapped quadrature keep its signature."""
    tree = ast.parse(TRACING.read_text())
    wanted = [(mod, name) for mod, name, _ in _constant(tree, "BOUNDARIES")]
    wanted += [(mod, "BestMPoly") for mod in _constant(tree, "POLY_USERS")]
    wanted.append(("exact_rate", "adaptive_quad_halfline"))
    missing = [f"{mod}.{name}" for mod, name in wanted
               if not hasattr(importlib.import_module(f"cdfsched.{mod}"),
                              name)]
    assert not missing, f"names the tracer rebinds are gone: {missing}"
    quad = importlib.import_module("cdfsched.exact_rate").adaptive_quad_halfline
    assert list(inspect.signature(quad).parameters) == \
        ["f", "config", "vectorized"]
