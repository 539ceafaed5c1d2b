"""Every name a module imports is used in that module, every private helper
is used somewhere in the package, the CLI imports lightly, transport routes
are called only from the one route selector, coincident rows are found by
one helper, every distance between rows comes from cost_matrix, no weighted
sum goes through BLAS, and every exported name resolves and is listed by
one module."""

import ast
import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

import wassdep

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "wassdep"
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    tree = ast.parse(path.read_text())
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            imported |= {(a.asname or a.name).split(".")[0] for a in node.names}
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    assert sorted(imported - used) == []


def _top_level_names(tree: ast.Module) -> set[str]:
    names = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names |= {t.id for t in targets if isinstance(t, ast.Name)}
    return names


def test_every_private_helper_is_used():
    # A private name nothing reads is a leftover of a helper that was replaced.
    trees = [ast.parse(p.read_text()) for p in PACKAGE.glob("*.py")]
    defined = {name for tree in trees for name in _top_level_names(tree)}
    private = {name for name in defined if name.startswith("_") and not name.startswith("__")}
    used = set()
    for tree in trees:
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
    assert sorted(private - used) == []


def test_cli_import_leaves_scipy_stats_unloaded():
    # scipy.stats is heavy to import, and the CLI needs none of it.
    env = dict(os.environ, PYTHONPATH=str(PACKAGE.parent))
    probe = "import sys, wassdep.cli; print('scipy.stats' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "False"


def _callers(tree: ast.Module, names: set[str]) -> set[tuple[str, str]]:
    """(top-level function, callee) for every call by bare name to ``names``."""
    found = set()
    for top in tree.body:
        for node in ast.walk(top):
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id in names:
                found.add((getattr(top, "name", "<module>"), node.func.id))
    return found


def test_transport_routes_are_picked_in_one_place():
    # The conditional layer's routes are called only by its route selector,
    # and the mean discrepancy no longer picks a route of its own.
    routes = {"_group_powers", "_quantile_cost", "dirac_transport_cost", "solve_exact"}
    conditional = ast.parse((PACKAGE / "conditional.py").read_text())
    callers = _callers(conditional, routes)
    assert {callee for _, callee in callers} == routes
    assert {caller for caller, _ in callers} == {"_group_costs"}
    assert _callers(ast.parse((PACKAGE / "empirical.py").read_text()), {"_group_powers"}) == set()


def test_coincident_rows_are_found_in_one_place():
    # Partitions and every measure's support group rows by measures._runs;
    # the only other lexsort orders the two keys of one pair.
    callers = set()
    for path in MODULES:
        for top in ast.parse(path.read_text()).body:
            for node in ast.walk(top):
                if isinstance(node, ast.Attribute) and node.attr == "lexsort":
                    callers.add((path.stem, top.name))
    assert callers == {("measures", "_runs"), ("concordance", "diagonal_transport_map")}


def test_row_distances_are_measured_in_one_place():
    # cost_matrix is the one code that measures a distance between rows, so a
    # numerator and its denominator cannot measure the same data two ways.
    cdist_callers, norms = set(), []
    for path in MODULES:
        for top in ast.parse(path.read_text()).body:
            for node in ast.walk(top):
                if isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id == "cdist":
                    cdist_callers.add((path.stem, top.name))
                if isinstance(node, ast.Attribute) and node.attr == "norm" and getattr(node.value, "attr", "") == "linalg":
                    norms.append((path.stem, node.lineno))
    assert cdist_callers == {("measures", "cost_matrix")}
    assert norms == []


@pytest.mark.parametrize("path", [p for p in MODULES if p.name != "gaussian.py"], ids=lambda p: p.name)
def test_no_weighted_sum_goes_through_blas(path):
    # A BLAS product's bits depend on its thread count; measures._weighted_sum
    # is the one reduction. Only the Gaussian closed forms multiply matrices.
    tree = ast.parse(path.read_text())
    products = [
        node.lineno
        for node in ast.walk(tree)
        if isinstance(getattr(node, "op", None), ast.MatMult)
        or (isinstance(node, ast.Attribute) and node.attr in {"dot", "vdot", "inner", "matmul"})
    ]
    assert products == []


def test_every_exported_name_resolves_and_is_listed_once():
    assert [name for name in wassdep.__all__ if not hasattr(wassdep, name)] == []
    owners: dict[str, list[str]] = {}
    for path in MODULES:
        module = importlib.import_module(f"wassdep.{path.stem}")
        for name in getattr(module, "__all__", ()):
            assert hasattr(module, name), f"{path.stem}.{name}"
            owners.setdefault(name, []).append(path.stem)
    assert {name: mods for name, mods in owners.items() if len(mods) > 1} == {}
