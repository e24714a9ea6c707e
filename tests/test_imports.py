"""Each fkwc module imports on its own, so module-level imports form no cycle;
the names the benchmark traces exist; only fdata computes derivatives, only
depths._channels reads a dataset's channels in depths.py, and no fkwc module
imports scipy.stats."""

import ast
import importlib
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"

SCRIPT = """
import importlib, pkgutil, sys
names = [info.name for info in pkgutil.iter_modules([sys.argv[1]])]
assert names, "no fkwc modules found"
for name in names:
    for key in [k for k in sys.modules if k.startswith("fkwc")]:
        del sys.modules[key]
    importlib.import_module("fkwc." + name)
import fkwc
stale = [n for n in fkwc.__all__ if n.startswith("gen_")]
assert not stale, stale
assert "rp_depth_deriv" not in fkwc.__all__
modules = [n for n in fkwc.__all__ if isinstance(getattr(fkwc, n), type(sys))]
assert not modules, modules
"""


def test_each_module_imports_alone():
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run(
        [sys.executable, "-c", SCRIPT, str(SRC / "fkwc")],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr


def _traced_names():
    """(module, attribute) of every entry of ``TRACED`` in perfbench/spans.py,
    read from its source so the benchmark is not imported."""
    tree = ast.parse((ROOT / "perfbench" / "spans.py").read_text())
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "TRACED" for t in node.targets
        ):
            return [(entry.elts[0].value, entry.elts[1].value) for entry in node.value.elts]
    raise AssertionError("perfbench/spans.py defines no TRACED")


def test_benchmark_traced_names_exist():
    names = _traced_names()
    assert len(names) >= 10
    missing = [
        f"{module}.{attr}" for module, attr in names
        if not callable(getattr(importlib.import_module(module), attr, None))
    ]
    assert not missing, missing
    fdata = importlib.import_module("fkwc.fdata")
    assert callable(getattr(fdata.FunctionalDataset, "with_finite_difference_derivatives", None))


def test_derivatives_computed_only_in_fdata():
    """No module but fdata.py calls ``differentiate``: every other module
    reads the derivative channel a FunctionalDataset carries."""
    callers = []
    for path in sorted((SRC / "fkwc").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            func = getattr(node, "func", None) if isinstance(node, ast.Call) else None
            name = getattr(func, "id", None) or getattr(func, "attr", None)
            if name == "differentiate":
                callers.append(path.name)
    assert callers and set(callers) == {"fdata.py"}, callers


def test_channels_read_only_in_depths_channels():
    """In depths.py only ``_channels`` reads a dataset's ``.curves`` or
    ``.derivatives``: every kernel, and the ``ltr`` sort keys, take the
    channels from it."""
    readers = set()
    for top in ast.parse((SRC / "fkwc" / "depths.py").read_text()).body:
        for node in ast.walk(top):
            if isinstance(node, ast.Attribute) and node.attr in ("curves", "derivatives"):
                readers.add(getattr(top, "name", f"line {top.lineno}"))
    assert readers == {"_channels"}, readers


def test_import_leaves_scipy_stats_unloaded():
    """``import fkwc, fkwc.cli`` loads numpy and scipy.special but not
    scipy.stats, about half of the import's CPU time."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    script = "import sys, fkwc, fkwc.cli; assert 'scipy.stats' not in sys.modules"
    proc = subprocess.run(
        [sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr


def _imports_scipy_stats(node) -> bool:
    def is_stats(name):
        return name == "scipy.stats" or name.startswith("scipy.stats.")

    if isinstance(node, ast.Attribute):  # scipy.stats after "import scipy" loads it lazily
        return node.attr == "stats" and isinstance(node.value, ast.Name) and node.value.id == "scipy"
    if isinstance(node, ast.Import):
        return any(is_stats(a.name) for a in node.names)
    if isinstance(node, ast.ImportFrom) and node.level == 0:
        module = node.module or ""
        return is_stats(module) or (
            module == "scipy" and any(a.name == "stats" for a in node.names)
        )
    return False


def test_no_module_imports_scipy_stats():
    """No statement of src/fkwc, at module level or inside a function,
    imports scipy.stats or reaches it as an attribute of scipy; the tests
    may still use it as an oracle."""
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted((SRC / "fkwc").glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text()))
        if _imports_scipy_stats(node)
    ]
    assert not found, found
