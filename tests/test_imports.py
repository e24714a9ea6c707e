"""Each fkwc module imports on its own, so module-level imports form no cycle;
the names the benchmark traces exist; only fdata computes derivatives, and
testing.py calls no method of a scipy.stats distribution."""

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


def _dotted(node):
    """``a.b.c`` of a Name/Attribute chain, else None."""
    parts = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if not isinstance(node, ast.Name):
        return None
    return ".".join([node.id, *reversed(parts)])


def _resolve(dotted, aliases):
    """The object a dotted name in a module's source refers to, through its
    imports; None when it does not name an imported object."""
    head, _, rest = dotted.partition(".")
    if head not in aliases:
        return None
    try:
        obj = importlib.import_module(aliases[head])
    except ImportError:  # "from m import name" bound an attribute of m
        module_name, _, attr = aliases[head].rpartition(".")
        obj = getattr(importlib.import_module(module_name), attr, None)
    for part in rest.split(".") if rest else ():
        obj = getattr(obj, part, None)
    return obj


def test_testing_calls_no_scipy_stats_distribution():
    """fkwc/testing.py and fkwc/power.py take their tails from scipy.special
    ufuncs, never from a method of a scipy.stats distribution object
    (``chi2.sf`` costs about 50 times the ``chdtrc`` it wraps, once per
    test call; ``poisson.pmf`` about 13 times its expression)."""
    calls = {m: _stats_distribution_calls(m) for m in ("testing.py", "power.py")}
    assert not any(calls.values()), calls


def _stats_distribution_calls(module):
    from scipy import stats

    tree = ast.parse((SRC / "fkwc" / module).read_text())
    aliases = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for a in node.names:
                # "import a.b" binds a; "import a.b as c" binds c to a.b
                name = a.name if a.asname else a.name.partition(".")[0]
                aliases[a.asname or name] = name
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            for a in node.names:
                aliases[a.asname or a.name] = f"{node.module}.{a.name}"
    calls = []
    for node in ast.walk(tree):
        if not (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)):
            continue
        owner = node.func.value
        if isinstance(owner, ast.Call):  # a frozen distribution: chi2(df).sf(x)
            owner = owner.func
        dotted = _dotted(owner)
        obj = _resolve(dotted, aliases) if dotted else None
        if isinstance(obj, (stats.rv_continuous, stats.rv_discrete)):
            calls.append(f"{ast.unparse(node.func)} (line {node.lineno})")
    return calls
