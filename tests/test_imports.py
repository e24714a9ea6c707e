"""Each fkwc module imports on its own, so module-level imports form no cycle;
the names the benchmark traces exist; only fdata computes derivatives, only
depths._channels reads a dataset's channels in depths.py, only
depths._channel_depth runs the cached channel functions, only sim.py draws the
process families' normals and chi-square scales, only fdata.py reads the
grid's quadrature weights or counts group labels, only depths.derive_rng and
sim.py seed generators, only cli.main writes a command's output, no fkwc
module imports scipy.stats, scipy and the process pool load only where they
are used, and the compiled library is built only for ``ksd``, ``spatial``
and ``mfhd'``, by the one module that loads it.  A failing hypothesis
property does not stop the test session."""

import ast
import importlib
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

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


def test_channel_functions_only_passed_to_channel_depth():
    """depths.py never calls ``_mbd_channel``, ``_spatial_channel`` or
    ``_ksd_channel`` itself: each is handed to ``_channel_depth``, so no
    kernel skips its per-dataset cache."""
    names = {"_mbd_channel", "_spatial_channel", "_ksd_channel"}
    called, passed = [], set()
    for node in ast.walk(ast.parse((SRC / "fkwc" / "depths.py").read_text())):
        if isinstance(node, ast.Call):
            func = getattr(node.func, "id", None) or getattr(node.func, "attr", None)
            if func in names:
                called.append(f"{func} at line {node.lineno}")
            if func == "_channel_depth":
                passed |= {a.id for a in node.args if isinstance(a, ast.Name)} & names
    assert not called, called
    assert passed == names, passed


def test_family_draws_only_in_sim():
    """Of the modules, only sim.py calls ``standard_normal`` or
    ``chisquare`` to draw curves, so each family's draws are written once;
    the one other caller, depths._rp_directions, draws white noise for
    projection directions."""
    callers = set()
    for path in sorted((SRC / "fkwc").glob("*.py")):
        for top in ast.parse(path.read_text()).body:
            for node in ast.walk(top):
                func = getattr(node, "func", None) if isinstance(node, ast.Call) else None
                if getattr(func, "attr", None) in ("standard_normal", "chisquare"):
                    callers.add(path.name if path.name == "sim.py"
                                else f"{path.stem}.{getattr(top, 'name', top.lineno)}")
    assert callers == {"sim.py", "depths._rp_directions"}, callers


def test_quadrature_weights_read_only_in_fdata():
    """No module but fdata.py reads ``.trapezoid_weights``: every L2 integral
    of a curve is ``Grid.integrate`` or ``Grid.inner``."""
    readers = [
        f"{path.name}:{node.lineno}"
        for path in sorted((SRC / "fkwc").glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.Attribute) and node.attr == "trapezoid_weights"
    ]
    assert readers and {r.split(":")[0] for r in readers} == {"fdata.py"}, readers


def test_output_written_only_in_cli_main():
    """In cli.py only ``main`` calls ``print``, ``json.dumps`` or
    ``write_csv``, or opens a file for writing: each command's handler
    returns its result, and main renders it once."""
    writers = set()
    for top in ast.parse((SRC / "fkwc" / "cli.py").read_text()).body:
        for node in ast.walk(top):
            if not isinstance(node, ast.Call):
                continue
            name = getattr(node.func, "id", None) or getattr(node.func, "attr", None)
            modes = node.args[1:2] + [k.value for k in node.keywords if k.arg == "mode"]
            writes = name == "open" and not all(
                isinstance(m, ast.Constant) and set(m.value) <= set("rbt") for m in modes
            )
            if writes or name in ("print", "dump", "dumps", "write", "write_csv"):
                writers.add(getattr(top, "name", f"line {top.lineno}"))
    assert writers == {"main"}, writers


def _numpy_calls(name):
    """(file, line, keyword names) of each call of an attribute ``name``
    in fkwc, ``np.<name>(...)`` among them."""
    for path in sorted((SRC / "fkwc").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                    and node.func.attr == name):
                yield path, node.lineno, {k.arg for k in node.keywords}


def test_group_labels_counted_only_in_fdata():
    """No module but fdata.py calls ``np.unique`` or counts with
    ``np.bincount`` (a weighted sum excepted): what a grouping is, and its
    sizes, are ``fdata.group_labels``'s to decide."""
    fdata = importlib.import_module("fkwc.fdata")
    assert callable(fdata.group_labels) and not hasattr(fdata, "integer_labels")
    counts = [
        f"{path.name}:{line}"
        for name in ("unique", "bincount")
        for path, line, keywords in _numpy_calls(name)
        if path.name != "fdata.py" and "weights" not in keywords
    ]
    assert not counts, counts


def test_seeded_generators_only_from_derive_rng_and_sim():
    """``np.random.default_rng`` is called only in ``depths.derive_rng`` and
    in sim.py, where a caller's seed or Generator enters: every other stream
    is a child of (seed, key...)."""
    callers = set()
    for path in sorted((SRC / "fkwc").glob("*.py")):
        for top in ast.parse(path.read_text()).body:
            for node in ast.walk(top):
                func = getattr(node, "func", None) if isinstance(node, ast.Call) else None
                if getattr(func, "attr", None) == "default_rng":
                    callers.add(path.name if path.name == "sim.py"
                                else f"{path.stem}.{getattr(top, 'name', top.lineno)}")
    assert callers == {"sim.py", "depths.derive_rng"}, callers


FAILING_PROPERTY = """
from hypothesis import given, strategies as st


@given(st.integers())
def test_fails(x):
    assert x < 10


def test_passes():
    pass
"""


def test_failing_property_does_not_stop_the_session(tmp_path):
    """At a property's first failing example hypothesis's pytest plugin
    imports libcst, which warns DeprecationWarning; under pyproject's
    filters that used to end the session in an INTERNALERROR (exit 3)
    before any later test ran.  This suite's conftest.py runs the file."""
    (tmp_path / "test_two.py").write_text(FAILING_PROPERTY)
    shutil.copy(Path(__file__).with_name("conftest.py"), tmp_path)
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-c", str(ROOT / "pyproject.toml"),
         "--rootdir", str(tmp_path), "-p", "no:cacheprovider", "-q", "test_two.py"],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 1, proc.stdout + proc.stderr
    assert "1 failed, 1 passed" in proc.stdout, proc.stdout


def test_import_leaves_scipy_stats_unloaded():
    """``import fkwc, fkwc.cli`` does not load scipy.stats, about half of
    the import's CPU time when it did."""
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


def test_no_module_level_scipy_or_pool_import():
    """No top-level statement of src/fkwc imports scipy or concurrent.futures:
    each is imported inside the function that uses it."""
    def heavy(name):
        return name.split(".")[0] == "scipy" or name.startswith("concurrent")

    found = []
    for path in sorted((SRC / "fkwc").glob("*.py")):
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, ast.Import):
                names = [a.name for a in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module or ""]
            else:
                continue
            found += [f"{path.name}:{node.lineno} {n}" for n in names if heavy(n)]
    assert not found, found


LAZY_SCRIPT = """
import sys, tempfile
from pathlib import Path
import numpy as np
import fkwc, fkwc.cli
from fkwc import DepthSpec, FunctionalDataset, Grid, ProcessModel, StudySpec, run_study

grid = Grid(21)
model = ProcessModel(family="t1", grid=grid)
specs = tuple(DepthSpec(kind=k, use_derivatives=p)
              for k in ("ltr", "rp", "mfhd", "mbd", "spatial", "ksd") for p in (False, True))
study = StudySpec(models=(model, model), group_sizes=(6, 6), depth_specs=specs,
                  replications=2, seed=5)
rates = run_study(study, n_jobs=1).rejection_rates
assert rates.shape == (12,), rates
rng = np.random.default_rng(3)
ds = FunctionalDataset(grid, rng.normal(size=(12, grid.m)), [1] * 6 + [2] * 6)
with tempfile.TemporaryDirectory() as tmp:
    fkwc.save_csv(ds, Path(tmp) / "in.csv")
    out = Path(tmp) / "out.csv"
    code = fkwc.cli.main(["depth", "--input", str(Path(tmp) / "in.csv"), "--depth", "mfhd",
                          "--output", str(out)])
    assert code == 0, code
loaded = sorted(n for n in ("scipy.special", "multiprocessing") if n in sys.modules)
assert not loaded, loaded
res = fkwc.fkwc_test(ds)
p = res.p_value
assert "scipy.special" in sys.modules
from scipy.stats import chi2
assert p == float(chi2.sf(res.statistic, res.df)), (p, res.statistic)
"""


def test_scipy_and_pool_loaded_only_when_used():
    """A serial study of all 12 depth specs and ``fkwc depth`` load neither
    scipy.special nor multiprocessing; reading a p-value loads scipy.special
    and gives chi2.sf's bits."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run(
        [sys.executable, "-c", LAZY_SCRIPT], env=env, capture_output=True, text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr


NO_BUILD_SCRIPT = """
import sys
import fkwc, fkwc.cli
from fkwc import DepthSpec, ProcessModel, StudySpec, compiled, run_study

loaded = sorted(n for n in ("hashlib", "subprocess") if n in sys.modules)
assert not loaded, loaded

model = ProcessModel(family="t1", grid=fkwc.Grid(21))
specs = tuple(DepthSpec(kind=k, use_derivatives=p)
              for k in ("ltr", "rp", "mfhd", "mbd") for p in (False, True)
              if (k, p) != ("mfhd", True))
study = StudySpec(models=(model, model), group_sizes=(6, 6), depth_specs=specs,
                  replications=2, seed=5)
assert run_study(study, n_jobs=1).rejection_rates.shape == (7,)
assert compiled.load.cache_info().currsize == 0
assert "subprocess" not in sys.modules
"""


def test_import_and_study_without_mfhd_prime_build_nothing(tmp_path):
    """``import fkwc, fkwc.cli`` imports neither hashlib nor subprocess, and
    a study of ``ltr``, ``rp``, ``mfhd`` and ``mbd`` (primed but for
    ``mfhd'``) neither builds nor loads the compiled library nor imports
    subprocess.  (The study does load hashlib: ``numpy.random`` imports it
    by way of ``secrets`` and ``hmac``.)"""
    env = dict(os.environ, PYTHONPATH=str(SRC), XDG_CACHE_HOME=str(tmp_path))
    proc = subprocess.run(
        [sys.executable, "-c", NO_BUILD_SCRIPT], env=env, capture_output=True, text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    assert not list(tmp_path.iterdir())


BUILD_SCRIPT = """
import sys
import numpy as np
import fkwc
from fkwc import DepthSpec, FunctionalDataset, compiled, compute_depth

grid = fkwc.Grid(21)
ds = FunctionalDataset(grid, np.random.default_rng(3).normal(size=(12, grid.m)), [1] * 12)
assert compiled.load.cache_info().currsize == 0
compute_depth(ds, DepthSpec(kind=sys.argv[1], use_derivatives=sys.argv[2] == "1"))
assert compiled.load.cache_info().currsize == 1
print(compiled.load() is not None)
"""


@pytest.mark.parametrize("kind, primed", [("ksd", False), ("spatial", False), ("mfhd", True)])
def test_first_compiled_kernel_evaluation_builds_the_library(kind, primed, tmp_path):
    """The first ``ksd``, ``spatial`` or ``mfhd'`` evaluation of a process
    builds the compiled library into the cache and loads it."""
    env = dict(os.environ, PYTHONPATH=str(SRC), XDG_CACHE_HOME=str(tmp_path))
    proc = subprocess.run(
        [sys.executable, "-c", BUILD_SCRIPT, kind, str(int(primed))], env=env,
        capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    if shutil.which("cc") is None:
        pytest.skip("no C compiler (cc) on PATH")
    assert proc.stdout.split() == ["True"]
    files = [f.name for f in (tmp_path / "fkwc").iterdir()]
    assert len(files) == 1 and files[0].startswith("compiled-"), files


def test_compiled_library_owned_by_one_module():
    """Only compiled.py imports ``ctypes``, and only depths.py imports the
    compiled module and calls its ``load()``: one module holds the foreign
    calls, one decides which loops run."""
    ctypes_importers, compiled_importers, loaders = set(), set(), set()
    for path in sorted((SRC / "fkwc").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                names = [a.name for a in node.names]
            elif isinstance(node, ast.ImportFrom):
                module = node.module or ""
                names = [module] + [f"{module}.{a.name}".lstrip(".") for a in node.names]
            elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                    and node.func.attr == "load"
                    and getattr(node.func.value, "id", None) == "compiled"):
                loaders.add(path.name)
                continue
            else:
                continue
            if any(n.split(".")[0] == "ctypes" for n in names):
                ctypes_importers.add(path.name)
            if any(n.split(".")[-1] == "compiled" or n.startswith("compiled.")
                   or n.startswith("fkwc.compiled") for n in names):
                compiled_importers.add(path.name)
    assert ctypes_importers == {"compiled.py"}, ctypes_importers
    assert compiled_importers == loaders == {"depths.py"}, (compiled_importers, loaders)


def test_loops_chosen_only_in_loops():
    """In depths.py only ``_loops`` calls ``compiled.load``, and no other
    function compares a loop table (``compiled.load()``, ``_loops(...)``
    or a name bound to either) with None: each kernel runs the table that
    ``_loops`` hands it, compiled or NumPy, without branching on which."""

    def is_table(node, names):
        if isinstance(node, ast.Name):
            return node.id in names
        return isinstance(node, ast.Call) and (
            getattr(node.func, "id", None) == "_loops"
            or (getattr(node.func, "attr", None) == "load"
                and getattr(node.func.value, "id", None) == "compiled"))

    loaders, branches = set(), []
    for top in ast.parse((SRC / "fkwc" / "depths.py").read_text()).body:
        name = getattr(top, "name", f"line {top.lineno}")
        names = {t.id for node in ast.walk(top) if isinstance(node, ast.Assign)
                 and is_table(node.value, set()) for t in node.targets
                 if isinstance(t, ast.Name)}
        for node in ast.walk(top):
            if is_table(node, set()) and getattr(node.func, "attr", None) == "load":
                loaders.add(name)
            if (name != "_loops" and isinstance(node, ast.Compare)
                    and any(isinstance(op, (ast.Is, ast.IsNot)) for op in node.ops)):
                operands = [node.left, *node.comparators]
                if (any(isinstance(o, ast.Constant) and o.value is None for o in operands)
                        and any(is_table(o, names) for o in operands)):
                    branches.append(f"{name} at line {node.lineno}")
    assert loaders == {"_loops"}, loaders
    assert not branches, branches
