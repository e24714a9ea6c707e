"""Each fkwc module imports on its own, so module-level imports form no cycle."""

import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"

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
