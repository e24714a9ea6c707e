"""tools/code_lines.py: the code-line counter the change log quotes."""

import importlib.util
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SCRIPT = ROOT / "tools" / "code_lines.py"

# 8 code lines: the import, the def, both lines of the assigned string and
# the four lines of the call
SOURCE = '''"""A module docstring
over two lines."""

import os  # a trailing comment

# a comment line


def f(a, b):
    """A function docstring."""
    text = """not a
docstring"""
    return os.path.join(
        a,
        b,
    ) + text
'''


def _load():
    spec = importlib.util.spec_from_file_location("code_lines", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_counts_code_lines_only():
    assert _load().code_lines(SOURCE) == 8


def test_script_prints_each_file_and_the_total():
    proc = subprocess.run([sys.executable, str(SCRIPT), "src"], cwd=ROOT,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    *files, total = [line.split() for line in proc.stdout.splitlines()]
    assert files and all(name.endswith(".py") for _, name in files)
    assert total[1] == "total"
    assert int(total[0]) == sum(int(count) for count, _ in files)


def test_closed_pipe_exits_quietly():
    # the reader is gone before the first line, as `| head -1` leaves it
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = subprocess.run([sys.executable, str(SCRIPT), "src"], cwd=ROOT, stdout=write_end,
                              stderr=subprocess.PIPE, text=True, timeout=60)
    finally:
        os.close(write_end)
    assert proc.returncode == 1
    assert proc.stderr == ""
