"""Golden outputs: the CLI's `test`/`mc`/`depth`/`simulate` JSON and
`compute_depth` on raw-array queries, for all 12 depth specs, compared with
the values recorded in `golden.json`.

Floats agree to a relative 1e-12; ranks, exit codes, integers, strings and
booleans exactly.  After a change that is meant to move these outputs,
re-record with `PYTHONPATH=src python tests/test_golden.py`.
"""

import json
import math
import pathlib
import sys

import numpy as np
import pytest

import fkwc.compiled
from fkwc import (DepthSpec, FunctionalDataset, Grid, ProcessModel, compute_depth, generate,
                  save_csv)
from fkwc.cli import main

GOLDEN = pathlib.Path(__file__).with_name("golden.json")
REL_TOL = 1e-12
GRID = Grid(31)
SPECS = [(kind, primed) for kind in ("ltr", "rp", "mfhd", "mbd", "spatial", "ksd")
         for primed in (False, True)]


def _label(kind, primed):
    return kind + ("'" if primed else "")


def _dataset() -> FunctionalDataset:
    """Three t1 groups of 12 curves with kernel scales 1, 2 and 8."""
    blocks = [generate(ProcessModel(family="t1", grid=GRID, beta=beta), 12, seed)
              for seed, beta in enumerate((1.0, 2.0, 8.0), start=11)]
    return FunctionalDataset(GRID, np.vstack(blocks), np.repeat([1, 2, 3], 12))


def _cli(argv, out_path):
    code = main(argv + ["--output", str(out_path)])
    return {"exit": code, "out": json.loads(out_path.read_text())}


def _outputs(tmp: pathlib.Path) -> dict:
    csv_path = tmp / "t1.csv"
    save_csv(_dataset(), csv_path)
    out = tmp / "out.json"
    result = {}
    for kind, primed in SPECS:
        label = _label(kind, primed)
        flags = ["--input", str(csv_path), "--depth", kind] + (["--primed"] if primed else [])
        result[f"test {label}"] = _cli(["test", *flags, "--format", "json"], out)
        for method in ("normal", "exact"):
            result[f"mc {method} {label}"] = _cli(
                ["mc", *flags, "--method", method, "--format", "json"], out)
        result[f"depth {label}"] = _cli(["depth", *flags, "--format", "json"], out)

    study = {
        "grid_points": GRID.m,
        "groups": [{"family": "t1", "size": 10}, {"family": "t1", "beta": 8.0, "size": 10}],
        "depths": [{"kind": kind, "primed": primed} for kind, primed in SPECS],
        "replications": 4,
        "seed": 3,
    }
    spec_path = tmp / "study.json"
    spec_path.write_text(json.dumps(study))
    result["simulate"] = _cli(["simulate", "--spec", str(spec_path), "--format", "json"], out)

    ds = _dataset()
    queries = generate(ProcessModel(family="gaussian", grid=GRID), 5, 99).tolist()
    for kind, primed in SPECS:
        spec = DepthSpec(kind=kind, use_derivatives=primed, rng_seed=4)
        result[f"compute_depth raw queries {_label(kind, primed)}"] = (
            compute_depth(ds, spec, queries).values.tolist())
    return result


def _same(a, b) -> bool:
    if isinstance(a, list) and isinstance(b, list):
        return len(a) == len(b) and all(_same(x, y) for x, y in zip(a, b))
    if isinstance(a, dict) and isinstance(b, dict):
        return a.keys() == b.keys() and all(_same(a[k], b[k]) for k in a)
    if isinstance(a, float) or isinstance(b, float):
        if not isinstance(a, (int, float)) or not isinstance(b, (int, float)):
            return False
        return math.isclose(a, b, rel_tol=REL_TOL, abs_tol=0.0)
    return a == b


@pytest.fixture(scope="module")
def outputs(tmp_path_factory):
    return _outputs(tmp_path_factory.mktemp("golden"))


@pytest.fixture(scope="module")
def recorded():
    return json.loads(GOLDEN.read_text())


def test_same_items(outputs, recorded):
    assert sorted(outputs) == sorted(recorded)


@pytest.mark.parametrize("name", [f"{cmd} {_label(*s)}" for cmd in
                                  ("test", "mc normal", "mc exact", "depth",
                                   "compute_depth raw queries") for s in SPECS]
                         + ["simulate"])
def test_output_matches_recording(name, outputs, recorded):
    assert _same(outputs[name], recorded[name]), name


def test_same_bytes_without_the_compiled_library(outputs, tmp_path, monkeypatch):
    """Every output of the NumPy forms of the compiled loops equals, exactly,
    the output of the compiled loops (where the library loads)."""
    monkeypatch.setattr(fkwc.compiled, "load", lambda: None)
    assert _outputs(tmp_path) == outputs


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        GOLDEN.write_text(json.dumps(_outputs(pathlib.Path(tmp)), indent=1, sort_keys=True) + "\n")
    print(f"wrote {GOLDEN}", file=sys.stderr)
