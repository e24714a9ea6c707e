"""Inputs, operations and output checks of the three benchmark workloads.

Every input is a pure function of the input set, which the runner derives
from ``--seed``.  Studies are timed as a closed loop of ``run_study`` calls
(one caller, ``n_jobs=1``); the CLI workload is a closed loop over a fixed
cycle of in-process ``fkwc.cli.main`` calls.  Each call is checked against
the outputs recorded in ``reference.json``.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import os

import numpy as np

import fkwc
from fkwc import cli

# --seed n selects input set n % INPUT_SETS; outputs are recorded for each.
INPUT_SETS = 16

GRID_POINTS = 101

# Numbers agree when they match to this relative precision.  Everything
# checked is a function of integer ranks or of seeded closed-form code,
# so only a change in summation order can move it, and only in the last
# bits; any change in a rank moves it far more.
REL_TOL = 1e-12

DEPTH_KINDS = ("ltr", "rp", "mfhd", "mbd", "spatial", "ksd")
SPEC_LABELS = tuple(
    kind + suffix for kind in DEPTH_KINDS for suffix in ("", "_p")
)

STUDIES = {
    # criterion 4's shape: two t1 groups of 50 and all 12 depth specs
    "study-t1-all12": dict(
        family="t1",
        group_sizes=(50, 50),
        specs=tuple((k, p) for k in DEPTH_KINDS for p in (False, True)),
        reps_per_call=4,
        calls=8,
    ),
    # cheap, high-replicate null study: three Gaussian groups, ltr only
    "study-gauss-ltr": dict(
        family="gaussian",
        group_sizes=(40, 40, 40),
        specs=(("ltr", False), ("ltr", True)),
        reps_per_call=200,
        calls=48,
    ),
}

CLI_WORKLOAD = "cli-n300-j3"
WORKLOADS = tuple(STUDIES) + (CLI_WORKLOAD,)

# Calls of each op per pass of the command cycle: the cheap ops are
# repeated so that their medians rest on enough samples.
CLI_REPEATS = {
    "test_rp": 3,
    "test_ksd": 1,
    "mc_spatial": 2,
    "mc_exact": 1,
    "depth_ksd": 1,
    "power_size": 8,
    "power_local": 3,
}
CLI_OPS = tuple(CLI_REPEATS)
# one pass, in rounds: every op once, then the repeated ops again, so each
# op's samples spread over the pass
CLI_CYCLE = tuple(
    op for r in range(max(CLI_REPEATS.values())) for op in CLI_OPS if CLI_REPEATS[op] > r
)


def derived_seed(input_set: int, *key: int) -> int:
    """63-bit seed for (input set, key...), independent of fkwc's own
    seed derivation so the benchmark's inputs never move with the code."""
    ss = np.random.SeedSequence([int(input_set), *key])
    return int(ss.generate_state(1, np.uint64)[0] >> 1)


# ---------------------------------------------------------------------------
# studies
# ---------------------------------------------------------------------------

def study_spec(workload: str, input_set: int, call: int, replications=None):
    """The StudySpec of timed call ``call`` (call -1 is the warm-up)."""
    shape = STUDIES[workload]
    grid = fkwc.Grid.regular(GRID_POINTS)
    model = fkwc.ProcessModel(family=shape["family"], grid=grid)
    specs = tuple(fkwc.DepthSpec(kind=k, use_derivatives=p) for k, p in shape["specs"])
    return fkwc.StudySpec(
        models=(model,) * len(shape["group_sizes"]),
        group_sizes=shape["group_sizes"],
        depth_specs=specs,
        alpha=0.05,
        replications=replications or shape["reps_per_call"],
        seed=derived_seed(input_set, WORKLOADS.index(workload), call + 1),
    )


def warmup_spec(workload: str, input_set: int):
    """One replicate of every depth spec, on data no timed call uses."""
    return study_spec(workload, input_set, -1, replications=1)


def study_output(result) -> list:
    return [float(r) for r in result.rejection_rates]


# ---------------------------------------------------------------------------
# CLI command mix
# ---------------------------------------------------------------------------

def write_cli_inputs(workdir: str, input_set: int) -> dict:
    """Write the CSV datasets and power specs of one input set; return the
    argv of every op."""
    os.makedirs(workdir, exist_ok=True)
    grid = fkwc.Grid.regular(GRID_POINTS)

    def dataset(family, groups, size, key):
        model = fkwc.ProcessModel(family=family, grid=grid)
        curves = np.vstack([
            fkwc.generate(model, size, derived_seed(input_set, 100 + key, g))
            for g in range(groups)
        ])
        labels = np.repeat(np.arange(1, groups + 1), size)
        return fkwc.FunctionalDataset(grid, curves, labels)

    big = os.path.join(workdir, "t1_n300_j3.csv")
    small = os.path.join(workdir, "gauss_n30_j3.csv")
    fkwc.save_csv(dataset("t1", 3, 100, 0), big)
    fkwc.save_csv(dataset("gaussian", 3, 10, 1), small)

    rng = np.random.default_rng(derived_seed(input_set, 200))
    size_spec = {
        "probs": [[0.5, 0.53], [0.47, 0.5]],
        "thetas": [0.5, 0.5],
        "target_power": round(float(rng.uniform(0.75, 0.9)), 3),
        "alpha": 0.05,
    }
    local_spec = {
        "deltas": [0.0, round(float(rng.uniform(0.2, 0.4)), 3)],
        "thetas": [0.5, 0.5],
        "alpha": 0.05,
        "density": {
            "kind": "model",
            "family": "gaussian",
            "draws": 20_000,
            "seed": derived_seed(input_set, 201) % 2**31,
        },
    }
    size_path = os.path.join(workdir, "power_size.json")
    local_path = os.path.join(workdir, "power_local.json")
    for path, payload in ((size_path, size_spec), (local_path, local_spec)):
        with open(path, "w") as fh:
            json.dump(payload, fh)

    seed = str(input_set)
    return {
        "test_rp": ["test", "--input", big, "--depth", "rp", "--primed", "--seed", seed],
        "test_ksd": ["test", "--input", big, "--depth", "ksd", "--primed", "--seed", seed],
        "mc_spatial": ["mc", "--input", big, "--depth", "spatial", "--primed", "--seed", seed],
        "mc_exact": ["mc", "--input", small, "--depth", "mbd", "--method", "exact",
                     "--seed", seed],
        "depth_ksd": ["depth", "--input", big, "--depth", "ksd", "--seed", seed],
        "power_size": ["power", "--spec", size_path],
        "power_local": ["power", "--spec", local_path],
    }


def run_cli(argv) -> tuple:
    """One in-process CLI call; returns (exit code, captured stdout)."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(argv)
    return code, out.getvalue()


def cli_output(op: str, code: int, stdout: str) -> dict:
    """The checked fields of one op's output."""
    if op == "depth_ksd":
        return {"exit": code, "sha256": hashlib.sha256(stdout.encode()).hexdigest()}
    payload = json.loads(stdout)
    if op.startswith("test_"):
        fields = ("statistic", "p_value")
    elif op.startswith("mc_"):
        fields = ("pairwise_raw_p", "pairwise_adjusted_p")
    elif op == "power_size":
        fields = ("tau", "predicted_power", "required_N")
    else:
        fields = ("tau", "predicted_power")
    return {"exit": code, **{f: payload[f] for f in fields}}


def expected_exit_ok(op: str, code: int) -> bool:
    return code == 0 or (op.startswith("test_") and code == 2)


# ---------------------------------------------------------------------------
# comparison against the recorded outputs
# ---------------------------------------------------------------------------

def same(a, b) -> bool:
    """Recursive equality; floats agree to REL_TOL, everything else exactly."""
    if isinstance(a, list) and isinstance(b, list):
        return len(a) == len(b) and all(same(x, y) for x, y in zip(a, b))
    if isinstance(a, dict) and isinstance(b, dict):
        return a.keys() == b.keys() and all(same(a[k], b[k]) for k in a)
    if isinstance(a, float) or isinstance(b, float):
        if not isinstance(a, (int, float)) or not isinstance(b, (int, float)):
            return False
        return math.isclose(a, b, rel_tol=REL_TOL, abs_tol=0.0)
    return a == b
