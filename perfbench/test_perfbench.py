"""Tests of the benchmark itself.

    python3 -m pytest perfbench -q

A minimal run (one unit of work after set-up) of every workload, untraced
and traced, must print every metric BENCHMARK.json names, with its unit,
and pass its output checks; a perturbed reference must be reported as a
failure; compare.py must reach each verdict.
"""

from __future__ import annotations

import copy
import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
os.environ["OPENBLAS_NUM_THREADS"] = "1"
sys.path[:0] = [HERE, os.path.join(ROOT, "src")]

import compare  # noqa: E402
import metrics  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import workloads as W  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json")) as _fh:
    BENCH = json.load(_fh)

# seed 16 selects input set 0, like seed 0
SEED = 16


@pytest.fixture(scope="module")
def minimal_runs(tmp_path_factory):
    """stdout and result file of a minimal run per (workload, trace), made
    in a copy of the checkout so that no real result file is overwritten."""
    root = tmp_path_factory.mktemp("checkout")
    shutil.copytree(os.path.join(ROOT, "src"), root / "src",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copytree(HERE, root / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", "results", ".work"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), root)
    out = {}
    for workload in W.WORKLOADS:
        for trace in (0, 1):
            proc = subprocess.run(
                [sys.executable, "perfbench/run.py", "--workload", workload,
                 "--seed", str(SEED), "--seconds", "0", "--trace", str(trace)],
                cwd=root, capture_output=True, text=True, timeout=300,
            )
            assert proc.returncode == 0, proc.stderr
            tag = f"{workload}-seed{SEED}-trace{trace}"
            with open(root / "perfbench" / "results" / f"{tag}.json") as fh:
                result = json.load(fh)
            out[workload, trace] = (proc.stdout, result, tag)
    return out


def test_benchmark_json_matches_the_runner():
    assert [w["name"] for w in BENCH["workloads"]] == list(W.WORKLOADS)
    layer = spans.layer_metrics([], 1, W.CLI_OPS, ())
    assert [m["name"] for m in BENCH["per_layer"]] == list(layer)
    assert [m["unit"] for m in BENCH["per_layer"]] == [u for _v, u in layer.values()]


@pytest.mark.parametrize("workload", W.WORKLOADS)
@pytest.mark.parametrize("trace", (0, 1))
def test_minimal_run_prints_every_metric(minimal_runs, workload, trace):
    stdout, result, _tag = minimal_runs[workload, trace]
    lines = stdout.strip().splitlines()
    last = json.loads(lines[-1])
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    assert last["correct"] and last["failed"] == 0 and last["attempted"] >= 1
    declared = BENCH["per_layer"] if trace else BENCH["end_to_end"]
    assert set(last["metrics"]) == {m["name"] for m in declared}
    for m in declared:
        assert last["metrics"][m["name"]]["unit"] == m["unit"]
    if not trace:
        # every end-to-end metric of the workload, with unit and sample count
        units = {m["name"]: m["unit"] for m in BENCH["end_to_end"]}
        units.update({name: unit for name, (unit, _b, _bound) in metrics.REPORTED.items()})
        for name, unit in units.items():
            if name.endswith("_p50_s") and workload != W.CLI_WORKLOAD:
                continue
            row = next(line for line in lines if line.split()[:1] == [name])
            assert row.split()[2] == unit and "n=" in row
            assert result["metrics"][name]["n"] >= 1
    else:
        assert "tracing overhead" in stdout
    prov = result["provenance"]
    for key in ("git_commit", "seed", "nproc", "python", "numpy", "scipy",
                "blas_name", "blas_version"):
        assert key in prov
    assert prov["thread_pin"] == {"OPENBLAS_NUM_THREADS": "1"}


def test_traced_runs_show_what_each_workload_was_chosen_for(minimal_runs):
    t1 = minimal_runs["study-t1-all12", 1][1]["metrics"]
    times = {n: m["value"] for n, m in t1.items() if n.endswith("_s")}
    assert max(times, key=times.get) == "depths.mfhd_p.busy_s"

    gauss = minimal_runs["study-gauss-ltr", 1][1]["metrics"]
    for label in W.SPEC_LABELS:
        calls = gauss[f"depths.{label}.calls"]["value"]
        assert (calls > 0) == (label in ("ltr", "ltr_p")), label

    cli = minimal_runs["cli-n300-j3", 1][1]
    assert cli["per_op_calls"]["depth_ksd"]["depths.compute_depth"] == 2


def _reference():
    with open(run.REFERENCE) as fh:
        return json.load(fh)


def _perturbed(reference):
    ref = copy.deepcopy(reference)
    ref["calls"][0][0] += 0.005
    return ref


def test_perturbed_study_reference_is_a_failure():
    import fkwc

    name = "study-gauss-ltr"
    ref = _reference()[name]["0"]
    checks = run.Checks(W.same)
    run.run_study_workload(fkwc, W, name, 0, 0, None, ref, checks)
    assert checks.failed == 0
    checks = run.Checks(W.same)
    run.run_study_workload(fkwc, W, name, 0, 0, None, _perturbed(ref), checks)
    assert checks.failed == 1 and checks.failures[0]["op"] == "call0"


def test_perturbed_cli_reference_is_a_failure(tmp_path):
    ref = _reference()["cli-n300-j3"]["0"]
    argvs = W.write_cli_inputs(str(tmp_path), 0)
    code, out = W.run_cli(argvs["power_size"])
    got = W.cli_output("power_size", code, out)
    assert W.same(got, ref["power_size"])
    bad = dict(ref["power_size"], predicted_power=ref["power_size"]["predicted_power"] * 1.001)
    assert not W.same(got, bad)
    bad = dict(ref["power_size"], required_N=ref["power_size"]["required_N"] + 1)
    assert not W.same(got, bad)


def _runs(values):
    return {"w": {seed: {"reps_per_s": v} for seed, v in enumerate(values)}}


@pytest.mark.parametrize("change, expected", [
    ([110, 111, 112, 113, 114, 115, 116, 117, 118, 119], "improved"),
    ([100.5, 99.5, 100.2, 99.8, 100.1, 99.9, 100.3, 99.7, 100.0, 100.4], "no worse"),
    ([80, 81, 82, 83, 84, 85, 86, 87, 88, 89], "worse"),
])
def test_compare_verdicts(change, expected):
    parent = [100, 101, 99, 100.5, 99.5, 100.2, 99.8, 100.1, 99.9, 100.3]
    table = {"reps_per_s": ("1/s", "higher", 0.1)}
    rows = compare.compare(_runs(parent), _runs(change), table)
    assert rows[0][-1] == expected


def test_compare_claims_no_gain_on_fewer_than_ten_pairs():
    parent = [100, 101, 99, 100.5, 99.5, 100.2, 99.8, 100.1, 99.9]
    change = [110, 111, 112, 113, 114, 115, 116, 117, 118]
    rows = compare.compare(_runs(parent), _runs(change), {"reps_per_s": ("1/s", "higher", 0.1)})
    assert rows[0][-2:] == (9, "no worse")


def test_compare_claims_no_gain_when_more_ops_fail():
    parent = _runs([100, 101, 99, 100.5, 99.5, 100.2, 99.8, 100.1, 99.9, 100.3])
    change = _runs([110, 111, 112, 113, 114, 115, 116, 117, 118, 119])
    for seed, run_metrics in parent["w"].items():
        run_metrics["failed_frac"] = 0.0
        change["w"][seed]["failed_frac"] = 0.1 if seed == 0 else 0.0
    table = {"reps_per_s": ("1/s", "higher", 0.1), "failed_frac": ("ratio", "lower", 0.0)}
    verdicts = {row[1]: row[-1] for row in compare.compare(parent, change, table)}
    assert verdicts == {"reps_per_s": "no worse", "failed_frac": "worse"}


def test_compare_rejects_two_runs_of_one_seed(tmp_path):
    result = {"workload": "w", "trace": 0, "provenance": {"seed": 3},
              "metrics": {"reps_per_s": {"value": 1.0, "unit": "1/s"}}}
    paths = []
    for side in ("a", "b"):
        path = tmp_path / f"{side}.json"
        path.write_text(json.dumps(result))
        paths.append(str(path))
    with pytest.raises(ValueError, match="seed 3"):
        compare.load(paths)


def test_compare_reports_wide_spread_as_unresolved():
    parent = [60, 140, 70, 130, 80, 120, 90, 110, 100, 100]
    change = [95, 96, 97, 98, 99, 100, 101, 102, 103, 104]
    rows = compare.compare(_runs(parent), _runs(change), {"reps_per_s": ("1/s", "higher", 0.1)})
    assert rows[0][-1] == "unresolved"


def test_tracer_restores_patches_and_leaves_out_absent_names(monkeypatch):
    import fkwc.depths
    import fkwc.power
    import fkwc.testing

    original = fkwc.testing.fkwc_test
    monkeypatch.delattr(fkwc.power, "density_from_samples")
    monkeypatch.delattr(fkwc.depths, "halfspace_depth_2d")
    tracer = spans.Tracer(run.CLOCK)
    with tracer.installed():
        assert fkwc.testing.fkwc_test is not original
    assert fkwc.testing.fkwc_test is original
    assert tracer.missing == ["depths.halfspace_depth_2d", "power.density_from_samples"]
    layer = spans.layer_metrics([], 1, W.CLI_OPS, tracer.missing)
    assert "power.density_from_samples.busy_s" not in layer
    assert "depths.halfspace_depth_2d.calls" not in layer
    assert "depths.halfspace_depth_2d.queries" not in layer
    assert layer["sim.generate.calls"] == (0.0, "calls/rep")
    # an absent depth entry point hides every spec label's depth time
    layer = spans.layer_metrics([], 1, W.CLI_OPS, ["depths.compute_depth"])
    assert not any(name.startswith("depths.mfhd") for name in layer)
