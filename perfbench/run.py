"""Run one workload of the fkwc benchmark and print its metrics.

    python3 perfbench/run.py --workload study-t1-all12 --seed 3 --seconds 20 --trace 0

Runs from the root of a source checkout and imports fkwc from its ``src``
directory, in one process with OPENBLAS_NUM_THREADS=1.  With ``--trace 0``
it prints the end-to-end metrics; with ``--trace 1`` it alternates traced
and untraced units of work and prints the per-layer metrics of the traced
ones, with the tracing overhead.  Every output is checked against
``reference.json``.  A result file with provenance goes to
``perfbench/results/``.  The last line of stdout is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
RESULTS = os.path.join(HERE, "results")
REFERENCE = os.path.join(HERE, "reference.json")
BENCHMARK_JSON = os.path.join(ROOT, "BENCHMARK.json")

THREAD_PIN = {"OPENBLAS_NUM_THREADS": "1"}
# Every reported time is CPU time of this process (all its threads).  The
# loop is single-threaded and CPU-bound, so on a quiet machine it equals
# wall time; on a shared VM it leaves out the time the hypervisor steals,
# which on a 2-vCPU VM spread the wall-time reps_per_s of ten equal runs
# by 30 % (quartile distance over median).
CLOCK = time.process_time
# --seconds is measured on the wall clock
WALL = time.perf_counter
# the inputs are built this often in a run and the median counts in
# setup_s; the warm-up runs once, since a second call finds nothing cold
SETUP_REPEATS = 3


class Checks:
    """Counts ops attempted and failed; an op fails when it raises, exits
    with an unexpected code, or differs from its recorded output."""

    def __init__(self, same):
        self.same = same
        self.attempted = 0
        self.failed = 0
        self.failures = []

    def record(self, label, got, want):
        self.attempted += 1
        if want is None or not self.same(got, want):
            self.failed += 1
            self.failures.append({"op": label, "got": got, "want": want})

    def error(self, label, exc):
        self.attempted += 1
        self.failed += 1
        self.failures.append({"op": label, "error": "".join(
            traceback.format_exception_only(type(exc), exc)).strip()})


def median(values):
    return statistics.median(values) if values else float("nan")


def timed_median(make, repeats):
    """(last result, median seconds) of ``repeats`` calls of ``make()``."""
    times = []
    for _ in range(repeats):
        start = CLOCK()
        result = make()
        times.append(CLOCK() - start)
    return result, median(times)


# ---------------------------------------------------------------------------
# workloads
# ---------------------------------------------------------------------------

def run_study_workload(fkwc, W, name, input_set, seconds, tracer, ref, checks):
    calls = W.STUDIES[name]["calls"]
    specs, inputs_s = timed_median(
        lambda: [W.study_spec(name, input_set, call) for call in range(calls)],
        SETUP_REPEATS)
    start = CLOCK()
    try:
        out = W.study_output(fkwc.run_study(W.warmup_spec(name, input_set), n_jobs=1))
        checks.record("warmup", out, ref.get("warmup"))
    except Exception as exc:  # a failing op is counted, not fatal
        checks.error("warmup", exc)
    warmup_s = CLOCK() - start

    reps, unit_s, traced_s, traced_reps = 0, [], [], 0
    begin = WALL()
    k = 0
    while k < (2 if tracer else 1) or WALL() - begin < seconds:
        call = k % calls
        spec = specs[call]
        trace_this = tracer is not None and k % 2 == 1
        with tracer.installed() if trace_this else contextlib.nullcontext():
            if trace_this:
                tracer.op_id = k
            start = CLOCK()
            try:
                result = fkwc.run_study(spec, n_jobs=1)
            except Exception as exc:
                result = exc
            elapsed = CLOCK() - start
        label = f"call{call}"
        if isinstance(result, Exception):
            checks.error(label, result)
        else:
            recorded = ref.get("calls", [])
            want = recorded[call] if call < len(recorded) else None
            checks.record(label, W.study_output(result), want)
        if trace_this:
            traced_s.append(elapsed)
            traced_reps += spec.replications
        else:
            unit_s.append(elapsed)
            reps += spec.replications
        k += 1
    return {
        "inputs_s": inputs_s,
        "warmup_s": warmup_s,
        "reps": reps,
        "unit_s": unit_s,
        "traced_unit_s": traced_s,
        "traced_reps": traced_reps,
        "latencies": {},
    }


def run_cli_workload(fkwc, W, input_set, seconds, tracer, ref, checks, workdir):
    import tempfile

    # fkwc's CLI writes its CSV round trips through the temp directory
    tempfile.tempdir = workdir

    def call(op, argv):
        try:
            code, out = W.run_cli(argv)
            if not W.expected_exit_ok(op, code):
                raise RuntimeError(f"exit code {code}")
            checks.record(op, W.cli_output(op, code, out), ref.get(op))
        except Exception as exc:
            checks.error(op, exc)

    argvs, inputs_s = timed_median(
        lambda: W.write_cli_inputs(workdir, input_set), SETUP_REPEATS)
    start = CLOCK()
    for op in W.CLI_OPS:
        call(op, argvs[op])
    warmup_s = CLOCK() - start

    latencies = {op: [] for op in W.CLI_OPS}
    cycle_s, traced_s = [], []
    begin = WALL()
    k = 0
    op_id = 0
    while k < (2 if tracer else 1) or WALL() - begin < seconds:
        trace_this = tracer is not None and k % 2 == 1
        with tracer.installed() if trace_this else contextlib.nullcontext():
            cycle_start = CLOCK()
            for op in W.CLI_CYCLE:
                if trace_this:
                    tracer.op_id = op_id
                    with tracer.span(f"cli.{op}"):
                        call(op, argvs[op])
                else:
                    start = CLOCK()
                    call(op, argvs[op])
                    latencies[op].append(CLOCK() - start)
                op_id += 1
            elapsed = CLOCK() - cycle_start
        (traced_s if trace_this else cycle_s).append(elapsed)
        k += 1
    return {
        "inputs_s": inputs_s,
        "warmup_s": warmup_s,
        "reps": len(cycle_s),
        "unit_s": cycle_s,
        "traced_unit_s": traced_s,
        "traced_reps": len(traced_s),
        "latencies": latencies,
    }


# ---------------------------------------------------------------------------
# provenance
# ---------------------------------------------------------------------------

def git_commit():
    """HEAD of the checkout, read from .git without running git; None
    when the checkout is not a git repository."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_path = os.path.join(git, ref)
        if os.path.isfile(ref_path):
            with open(ref_path) as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs")) as fh:
            for line in fh:
                if line.strip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return None


def source_digest():
    """sha256 over the package sources, to tell checkouts apart when no
    git metadata is present."""
    import hashlib

    digest = hashlib.sha256()
    pkg = os.path.join(SRC, "fkwc")
    for fname in sorted(os.listdir(pkg)):
        if fname.endswith(".py"):
            digest.update(fname.encode())
            with open(os.path.join(pkg, fname), "rb") as fh:
                digest.update(fh.read())
    return digest.hexdigest()


def cpu_model():
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def provenance(seed, input_set):
    import numpy as np
    import scipy

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "git_commit": git_commit(),
        "source_sha256": source_digest(),
        "seed": seed,
        "input_set": input_set,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model(),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas_name": blas.get("name"),
        "blas_version": blas.get("version"),
        "thread_pin": {k: os.environ.get(k) for k in THREAD_PIN},
    }


# ---------------------------------------------------------------------------
# main
# ---------------------------------------------------------------------------

def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True,
                        help="length of the timed loop, after set-up")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    return 2


def main(argv=None):
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "fkwc", "__init__.py")):
        return fail(f"no fkwc sources under {SRC}; run from the root of a checkout")
    for path in (REFERENCE, BENCHMARK_JSON):
        if not os.path.isfile(path):
            return fail(f"missing {path}")

    os.environ.update(THREAD_PIN)  # before numpy loads OpenBLAS
    sys.path.insert(0, SRC)
    start = CLOCK()
    import fkwc
    import_s = CLOCK() - start
    if not os.path.abspath(fkwc.__file__).startswith(SRC + os.sep):
        return fail(f"imported fkwc from {fkwc.__file__}, not from {SRC}")

    import metrics
    import spans
    import workloads as W

    if args.workload not in W.WORKLOADS:
        return fail(f"unknown workload {args.workload!r}; expected one of {W.WORKLOADS}")
    with open(BENCHMARK_JSON) as fh:
        bench = json.load(fh)
    input_set = args.seed % W.INPUT_SETS
    with open(REFERENCE) as fh:
        ref = json.load(fh)[args.workload].get(str(input_set), {})
    tracer = spans.Tracer(CLOCK) if args.trace else None
    checks = Checks(W.same)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    workdir = os.path.join(HERE, ".work", f"{tag}-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    try:
        if args.workload == W.CLI_WORKLOAD:
            run = run_cli_workload(fkwc, W, input_set, args.seconds, tracer, ref, checks,
                                   workdir)
        else:
            run = run_study_workload(fkwc, W, args.workload, input_set, args.seconds,
                                     tracer, ref, checks)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    # value and sample count of every end-to-end metric this workload reports
    table = {
        "setup_s": (import_s + run["inputs_s"] + run["warmup_s"], 1),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, 1),
        "failed_frac": (checks.failed / max(checks.attempted, 1), checks.attempted),
        "reps_per_s": (run["reps"] / sum(run["unit_s"]), len(run["unit_s"])),
    }
    for op, values in run["latencies"].items():
        table[f"{op}_p50_s"] = (median(values), len(values))
    if tracer is None:
        names = [m["name"] for m in bench["end_to_end"]]
        units = {m["name"]: m["unit"] for m in bench["end_to_end"]}
        units.update({name: unit for name, (unit, _b, _bound) in metrics.REPORTED.items()})
        report = {
            name: {"value": value, "unit": units[name], "n": n}
            for name, (value, n) in table.items()
        }
    else:
        layer = spans.layer_metrics(tracer.spans, run["traced_reps"], W.CLI_OPS,
                                    tracer.missing)
        names = [m["name"] for m in bench["per_layer"]]
        report = {name: {"value": v, "unit": u, "n": run["traced_reps"]}
                  for name, (v, u) in layer.items()}
        overhead = median(run["traced_unit_s"]) / median(run["unit_s"]) - 1.0

    os.makedirs(RESULTS, exist_ok=True)
    result = {
        "workload": args.workload,
        "trace": args.trace,
        "seconds": args.seconds,
        "provenance": provenance(args.seed, input_set),
        "import_s": import_s,
        "inputs_s": run["inputs_s"],
        "warmup_s": run["warmup_s"],
        "unit_s": run["unit_s"],
        "metrics": report,
        "failures": checks.failures,
    }
    if tracer is not None:
        result["traced_unit_s"] = run["traced_unit_s"]
        result["trace_overhead"] = overhead
        result["per_op_calls"] = spans.calls_per_op(tracer.spans)
        result["not_traced"] = tracer.missing
        tracer.write(os.path.join(RESULTS, f"{tag}.spans.json"))
    result_path = os.path.join(RESULTS, f"{tag}.json")
    with open(result_path, "w") as fh:
        json.dump(result, fh, indent=1)

    print(f"workload {args.workload}  seed {args.seed} (input set {input_set})  "
          f"trace {args.trace}  -> {os.path.relpath(result_path, ROOT)}")
    for name, entry in report.items():
        print(f"  {name:40s} {entry['value']:14.6g} {entry['unit']:10s} n={entry['n']}")
    if tracer is not None:
        print(f"  tracing overhead {overhead:+.2%} (median traced unit "
              f"{median(run['traced_unit_s']):.4g} s vs untraced "
              f"{median(run['unit_s']):.4g} s)")
        if tracer.missing:
            print(f"  not traced (absent from this fkwc): {', '.join(tracer.missing)}")
        for op, calls in result["per_op_calls"].items():
            print(f"  calls per {op} op: " + ", ".join(
                f"{name} {count:g}" for name, count in sorted(calls.items())))
    for failure in checks.failures[:5]:
        print(f"  FAILED {json.dumps(failure)[:300]}")

    missing = [n for n in names if n not in report]
    if missing:
        return fail(f"workload does not report {missing}")
    print(json.dumps({
        "correct": checks.failed == 0,
        "attempted": checks.attempted,
        "failed": checks.failed,
        "metrics": {n: {"value": report[n]["value"], "unit": report[n]["unit"]} for n in names},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
