"""Compare two sets of benchmark result files, parent against change.

    python3 perfbench/compare.py --parent DIR_OR_FILE... --change DIR_OR_FILE...

Reads the untraced result files (``*-trace0.json``) that run.py writes,
and prints one row per workload and end-to-end metric: each side's median
and quartiles with the run count, the pair win count, and a verdict.
Runs are paired by seed; two runs of one workload and seed on the same
side are an error.  The verdict follows the rule the benchmark is held to:

* improved   -- at least ten pairs, the change wins at least 9/10 of them
                (ties count for neither), the medians differ, in the better
                direction, by more than the parent's quartile distance, and
                the change's ``failed_frac`` is not above the parent's;
* unresolved -- the parent's quartile distance is wider than the metric's
                bound, and not every change run beats every parent run;
* worse      -- the change's median is worse than the parent's by more
                than the bound (share of the parent's median); for
                ``failed_frac``, any rise in its mean over the runs;
* no worse   -- otherwise.

Bounds come from BENCHMARK.json, and from metrics.py for the metrics
that BENCHMARK.json does not list.
"""

from __future__ import annotations

import argparse
import glob
import json
import os
import statistics
import sys

import metrics

HERE = os.path.dirname(os.path.abspath(__file__))
BENCHMARK_JSON = os.path.join(os.path.dirname(HERE), "BENCHMARK.json")

# fewest pairs on which a gain may be claimed
MIN_PAIRS = 10
FAILED = "failed_frac"


def bounds():
    """{metric: (unit, better, bound)} of every end-to-end metric."""
    with open(BENCHMARK_JSON) as fh:
        table = {m["name"]: (m["unit"], m["better"], m["bound"])
                 for m in json.load(fh)["end_to_end"]}
    table.update(metrics.REPORTED)
    return table


def load(paths):
    """{workload: {seed: {metric: value}}} from result files or directories."""
    files = []
    for path in paths:
        if os.path.isdir(path):
            files += sorted(glob.glob(os.path.join(path, "*-trace0.json")))
        else:
            files.append(path)
    runs = {}
    for path in files:
        with open(path) as fh:
            result = json.load(fh)
        if result.get("trace"):
            continue
        workload, seed = result["workload"], result["provenance"]["seed"]
        seeds = runs.setdefault(workload, {})
        if seed in seeds:
            raise ValueError(f"two runs of {workload} with seed {seed} (second: {path})")
        seeds[seed] = {name: m["value"] for name, m in result["metrics"].items()}
    return runs


def quartiles(values):
    if len(values) == 1:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[0], q[2]


def verdict(parent, change, better, bound, pairs, more_failures):
    sign = 1.0 if better == "higher" else -1.0
    p_med, c_med = statistics.median(parent), statistics.median(change)
    p_q1, p_q3 = quartiles(parent)
    spread = p_q3 - p_q1
    wins = sum(1 for p, c in pairs if sign * (c - p) > 0)
    if better == "higher":
        all_better = min(change) > max(parent)
    else:
        all_better = max(change) < min(parent)
    if (len(pairs) >= MIN_PAIRS and wins >= 0.9 * len(pairs)
            and sign * (c_med - p_med) > spread and not more_failures):
        return "improved", wins
    if spread > bound * abs(p_med) and not all_better:
        return "unresolved", wins
    if -sign * (c_med - p_med) > bound * abs(p_med):
        return "worse", wins
    return "no worse", wins


def compare(parent_runs, change_runs, table):
    rows = []
    for workload in sorted(set(parent_runs) | set(change_runs)):
        p_runs = parent_runs.get(workload, {})
        c_runs = change_runs.get(workload, {})
        # a gain does not count when more ops fail than at the parent
        more_failures = failed(c_runs) > failed(p_runs)
        names = sorted({n for r in list(p_runs.values()) + list(c_runs.values()) for n in r})
        for name in names:
            unit, better, bound = table.get(name, ("?", "lower", 0.0))
            parent = [r[name] for r in p_runs.values() if name in r]
            change = [r[name] for r in c_runs.values() if name in r]
            if not parent or not change:
                rows.append((workload, name, unit, parent, change, 0, 0, "missing"))
                continue
            pairs = [(p_runs[s][name], c_runs[s][name])
                     for s in sorted(set(p_runs) & set(c_runs))
                     if name in p_runs[s] and name in c_runs[s]]
            v, wins = verdict(parent, change, better, bound, pairs, more_failures)
            if name == FAILED and more_failures:
                # a failure in any one run is a regression; the median can hide it
                v = "worse"
            rows.append((workload, name, unit, parent, change, wins, len(pairs), v))
    return rows


def failed(runs):
    """Mean failed_frac over the runs of one side of one workload."""
    values = [r[FAILED] for r in runs.values() if FAILED in r]
    return statistics.mean(values) if values else 0.0


def fmt(values):
    if not values:
        return "-"
    q1, q3 = quartiles(values)
    return f"{statistics.median(values):.4g} [{q1:.4g}, {q3:.4g}] n={len(values)}"


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", nargs="+", required=True)
    parser.add_argument("--change", nargs="+", required=True)
    args = parser.parse_args(argv)
    try:
        parent_runs, change_runs = load(args.parent), load(args.change)
    except ValueError as exc:
        print(f"compare: {exc}", file=sys.stderr)
        return 2
    rows = compare(parent_runs, change_runs, bounds())
    header = ("workload", "metric", "unit", "parent median [q1, q3]",
              "change median [q1, q3]", "wins", "verdict")
    lines = [header] + [
        (w, n, u, fmt(p), fmt(c), f"{wins}/{npairs}", v)
        for w, n, u, p, c, wins, npairs, v in rows
    ]
    widths = [max(len(line[i]) for line in lines) for i in range(len(header))]
    for line in lines:
        print("  ".join(cell.ljust(width) for cell, width in zip(line, widths)).rstrip())
    return 1 if any(r[-1] in ("worse", "missing") for r in rows) else 0


if __name__ == "__main__":
    sys.exit(main())
