"""Record the reference outputs that run.py checks against.

    python3 perfbench/record.py

Computes, for every workload and every input set, the rejection-rate
vector of each study call (warm-up included) and the checked fields of
each CLI op, and writes them to perfbench/reference.json, replacing the
file.  Run it only at a commit whose outputs are known to be right: the
file is what later commits are held to.
"""

from __future__ import annotations

import json
import os
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
REFERENCE = os.path.join(HERE, "reference.json")


def record_study(fkwc, W, name, input_set):
    calls = [
        W.study_output(fkwc.run_study(W.study_spec(name, input_set, call), n_jobs=1))
        for call in range(W.STUDIES[name]["calls"])
    ]
    warmup = W.study_output(fkwc.run_study(W.warmup_spec(name, input_set), n_jobs=1))
    return {"warmup": warmup, "calls": calls}


def record_cli(W, input_set, workdir):
    tempfile.tempdir = workdir
    argvs = W.write_cli_inputs(workdir, input_set)
    out = {}
    for op in W.CLI_OPS:
        code, stdout = W.run_cli(argvs[op])
        if not W.expected_exit_ok(op, code):
            raise SystemExit(f"{op} exited with {code} on input set {input_set}")
        out[op] = W.cli_output(op, code, stdout)
    return out


def main():
    os.environ["OPENBLAS_NUM_THREADS"] = "1"
    sys.path.insert(0, SRC)
    import fkwc
    import workloads as W

    ref = {}
    for name in W.WORKLOADS:
        entries = ref[name] = {}
        for input_set in range(W.INPUT_SETS):
            if name == W.CLI_WORKLOAD:
                with tempfile.TemporaryDirectory(dir=HERE) as workdir:
                    entries[str(input_set)] = record_cli(W, input_set, workdir)
            else:
                entries[str(input_set)] = record_study(fkwc, W, name, input_set)
            print(f"{name} input set {input_set} recorded", flush=True)
    with open(REFERENCE, "w") as fh:
        json.dump(ref, fh, indent=1, sort_keys=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
