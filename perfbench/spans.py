"""Spans around the calls into each fkwc module, recorded from outside.

``Tracer.installed()`` replaces each traced public function by a wrapper in
every fkwc module that holds it (``fkwc.sim.fkwc_test``,
``fkwc.cli.compute_depth``, ...), so calls between modules are seen too,
and puts the originals back on exit.  A span is
``[name, start, end, parent index, op id, extra]``, with start and end
read from the clock the tracer is given; spans stay in memory until the
run writes them out.
"""

from __future__ import annotations

import contextlib
import json
import sys

from workloads import SPEC_LABELS

# span name given to outermost depth evaluations; the spec label follows
DEPTH_EVAL = "depths.eval"
DEPTH_ENTRY = ("depths.depth_sort_keys", "depths.compute_depth")


def _spec(args, kwargs):
    """The DepthSpec of a depth_sort_keys/compute_depth call."""
    return args[1] if len(args) > 1 else kwargs["spec"]


def _depth_label(args, kwargs):
    spec = _spec(args, kwargs)
    return spec.kind + ("_p" if spec.use_derivatives else "")


def _pairwise_bytes(args, kwargs, result):
    """Difference-array bytes computed by spatial/ksd: queries x sample x
    m x 8 per channel, plus sample x sample x m x 8 per channel for ksd's
    bandwidth and Gram matrix.  Computed from shapes, not measured."""
    ds, spec = args[0], _spec(args, kwargs)
    if spec.kind not in ("spatial", "ksd"):
        return 0
    queries = args[2] if len(args) > 2 else kwargs.get("queries")
    n, m = ds.curves.shape
    q = n if queries is None else len(getattr(queries, "curves", queries))
    rows = q + n if spec.kind == "ksd" else q
    return rows * n * m * 8 * (2 if spec.use_derivatives else 1)


# (module, attribute, span name, extra(args, kwargs, result) -> number)
TRACED = (
    ("fkwc.sim", "generate", "sim.generate", None),
    ("fkwc.sim", "run_study", "sim.run_study", None),
    ("fkwc.fdata", "load_csv", "fdata.load_csv", None),
    ("fkwc.fdata", "differentiate", "fdata.differentiate", None),
    ("fkwc.depths", "depth_sort_keys", "depths.depth_sort_keys", None),
    ("fkwc.depths", "compute_depth", "depths.compute_depth", _pairwise_bytes),
    ("fkwc.depths", "halfspace_depth_2d", "depths.halfspace_depth_2d",
     lambda a, k, r: len(r)),
    ("fkwc.depths", "ranks_with_tiebreak", "depths.ranks_with_tiebreak",
     lambda a, k, r: r.tie_breaks_applied),
    ("fkwc.testing", "fkwc_test", "testing.fkwc_test", None),
    ("fkwc.testing", "kw_statistic", "testing.kw_statistic", None),
    ("fkwc.testing", "steel_mc", "testing.steel_mc", None),
    ("fkwc.testing", "wilcoxon_rank_sum", "testing.wilcoxon_rank_sum", None),
    ("fkwc.power", "noncentral_chisq_sf", "power.noncentral_chisq_sf", None),
    ("fkwc.power", "required_sample_size", "power.required_sample_size", None),
    ("fkwc.power", "density_from_samples", "power.density_from_samples", None),
)

# a method: the extra records whether the call actually computed
MATERIALISE = "fdata.with_finite_difference_derivatives"


class Tracer:
    def __init__(self, clock):
        self.clock = clock
        self.spans = []
        self._stack = []
        self.op_id = -1
        self._depth_nesting = 0
        # span names of traced functions the checked-out fkwc does not define
        self.missing = []

    @contextlib.contextmanager
    def span(self, name):
        """A span opened by the benchmark itself, e.g. one CLI op."""
        idx = self._open(name)
        try:
            yield
        finally:
            self._close(idx, None)

    def _open(self, name):
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, self.clock(), 0.0, parent, self.op_id, None])
        self._stack.append(idx)
        return idx

    def _close(self, idx, extra):
        self.spans[idx][2] = self.clock()
        self._stack.pop()
        self.spans[idx][5] = extra

    def _wrap(self, fn, name, extra_fn):
        tracer = self

        def traced(*args, **kwargs):
            if name not in DEPTH_ENTRY or tracer._depth_nesting:
                return traced_inner(args, kwargs)
            # outermost depth evaluation: attribute it to the spec's label
            outer = tracer._open(f"{DEPTH_EVAL}.{_depth_label(args, kwargs)}")
            try:
                return traced_inner(args, kwargs)
            finally:
                tracer._close(outer, None)

        def traced_inner(args, kwargs):
            idx = tracer._open(name)
            nests = name in DEPTH_ENTRY
            tracer._depth_nesting += nests
            extra = None
            try:
                result = fn(*args, **kwargs)
                if extra_fn is not None:
                    extra = extra_fn(args, kwargs, result)
                return result
            finally:
                tracer._depth_nesting -= nests
                tracer._close(idx, extra)

        traced.__wrapped__ = fn
        return traced

    @contextlib.contextmanager
    def installed(self):
        """Patch every traced name in every loaded fkwc module; restore on
        exit."""
        patches = []
        modules = [m for n, m in sys.modules.items() if n == "fkwc" or n.startswith("fkwc.")]
        for owner, attr, name, extra_fn in TRACED:
            original = getattr(sys.modules[owner], attr, None)
            if original is None:
                self._note_missing(name)
                continue
            wrapper = self._wrap(original, name, extra_fn)
            for mod in modules:
                if getattr(mod, attr, None) is original:
                    patches.append((mod, attr, original))
                    setattr(mod, attr, wrapper)
        cls = sys.modules["fkwc.fdata"].FunctionalDataset
        method = getattr(cls, "with_finite_difference_derivatives", None)
        if method is None:
            self._note_missing(MATERIALISE)
        else:
            patches.append((cls, "with_finite_difference_derivatives", method))
            setattr(
                cls,
                "with_finite_difference_derivatives",
                self._wrap(method, MATERIALISE, lambda a, k, r: int(a[0].derivatives is None)),
            )
        try:
            yield self
        finally:
            for target, attr, original in reversed(patches):
                setattr(target, attr, original)

    def _note_missing(self, name):
        if name not in self.missing:
            self.missing.append(name)

    def write(self, path):
        with open(path, "w") as fh:
            json.dump({"fields": ["name", "start", "end", "parent", "op", "extra"],
                       "spans": self.spans}, fh)


def calls_per_op(spans) -> dict:
    """{op: {span name: calls per op}} for the CLI ops the benchmark
    opened as ``cli.<op>`` spans."""
    op_of = {}
    ops = {}
    for name, _start, _end, parent, op_id, _extra in spans:
        if parent < 0 and name.startswith("cli."):
            op = name[len("cli."):]
            op_of[op_id] = op
            ops[op] = ops.get(op, 0) + 1
    counts = {op: {} for op in ops}
    for name, _start, _end, parent, op_id, _extra in spans:
        if parent >= 0 and op_id in op_of:
            per_op = counts[op_of[op_id]]
            per_op[name] = per_op.get(name, 0) + 1
    return {op: {name: n / ops[op] for name, n in names.items()}
            for op, names in counts.items()}


# ---------------------------------------------------------------------------
# per-layer metrics
# ---------------------------------------------------------------------------

def layer_metrics(spans, reps: int, cli_ops, missing) -> dict:
    """Per-layer metrics from the spans of ``reps`` traced units of work.

    busy_s is a span's whole duration; self_s subtracts its direct child
    spans (calls are synchronous in one thread, so children never overlap).
    The metrics of ``missing`` span names, traced functions the measured
    fkwc does not define, are left out rather than read as 0, so that a
    renamed function shows as a missing metric and not as a gain.
    """
    absent = set(missing)
    if absent & set(DEPTH_ENTRY):
        # depth evaluations through the absent entry point go unseen
        absent.update(f"{DEPTH_EVAL}.{label}" for label in SPEC_LABELS)
    child_time = [0.0] * len(spans)
    for name, start, end, parent, _op, _extra in spans:
        if parent >= 0:
            child_time[parent] += end - start

    calls, busy, self_time, extra = {}, {}, {}, {}
    for i, (name, start, end, _parent, _op, ext) in enumerate(spans):
        dur = end - start
        calls[name] = calls.get(name, 0) + 1
        busy[name] = busy.get(name, 0.0) + dur
        self_time[name] = self_time.get(name, 0.0) + dur - child_time[i]
        if ext is not None:
            extra[name] = extra.get(name, 0) + ext

    def per_rep(table, name):
        return None if name in absent else table.get(name, 0) / reps

    def c(name):
        return per_rep(calls, name)

    def b(name):
        return per_rep(busy, name)

    def s(name):
        return per_rep(self_time, name)

    def x(name):
        return per_rep(extra, name)

    out = {
        "sim.generate.calls": (c("sim.generate"), "calls/rep"),
        "sim.generate.busy_s": (b("sim.generate"), "s/rep"),
        "sim.run_study.self_s": (s("sim.run_study"), "s/rep"),
        "fdata.load_csv.calls": (c("fdata.load_csv"), "calls/rep"),
        "fdata.load_csv.busy_s": (b("fdata.load_csv"), "s/rep"),
        "fdata.differentiate.calls": (c("fdata.differentiate"), "calls/rep"),
        "fdata.differentiate.busy_s": (b("fdata.differentiate"), "s/rep"),
        "fdata.derivative_materialisations": (x(MATERIALISE), "count/rep"),
    }
    for label in SPEC_LABELS:
        out[f"depths.{label}.calls"] = (c(f"{DEPTH_EVAL}.{label}"), "calls/rep")
        out[f"depths.{label}.busy_s"] = (b(f"{DEPTH_EVAL}.{label}"), "s/rep")
    out.update({
        "depths.compute_depth.calls": (c("depths.compute_depth"), "calls/rep"),
        "depths.halfspace_depth_2d.calls": (c("depths.halfspace_depth_2d"), "calls/rep"),
        "depths.halfspace_depth_2d.queries": (x("depths.halfspace_depth_2d"), "count/rep"),
        "depths.pairwise_bytes": (x("depths.compute_depth"), "B/rep"),
        "depths.ranks_with_tiebreak.busy_s": (b("depths.ranks_with_tiebreak"), "s/rep"),
        "depths.tie_breaks": (x("depths.ranks_with_tiebreak"), "count/rep"),
        "testing.fkwc_test.calls": (c("testing.fkwc_test"), "calls/rep"),
        "testing.fkwc_test.self_s": (s("testing.fkwc_test"), "s/rep"),
        "testing.kw_statistic.busy_s": (b("testing.kw_statistic"), "s/rep"),
        "testing.steel_mc.self_s": (s("testing.steel_mc"), "s/rep"),
        "testing.wilcoxon_rank_sum.calls": (c("testing.wilcoxon_rank_sum"), "calls/rep"),
        "testing.wilcoxon_rank_sum.busy_s": (b("testing.wilcoxon_rank_sum"), "s/rep"),
        "power.noncentral_chisq_sf.calls": (c("power.noncentral_chisq_sf"), "calls/rep"),
        "power.noncentral_chisq_sf.busy_s": (b("power.noncentral_chisq_sf"), "s/rep"),
        "power.required_sample_size.busy_s": (b("power.required_sample_size"), "s/rep"),
        "power.density_from_samples.busy_s": (b("power.density_from_samples"), "s/rep"),
    })
    for op in cli_ops:
        out[f"cli.{op}.self_s"] = (s(f"cli.{op}"), "s/rep")
    return {name: entry for name, entry in out.items() if entry[0] is not None}
