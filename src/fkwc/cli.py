"""Command-line front end.

Each subcommand is one row of ``_COMMANDS``: its handler, help, flag groups
and ``--format`` choices.  A handler returns its exit code, a JSON payload
and rows for a table or CSV; ``main`` prints the one the format names, or
writes it to ``--output``.

Exit codes: 0 success (no rejection), 2 rejection at level alpha (the
k-sample test only), 1 input error or standard output closed by its reader
(broken pipe), 3 parameter error, a command-line usage error among them, 4
numerical error.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import sys
from contextlib import nullcontext

import numpy as np

from . import __version__
from .depths import (
    DEPTH_KERNELS,
    DepthSpec,
    MEDIAN_HEURISTIC,
    compute_depth,
    depth_ranks,
)
from .exceptions import DataError, NumericalError, ParameterError
from .fdata import FunctionalDataset, Grid, load_csv, write_csv
from .power import (
    LocalAlternativeSpec,
    SupportDensity,
    density_from_callable,
    density_from_histogram,
    density_from_samples,
    power_from_local,
    power_from_pairwise,
    required_sample_size,
)
from .sim import (
    ProcessModel,
    StudySpec,
    generate_blocks,
    run_study,
    scenario_models,
    study_rows,
)
from .testing import TestConfig, fkwc_test, steel_mc

EXIT_OK = 0
EXIT_INPUT = 1
EXIT_REJECT = 2
EXIT_PARAMETER = 3
EXIT_NUMERICAL = 4


def _add_data_flags(sub):
    sub.add_argument("--input", required=True, help="wide CSV dataset (group column, grid header)")
    sub.add_argument(
        "--derivatives",
        default="finite-diff",
        help="derivative channel: 'finite-diff' (default) or 'file=PATH' with a matching CSV",
    )
    # the depth flags' dests are the JSON depth-node keys; a flag left out
    # stays out of the namespace, so DepthSpec's own default applies
    add = functools.partial(sub.add_argument, default=argparse.SUPPRESS)
    add("--depth", dest="kind", choices=DEPTH_KERNELS, help="depth function")
    add("--primed", action="store_true", help="augment the depth with derivatives")
    add("--projections", type=int, help="number of random directions (rp)")
    add("--band-order", type=int, help="maximal band order (mbd)")
    add("--bandwidth", help="squared kernel bandwidth for ksd, or 'median-heuristic'")
    add("--weights", type=float, nargs=2, metavar=("W0", "W1"),
        help="channel weights for primed mbd/spatial/ksd")
    add("--seed", type=int, help="seed for projections and tie-breaking")


def _add_test_flags(sub):
    sub.add_argument("--alpha", type=float, default=0.05, help="significance level")
    sub.add_argument(
        "--r", type=float, default=None,
        help="percentile modification: keep the floor(r*N) least-deep ranks (r in (0,1])",
    )


def _add_mc_flags(sub):
    sub.add_argument("--correction", choices=("sidak", "bonferroni", "holm"), default="sidak")
    sub.add_argument(
        "--correction-count", type=int, default=None,
        help="family size m for the correction (default: number of pairs)",
    )
    sub.add_argument("--method", choices=("normal", "exact"), default="normal",
                     help="rank-sum p-value: normal approximation, or the exact null "
                          "(up to about 100 vs 100 curves per group pair)")


def _add_power_flags(sub):
    sub.add_argument("--spec", required=True, help="JSON file describing the computation")


def _add_simulate_flags(sub):
    sub.add_argument("--spec", required=True, help="JSON study description")
    sub.add_argument("--threads", type=int, default=1,
                     help="most worker processes for replicates (>= 1); capped at one per "
                          "8 replicates and per usable CPU")


def _load_dataset(args) -> FunctionalDataset:
    deriv_path = None
    mode = args.derivatives
    if mode.startswith("file="):
        deriv_path = mode[len("file="):]
    elif mode != "finite-diff":
        raise ParameterError("--derivatives must be 'finite-diff' or 'file=PATH'")
    return load_csv(args.input, derivatives_path=deriv_path)


def _depth_spec(args) -> DepthSpec:
    return _depth_spec_from_json({k: v for k, v in vars(args).items() if k in _DEPTH_FIELDS})


def _table(rows) -> str:
    widths = [max(len(str(r[i])) for r in rows) for i in range(len(rows[0]))]
    return "\n".join("  ".join(str(c).ljust(w) for c, w in zip(row, widths)) for row in rows)


def cmd_test(args) -> tuple:
    ds = _load_dataset(args)
    config = TestConfig(depth_spec=_depth_spec(args), alpha=args.alpha, percentile_r=args.r)
    result = fkwc_test(ds, config)
    rows = [
        ("statistic_kind", result.statistic_kind),
        ("statistic", f"{result.statistic:.6g}"),
        ("df", result.df),
        ("p_value", f"{result.p_value:.6g}"),
        ("alpha", result.alpha),
        ("reject", "yes" if result.reject else "no"),
    ]
    rows += [
        (f"group_{g} mean_rank", f"{mu:.4f} (dev {dev:.4f})")
        for g, (mu, dev) in enumerate(
            zip(result.group_mean_ranks, result.group_deviations), start=1
        )
    ]
    return EXIT_REJECT if result.reject else EXIT_OK, result.to_dict(), rows


def cmd_mc(args) -> tuple:
    ds = _load_dataset(args)
    result = steel_mc(
        ds,
        _depth_spec(args),
        correction_count=args.correction_count,
        correction=args.correction,
        method=args.method,
    )
    j = result.pairwise_raw_p.shape[0]
    rows = [("pair", "raw_p", "adjusted_p")]
    for a in range(j):
        for b in range(a + 1, j):
            rows.append(
                (
                    f"{a + 1} vs {b + 1}",
                    f"{result.pairwise_raw_p[a, b]:.6g}",
                    f"{result.pairwise_adjusted_p[a, b]:.6g}",
                )
            )
    rows.append(("comparisons", result.num_comparisons, result.correction))
    return EXIT_OK, result.to_dict(), rows


def cmd_depth(args) -> tuple:
    ds = _load_dataset(args)
    spec = _depth_spec(args)
    dv = compute_depth(ds, spec)
    rv = depth_ranks(ds, spec)
    header = ("index", "group", "depth", "rank")
    columns = (range(len(ds.groups)), ds.groups.tolist(), dv.values.tolist(), rv.ranks.tolist())
    rows = list(zip(*columns))
    payload = {
        "depth": spec.label,
        "tie_breaks_applied": rv.tie_breaks_applied,
        "curves": [dict(zip(header, row)) for row in rows],
    }
    rows = [(i, g, format(d, ".17g"), r) for i, g, d, r in rows]
    return EXIT_OK, payload, [header] + rows


_REQUIRED = object()


def _object(node) -> dict:
    """``node``, or a parameter error naming it if it is not a JSON object."""
    if not isinstance(node, dict):
        raise ParameterError(f"spec node {node!r} must be a JSON object")
    return node


def _read(node, key, cast=None, default=_REQUIRED):
    """``node[key]`` (or ``default`` when absent) through ``cast``; a missing
    required key or a value ``cast`` refuses is a parameter error naming
    the key."""
    if key not in _object(node) and default is _REQUIRED:
        raise ParameterError(f"spec needs {key!r}")
    value = node.get(key, default)
    if cast is None:
        return value
    try:
        return cast(value)
    except (TypeError, ValueError):
        raise ParameterError(
            f"{key} must be {getattr(cast, 'needs', 'a well-formed value')}; "
            f"spec key {key!r} has the value {value!r}"
        ) from None


def _fields(node, fields) -> dict:
    """Keyword arguments for the keys of ``node`` that ``fields`` maps as
    {key: (argument, cast)}; absent keys keep the callee's defaults."""
    node = _object(node)
    return {arg: _read(node, key, cast) for key, (arg, cast) in fields.items() if key in node}


_floats = functools.partial(np.asarray, dtype=float)


def _integer(value) -> int:
    """An int, an integral float or an integer written as a string
    (``"200"``) as that integer; other floats and bools are refused, not
    truncated or read as 0 and 1."""
    if isinstance(value, float) and value.is_integer():
        return int(value)
    if isinstance(value, bool) or not isinstance(value, (int, str)):
        raise TypeError(value)
    return int(value)


def _boolean(value) -> bool:
    """A JSON boolean; ``"false"`` or 0 is refused, not read by truthiness."""
    if not isinstance(value, bool):
        raise TypeError(value)
    return value


# what a cast of _read needs, for its message when it refuses a value
_integer.needs = "an integer"
_boolean.needs = "true or false"


class _Count:
    """A cast of _read: an integer from ``low`` to ``high``, or with ``many``
    a list of them as a tuple."""

    def __init__(self, low, high, many=False):
        self.low, self.high, self.many = low, high, many
        self.needs = f"{'a list of integers' if many else 'an integer'} from {low} to {high:,}"

    def __call__(self, value):
        if self.many:
            return tuple(map(_Count(self.low, self.high), value))
        value = _integer(value)
        if not self.low <= value <= self.high:
            raise ValueError(value)
        return value


# Each count read from a spec or a flag has a maximum, checked before
# anything is allocated:
# most model-density draws: their squared norms and np.percentile's sorted
# copy of them take 16 bytes a draw, 160 MB at this bound
_MAX_DRAWS = 10_000_000
# most grid points of a generated curve: a model's m x m kernel and its
# Cholesky factor take 16 bytes a cell, 64 MB at this bound
_MAX_GRID_POINTS = 2_001
# most curves in one simulated group, 100x the N = 1000 the depth kernels are
# sized for: the group's curves take 8 bytes a point, 81 MB at 101 points
_MAX_GROUP_SIZE = 100_000
# most rp directions: the projections and their counts take 32 bytes a curve
# and direction, 96 MB at N = 300 and this bound
_MAX_PROJECTIONS = 10_000


def _density_from_json(node) -> SupportDensity:
    kind = _read(node, "kind", default=None)
    if kind == "exponential":
        rate = _read(node, "rate", float, 1.0)
        if not (0.0 < rate < math.inf and 40.0 / rate < math.inf):
            raise ParameterError(
                "exponential rate must be positive and finite, with 40 / rate (the end "
                f"of its support) finite; got {rate!r}"
            )
        hi = 40.0 / rate
        return density_from_callable(lambda z: rate * np.exp(-rate * z), (0.0, hi))
    if kind == "chi2":
        df = _read(node, "df", float)
        if not math.isfinite(df):
            raise ParameterError(f"chi2 df must be finite, got {df!r}")
        if df < 2:
            raise ParameterError(
                f"chi2 df must be at least 2, got {df!r}: below 2 the density is "
                "unbounded at 0, and the trapezoid rule cannot integrate it"
            )
        from scipy import special

        # chi2.ppf(1 - 1e-10, df) and chi2.pdf(z, df) as scipy.stats evaluates
        # them, bit for bit
        hi = float(2.0 * special.gammaincinv(df / 2, 1.0 - 1e-10))
        return density_from_callable(
            lambda z: np.exp(
                special.xlogy(df / 2 - 1, z) - z / 2 - special.gammaln(df / 2) - np.log(2) * df / 2
            ),
            (0.0, hi),
        )
    if kind == "histogram":
        return density_from_histogram(
            _read(node, "edges", _floats), _read(node, "densities", _floats)
        )
    if kind == "samples":
        return density_from_samples(_read(node, "values", _floats))
    if kind == "model":
        # base squared-norm law estimated from Monte Carlo draws of a
        # generative model
        grid = Grid(_read(node, "grid_points", _Count(3, _MAX_GRID_POINTS), 101))
        model = _model_from_json(node, grid)
        draws = _read(node, "draws", _Count(1, _MAX_DRAWS), 20_000)
        seed = _read(node, "seed", _integer, 0)
        # one block of curves at a time, squared in place and reduced to its
        # squared norms, then dropped before the next is drawn
        sq_norms = np.empty(draws)
        start = 0
        for x in generate_blocks(model, draws, seed):
            x *= x
            sq_norms[start:start + len(x)] = grid.integrate(x)
            start += len(x)
            del x
        return density_from_samples(sq_norms)
    raise ParameterError(f"unknown density kind {kind!r}")


def cmd_power(args) -> tuple:
    with open(args.spec) as fh:
        spec = json.load(fh)
    alpha = _read(spec, "alpha", float, 0.05)
    if "target_power" in spec or "probs" in spec:
        # N from the spec, or the smallest N that reaches target_power
        target = _read(spec, "target_power", float) if "target_power" in spec else None
        probs, thetas = _read(spec, "probs"), _read(spec, "thetas")
        n = (_read(spec, "N", _integer) if target is None
             else required_sample_size(probs, thetas, target, alpha))
        payload = power_from_pairwise(probs, thetas, n, alpha).to_dict()
        if target is not None:
            payload.update(required_N=n, target_power=target)
    elif "deltas" in spec:
        las = LocalAlternativeSpec(
            deltas=_read(spec, "deltas", tuple),
            thetas=_read(spec, "thetas", tuple),
            density=_density_from_json(_read(spec, "density")),
        )
        payload = power_from_local(las, alpha).to_dict()
    else:
        raise ParameterError(
            "power spec must contain 'target_power', 'probs', or 'deltas'"
        )
    return EXIT_OK, payload, sorted(payload.items())


def _bandwidth(value):
    return value if value == MEDIAN_HEURISTIC else float(value)


# JSON key -> (keyword argument, cast)
_DEPTH_FIELDS = {
    "kind": ("kind", None),
    "primed": ("use_derivatives", _boolean),
    "projections": ("num_projections", _Count(1, _MAX_PROJECTIONS)),
    "band_order": ("band_order", _integer),
    "weights": ("channel_weights", tuple),
    "bandwidth": ("kernel_bandwidth", _bandwidth),
    "seed": ("rng_seed", _integer),
}
_MODEL_FIELDS = {
    "family": ("family", None),
    "alpha": ("alpha", float),
    "beta": ("beta", float),
    "eigenvalues": ("eigenvalues", tuple),
    "skew_shape": ("skew_shape", float),
}
_STUDY_FIELDS = {
    "alpha": ("alpha", float),
    "replications": ("replications", _integer),
    "seed": ("seed", _integer),
    "percentile_r": ("percentile_r", float),
    "param_name": ("param_name", str),
    "param_value": ("param_value", str),
}


def _depth_spec_from_json(node) -> DepthSpec:
    return DepthSpec(**_fields(node, _DEPTH_FIELDS))


def _model_from_json(node, grid: Grid) -> ProcessModel:
    return ProcessModel(grid=grid, **_fields(node, _MODEL_FIELDS))


def _study_from_json(spec: dict) -> StudySpec:
    grid = Grid(_read(spec, "grid_points", _Count(3, _MAX_GRID_POINTS), 101))
    if "scenario" in spec:
        models = scenario_models(_read(spec, "scenario", _integer), grid)
        sizes = _read(spec, "sizes", _Count(1, _MAX_GROUP_SIZE, many=True), (100, 100))
        if len(sizes) != 2:
            raise ParameterError("scenario studies are two-sample; give two sizes")
    elif "groups" in spec:
        groups = _read(spec, "groups", list)
        models = tuple(_model_from_json(g, grid) for g in groups)
        sizes = tuple(_read(g, "size", _Count(1, _MAX_GROUP_SIZE)) for g in groups)
    else:
        raise ParameterError("study spec needs 'scenario' or 'groups'")
    return StudySpec(
        models=models,
        group_sizes=sizes,
        depth_specs=tuple(map(_depth_spec_from_json, _read(spec, "depths", list, [{}]))),
        **_fields(spec, _STUDY_FIELDS),
    )


def cmd_simulate(args) -> tuple:
    with open(args.spec) as fh:
        spec = _study_from_json(json.load(fh))
    result = run_study(spec, n_jobs=args.threads)
    return EXIT_OK, result.to_dict(), study_rows(result)


# command: (handler, help, flag groups, --format choices, --format default);
# each handler returns (exit code, JSON payload, table or CSV rows)
_COMMANDS = {
    "test": (cmd_test, "k-sample covariance equality test",
             (_add_data_flags, _add_test_flags), ("json", "table"), "json"),
    "mc": (cmd_mc, "pairwise multiple comparisons (Steel-type)",
           (_add_data_flags, _add_mc_flags), ("json", "table"), "json"),
    "depth": (cmd_depth, "per-curve depth values and ranks",
              (_add_data_flags,), ("json", "csv"), "csv"),
    "power": (cmd_power, "power or sample size from a JSON spec",
              (_add_power_flags,), ("json", "table"), "json"),
    "simulate": (cmd_simulate, "replicated size/power study from a JSON spec",
                 (_add_simulate_flags,), ("json", "csv"), "csv"),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fkwc",
        description="Depth-rank k-sample tests for equality of covariance operators",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    subs = parser.add_subparsers(dest="command", required=True)
    for name, (_, help_text, flag_groups, formats, default) in _COMMANDS.items():
        sub = subs.add_parser(name, help=help_text)
        for add_flags in flag_groups:
            add_flags(sub)
        sub.add_argument("--output", help="write results to this path instead of stdout")
        sub.add_argument("--format", choices=formats, default=default)
    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on a usage error, the code of a rejection;
        # --help and --version exit 0
        if exc.code:
            return EXIT_PARAMETER
        raise
    try:
        code, payload, rows = _COMMANDS[args.command][0](args)
        # the one place a result leaves the program: CSV lines end in \n on
        # stdout and \r\n in a file; JSON or a table ends in one \n
        if args.format == "csv":
            write_csv(rows, args.output or None)
        else:
            text = json.dumps(payload, indent=2) if args.format == "json" else _table(rows)
            with open(args.output, "w") if args.output else nullcontext(sys.stdout) as fh:
                print(text, file=fh)
        sys.stdout.flush()  # a closed pipe must raise here, not at interpreter exit
        return code
    except BrokenPipeError:
        # the reader left (e.g. `| head`); the interpreter flushes stdout again
        # at exit, so point fd 1 at devnull to keep that flush from raising.
        # An OSError, so caught ahead of the unreadable paths below
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return EXIT_INPUT
    except (DataError, OSError, UnicodeDecodeError, json.JSONDecodeError) as exc:
        # OSError: a path that cannot be opened, a directory among them
        print(f"input error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except ParameterError as exc:
        print(f"parameter error: {exc}", file=sys.stderr)
        return EXIT_PARAMETER
    except NumericalError as exc:
        print(f"numerical error: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())
