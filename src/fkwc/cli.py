"""Command-line front end.

Subcommands: ``test`` (k-sample covariance test), ``mc`` (pairwise multiple
comparisons), ``depth`` (per-curve depths and ranks), ``power`` (noncentral
power / sample size from a JSON spec), ``simulate`` (replicated studies from
a JSON spec).

Exit codes: 0 success (no rejection), 2 rejection at level alpha (``test``
only), 1 input error or standard output closed by its reader (broken pipe),
3 parameter error, a command-line usage error among them, 4 numerical
error.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import sys

import numpy as np
from scipy import special

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
from .sim import ProcessModel, StudySpec, generate, run_study, save_study_csv, scenario_models
from .testing import TestConfig, fkwc_test, steel_mc

EXIT_OK = 0
EXIT_INPUT = 1
EXIT_REJECT = 2
EXIT_PARAMETER = 3
EXIT_NUMERICAL = 4


def _add_io_flags(sub):
    sub.add_argument("--input", required=True, help="wide CSV dataset (group column, grid header)")
    sub.add_argument("--output", help="write results to this path instead of stdout")
    sub.add_argument(
        "--derivatives",
        default="finite-diff",
        help="derivative channel: 'finite-diff' (default) or 'file=PATH' with a matching CSV",
    )


def _add_depth_flags(sub):
    # dests are the JSON depth-node keys; a flag left out stays out of the
    # namespace, so DepthSpec's own default applies
    add = functools.partial(sub.add_argument, default=argparse.SUPPRESS)
    add("--depth", dest="kind", choices=DEPTH_KERNELS, help="depth function")
    add("--primed", action="store_true", help="augment the depth with derivatives")
    add("--projections", type=int, help="number of random directions (rp)")
    add("--band-order", type=int, help="maximal band order (mbd)")
    add("--bandwidth", help="squared kernel bandwidth for ksd, or 'median-heuristic'")
    add("--weights", type=float, nargs=2, metavar=("W0", "W1"),
        help="channel weights for primed mbd/spatial/ksd")
    add("--seed", type=int, help="seed for projections and tie-breaking")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fkwc",
        description="Depth-rank k-sample tests for equality of covariance operators",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    subs = parser.add_subparsers(dest="command", required=True)

    p_test = subs.add_parser("test", help="k-sample covariance equality test")
    _add_io_flags(p_test)
    _add_depth_flags(p_test)
    p_test.add_argument("--alpha", type=float, default=0.05, help="significance level")
    p_test.add_argument(
        "--r", type=float, default=None,
        help="percentile modification: keep the floor(r*N) least-deep ranks (r in (0,1])",
    )
    p_test.add_argument("--format", choices=("json", "table"), default="json")

    p_mc = subs.add_parser("mc", help="pairwise multiple comparisons (Steel-type)")
    _add_io_flags(p_mc)
    _add_depth_flags(p_mc)
    p_mc.add_argument("--correction", choices=("sidak", "bonferroni", "holm"), default="sidak")
    p_mc.add_argument(
        "--correction-count", type=int, default=None,
        help="family size m for the correction (default: number of pairs)",
    )
    p_mc.add_argument("--method", choices=("normal", "exact"), default="normal",
                      help="rank-sum p-value: normal approximation, or the exact null "
                           "(up to about 100 vs 100 curves per group pair)")
    p_mc.add_argument("--format", choices=("json", "table"), default="json")

    p_depth = subs.add_parser("depth", help="per-curve depth values and ranks")
    _add_io_flags(p_depth)
    _add_depth_flags(p_depth)
    p_depth.add_argument("--format", choices=("json", "csv"), default="csv")

    p_power = subs.add_parser("power", help="power or sample size from a JSON spec")
    p_power.add_argument("--spec", required=True, help="JSON file describing the computation")
    p_power.add_argument("--output", help="write results to this path instead of stdout")
    p_power.add_argument("--format", choices=("json", "table"), default="json")

    p_sim = subs.add_parser("simulate", help="replicated size/power study from a JSON spec")
    p_sim.add_argument("--spec", required=True, help="JSON study description")
    p_sim.add_argument("--output", help="write results to this path instead of stdout")
    p_sim.add_argument("--threads", type=int, default=1,
                       help="most worker processes for replicates (>= 1); capped at one per "
                            "8 replicates and per usable CPU")
    p_sim.add_argument("--format", choices=("json", "csv"), default="csv")
    return parser


def _emit(text: str, output) -> None:
    if output:
        with open(output, "w") as fh:
            fh.write(text if text.endswith("\n") else text + "\n")
    else:
        print(text)


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


def cmd_test(args) -> int:
    ds = _load_dataset(args)
    config = TestConfig(depth_spec=_depth_spec(args), alpha=args.alpha, percentile_r=args.r)
    result = fkwc_test(ds, config)
    if args.format == "json":
        _emit(json.dumps(result.to_dict(), indent=2), args.output)
    else:
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
        _emit(_table(rows), args.output)
    return EXIT_REJECT if result.reject else EXIT_OK


def cmd_mc(args) -> int:
    ds = _load_dataset(args)
    result = steel_mc(
        ds,
        _depth_spec(args),
        correction_count=args.correction_count,
        correction=args.correction,
        method=args.method,
    )
    if args.format == "json":
        _emit(json.dumps(result.to_dict(), indent=2), args.output)
    else:
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
        _emit(_table(rows), args.output)
    return EXIT_OK


def cmd_depth(args) -> int:
    ds = _load_dataset(args)
    spec = _depth_spec(args)
    dv = compute_depth(ds, spec)
    rv = depth_ranks(ds, spec)
    header = ("index", "group", "depth", "rank")
    columns = (range(len(ds.groups)), ds.groups.tolist(), dv.values.tolist(), rv.ranks.tolist())
    rows = list(zip(*columns))
    if args.format == "json":
        payload = {
            "depth": spec.label,
            "tie_breaks_applied": rv.tie_breaks_applied,
            "curves": [dict(zip(header, row)) for row in rows],
        }
        _emit(json.dumps(payload, indent=2), args.output)
    else:
        rows = [(i, g, format(d, ".17g"), r) for i, g, d, r in rows]
        write_csv([header] + rows, args.output or None)
    return EXIT_OK


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
            f"{key} must be {_NEEDS.get(cast, 'a well-formed value')}; "
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
_NEEDS = {_integer: "an integer", _boolean: "true or false"}


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
        grid = Grid.regular(_read(node, "grid_points", _integer, 101))
        model = _model_from_json(node, grid)
        draws = _read(node, "draws", _integer, 20_000)
        seed = _read(node, "seed", _integer, 0)
        x = generate(model, draws, seed)
        sq_norms = (x * x) @ grid.trapezoid_weights
        return density_from_samples(sq_norms)
    raise ParameterError(f"unknown density kind {kind!r}")


def cmd_power(args) -> int:
    with open(args.spec) as fh:
        spec = json.load(fh)
    alpha = _read(spec, "alpha", float, 0.05)
    if "target_power" in spec:
        target = _read(spec, "target_power", float)
        probs, thetas = _read(spec, "probs"), _read(spec, "thetas")
        n_req = required_sample_size(probs, thetas, target, alpha)
        result = power_from_pairwise(probs, thetas, n_req, alpha)
        payload = result.to_dict()
        payload["required_N"] = n_req
        payload["target_power"] = target
    elif "probs" in spec:
        result = power_from_pairwise(
            _read(spec, "probs"), _read(spec, "thetas"), _read(spec, "N", _integer), alpha
        )
        payload = result.to_dict()
    elif "deltas" in spec:
        las = LocalAlternativeSpec(
            deltas=_read(spec, "deltas", tuple),
            thetas=_read(spec, "thetas", tuple),
            density=_density_from_json(_read(spec, "density")),
        )
        result = power_from_local(las, alpha)
        payload = result.to_dict()
    else:
        raise ParameterError(
            "power spec must contain 'target_power', 'probs', or 'deltas'"
        )
    if args.format == "json":
        _emit(json.dumps(payload, indent=2), args.output)
    else:
        _emit(_table(sorted((k, v) for k, v in payload.items())), args.output)
    return EXIT_OK


def _bandwidth(value):
    return value if value == MEDIAN_HEURISTIC else float(value)


# JSON key -> (keyword argument, cast)
_DEPTH_FIELDS = {
    "kind": ("kind", None),
    "primed": ("use_derivatives", _boolean),
    "projections": ("num_projections", _integer),
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


def _depth_spec_from_json(node) -> DepthSpec:
    return DepthSpec(**_fields(node, _DEPTH_FIELDS))


def _model_from_json(node, grid: Grid) -> ProcessModel:
    return ProcessModel(grid=grid, **_fields(node, _MODEL_FIELDS))


def _study_from_json(spec: dict) -> StudySpec:
    grid = Grid.regular(_read(spec, "grid_points", _integer, 101))
    if "scenario" in spec:
        models = scenario_models(_read(spec, "scenario", _integer), grid)
        sizes = _read(spec, "sizes", lambda v: tuple(map(_integer, v)), (100, 100))
        if len(sizes) != 2:
            raise ParameterError("scenario studies are two-sample; give two sizes")
    elif "groups" in spec:
        groups = _read(spec, "groups", list)
        models = tuple(_model_from_json(g, grid) for g in groups)
        sizes = tuple(_read(g, "size", _integer) for g in groups)
    else:
        raise ParameterError("study spec needs 'scenario' or 'groups'")
    return StudySpec(
        models=models,
        group_sizes=sizes,
        depth_specs=tuple(map(_depth_spec_from_json, _read(spec, "depths", list, [{}]))),
        alpha=_read(spec, "alpha", float, 0.05),
        replications=_read(spec, "replications", _integer, 200),
        seed=_read(spec, "seed", _integer, 0),
        percentile_r=_read(spec, "percentile_r", float) if "percentile_r" in spec else None,
        param_name=str(spec.get("param_name", "")),
        param_value=str(spec.get("param_value", "")),
    )


def cmd_simulate(args) -> int:
    with open(args.spec) as fh:
        spec = _study_from_json(json.load(fh))
    result = run_study(spec, n_jobs=args.threads)
    if args.format == "json":
        _emit(json.dumps(result.to_dict(), indent=2), args.output)
    else:
        save_study_csv(result, args.output or None)
    return EXIT_OK


_HANDLERS = {
    "test": cmd_test,
    "mc": cmd_mc,
    "depth": cmd_depth,
    "power": cmd_power,
    "simulate": cmd_simulate,
}


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
        code = _HANDLERS[args.command](args)
        sys.stdout.flush()  # a closed pipe must raise here, not at interpreter exit
        return code
    except BrokenPipeError:
        # the reader left (e.g. `| head`); the interpreter flushes stdout again
        # at exit, so point fd 1 at devnull to keep that flush from raising
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return EXIT_INPUT
    except (DataError, FileNotFoundError, json.JSONDecodeError) as exc:
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
