"""Command-line interface: flows, exit codes, determinism, help coverage."""

import json
import os
import subprocess
import sys

import numpy as np
import pytest
from scipy.stats import chi2

import fkwc
from fkwc import (
    DepthSpec,
    FunctionalDataset,
    Grid,
    StudySpec,
    run_study,
    save_csv,
    scenario_models,
    wilcoxon_rank_sum,
)
from fkwc.cli import (
    EXIT_INPUT,
    EXIT_NUMERICAL,
    EXIT_OK,
    EXIT_PARAMETER,
    EXIT_REJECT,
    _density_from_json,
    _depth_spec,
    _depth_spec_from_json,
    build_parser,
    main,
)
from fkwc.depths import depth_sort_keys

SUBCOMMAND_FLAGS = {
    "test": ["--input", "--output", "--derivatives", "--depth", "--primed",
             "--projections", "--band-order", "--bandwidth", "--weights",
             "--seed", "--alpha", "--r", "--format"],
    "mc": ["--input", "--output", "--derivatives", "--depth", "--primed",
           "--projections", "--band-order", "--bandwidth", "--weights",
           "--seed", "--correction", "--correction-count", "--method", "--format"],
    "depth": ["--input", "--output", "--derivatives", "--depth", "--primed",
              "--projections", "--band-order", "--bandwidth", "--weights",
              "--seed", "--format"],
    "power": ["--spec", "--output", "--format"],
    "simulate": ["--spec", "--output", "--threads", "--format"],
}


@pytest.fixture
def identical_groups_csv(tmp_path, grid21):
    rng = np.random.default_rng(19)
    base = rng.normal(size=(25, grid21.m))
    ds = FunctionalDataset(grid21, np.vstack([base, base]), [1] * 25 + [2] * 25)
    path = tmp_path / "same.csv"
    save_csv(ds, path)
    return path


@pytest.fixture
def scenario5_csv(tmp_path, grid101):
    from fkwc.sim import generate

    m1, m2 = scenario_models(5, grid101)
    x1 = generate(m1, 100, 1001)
    x2 = generate(m2, 100, 1002)
    ds = FunctionalDataset(grid101, np.vstack([x1, x2]), [1] * 100 + [2] * 100)
    path = tmp_path / "scenario5.csv"
    save_csv(ds, path)
    return path


class TestHelpCoverage:
    @pytest.mark.parametrize("command", sorted(SUBCOMMAND_FLAGS))
    def test_every_flag_documented(self, command, capsys):
        with pytest.raises(SystemExit) as exc:
            main([command, "--help"])
        assert exc.value.code == 0
        text = capsys.readouterr().out
        for flag in SUBCOMMAND_FLAGS[command]:
            assert flag in text, f"{command} --help is missing {flag}"


class TestCmdTest:
    def test_identical_groups_accept(self, identical_groups_csv, capsys):
        code = main(["test", "--input", str(identical_groups_csv), "--depth", "ltr",
                     "--seed", "5"])
        assert code == EXIT_OK
        payload = json.loads(capsys.readouterr().out)
        assert payload["p_value"] > 0.8
        assert not payload["reject"]

    def test_scenario5_rejects(self, scenario5_csv):
        code = main(["test", "--input", str(scenario5_csv), "--depth", "ltr", "--seed", "3"])
        assert code == EXIT_REJECT

    def test_percentile_r_one_matches_default(self, scenario5_csv, capsys):
        main(["test", "--input", str(scenario5_csv), "--depth", "mbd", "--seed", "2"])
        w = json.loads(capsys.readouterr().out)["statistic"]
        main(["test", "--input", str(scenario5_csv), "--depth", "mbd", "--seed", "2",
              "--r", "1.0"])
        m = json.loads(capsys.readouterr().out)["statistic"]
        assert abs(w - m) < 1e-10

    def test_malformed_input_names_position(self, tmp_path, capsys):
        path = tmp_path / "bad.csv"
        path.write_text("group,0,0.5,1\n1,1.0,xx,3.0\n2,1,2,3\n")
        code = main(["test", "--input", str(path)])
        assert code == EXIT_INPUT
        err = capsys.readouterr().err
        assert "row 2" in err and "column 3" in err

    def test_missing_file_is_input_error(self):
        assert main(["test", "--input", "/nonexistent/x.csv"]) == EXIT_INPUT

    def test_bad_parameter_exit_code(self, identical_groups_csv):
        code = main(["test", "--input", str(identical_groups_csv), "--depth", "ksd",
                     "--bandwidth", "-3"])
        assert code == EXIT_PARAMETER

    # refused up front: a NaN weight would surface as non-finite depth values
    # (exit 1), an infinite bandwidth as depth 1.0 for every curve
    @pytest.mark.parametrize("argv, name", [
        (["test", "--depth", "mbd", "--primed", "--weights", "nan", "nan"], "channel_weights"),
        (["depth", "--depth", "ksd", "--bandwidth", "inf"], "kernel_bandwidth"),
    ], ids=["weights-nan", "bandwidth-inf"])
    def test_non_finite_depth_option_exit_code(self, argv, name, identical_groups_csv, capsys):
        assert main(argv + ["--input", str(identical_groups_csv)]) == EXIT_PARAMETER
        assert capsys.readouterr().err.startswith(f"parameter error: {name} must be")

    def test_table_format(self, identical_groups_csv, capsys):
        code = main(["test", "--input", str(identical_groups_csv), "--format", "table"])
        assert code == EXIT_OK
        out = capsys.readouterr().out
        assert "statistic" in out and "p_value" in out

    def test_deterministic_given_seed(self, scenario5_csv, capsys):
        main(["test", "--input", str(scenario5_csv), "--depth", "rp", "--seed", "9"])
        first = capsys.readouterr().out
        main(["test", "--input", str(scenario5_csv), "--depth", "rp", "--seed", "9"])
        second = capsys.readouterr().out
        assert first == second

    def test_derivatives_from_file(self, tmp_path, grid21, capsys):
        rng = np.random.default_rng(55)
        ds = FunctionalDataset(grid21, rng.normal(size=(20, grid21.m)), [1] * 10 + [2] * 10)
        cpath = tmp_path / "c.csv"
        dpath = tmp_path / "d.csv"
        save_csv(ds, cpath, derivatives_path=dpath)
        code = main(["test", "--input", str(cpath), "--derivatives", f"file={dpath}",
                     "--depth", "mbd", "--primed", "--seed", "1"])
        assert code in (EXIT_OK, EXIT_REJECT)
        file_out = json.loads(capsys.readouterr().out)
        # finite differences are the default channel, so results agree here
        code = main(["test", "--input", str(cpath), "--depth", "mbd", "--primed",
                     "--seed", "1"])
        assert code in (EXIT_OK, EXIT_REJECT)
        fd_out = json.loads(capsys.readouterr().out)
        assert file_out["statistic"] == pytest.approx(fd_out["statistic"], abs=1e-12)

    @pytest.mark.parametrize("command", ["test", "depth"])
    @pytest.mark.parametrize("primed", [False, True])
    def test_rp_on_three_point_grid(self, command, primed, tmp_path, capsys):
        curves = np.random.default_rng(3).normal(size=(20, 3))
        path = tmp_path / "short.csv"
        save_csv(FunctionalDataset(Grid(3), curves, [1] * 10 + [2] * 10), path)
        argv = [command, "--input", str(path), "--depth", "rp"] + ["--primed"] * primed
        assert main(argv) in (EXIT_OK, EXIT_REJECT)
        assert "Traceback" not in capsys.readouterr().err


class TestCmdMc:
    def test_two_groups_equal_single_wilcoxon(self, identical_groups_csv, capsys, grid21):
        code = main(["mc", "--input", str(identical_groups_csv), "--depth", "mbd",
                     "--seed", "4"])
        assert code == EXIT_OK
        payload = json.loads(capsys.readouterr().out)
        from fkwc import load_csv
        from fkwc.depths import derive_seed
        from dataclasses import replace

        ds = load_csv(identical_groups_csv)
        spec = replace(DepthSpec(kind="mbd", rng_seed=4),
                       rng_seed=derive_seed(4, 2, 0))
        keys = depth_sort_keys(ds.subset([1, 2]), spec)
        sub = ds.subset([1, 2])
        want = wilcoxon_rank_sum(keys[sub.groups == 1], keys[sub.groups == 2])
        assert payload["pairwise_raw_p"][0][1] == pytest.approx(want, abs=1e-12)
        assert payload["num_comparisons"] == 1

    def test_table_format(self, tmp_path, capsys):
        # three groups of 5 curves on 5 points, group g scaled by g; the
        # last column is padded like the others
        rng = np.random.default_rng(7)
        curves = rng.normal(size=(15, 5)) * np.repeat([1.0, 2.0, 3.0], 5)[:, None]
        path = tmp_path / "three.csv"
        save_csv(FunctionalDataset(Grid(5), curves, np.repeat([1, 2, 3], 5)), path)
        code = main(["mc", "--input", str(path), "--depth", "ltr", "--seed", "1",
                     "--correction", "holm", "--format", "table"])
        assert code == EXIT_OK
        assert capsys.readouterr().out == (
            "pair         raw_p       adjusted_p\n"
            "1 vs 2       0.0162936   0.0325872 \n"
            "1 vs 3       0.00902344  0.0270703 \n"
            "2 vs 3       0.0472018   0.0472018 \n"
            "comparisons  3           holm      \n"
        )

    def test_alpha_flag_removed(self, identical_groups_csv, capsys):
        # mc reports p-values only; a level it never read is refused
        code = main(["mc", "--input", str(identical_groups_csv), "--alpha", "0.05"])
        assert code == EXIT_PARAMETER
        assert "--alpha" in capsys.readouterr().err


class TestCmdDepth:
    def test_csv_output(self, identical_groups_csv, tmp_path):
        out = tmp_path / "depths.csv"
        code = main(["depth", "--input", str(identical_groups_csv), "--depth", "mfhd",
                     "--output", str(out)])
        assert code == EXIT_OK
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "index,group,depth,rank"
        assert len(lines) == 51
        ranks = sorted(int(line.split(",")[3]) for line in lines[1:])
        assert ranks == list(range(1, 51))

    def test_stdout_matches_output_file(self, identical_groups_csv, tmp_path, capsys):
        argv = ["depth", "--input", str(identical_groups_csv), "--depth", "rp", "--primed"]
        out = tmp_path / "depths.csv"
        assert main(argv + ["--output", str(out)]) == EXIT_OK
        assert main(argv) == EXIT_OK
        stdout = capsys.readouterr().out
        assert "\r" not in stdout
        assert stdout == out.read_bytes().decode().replace("\r\n", "\n")

    def test_json_output(self, identical_groups_csv, capsys):
        code = main(["depth", "--input", str(identical_groups_csv), "--depth", "ltr",
                     "--format", "json"])
        assert code == EXIT_OK
        payload = json.loads(capsys.readouterr().out)
        assert payload["depth"] == "ltr"
        assert len(payload["curves"]) == 50

    def test_primed_fills_derivative_channel_once(self, identical_groups_csv, monkeypatch,
                                                  capsys):
        calls = []
        original = fkwc.fdata.differentiate

        def counting(curves, grid):
            calls.append(curves.shape)
            return original(curves, grid)

        monkeypatch.setattr(fkwc.fdata, "differentiate", counting)
        code = main(["depth", "--input", str(identical_groups_csv), "--depth", "ksd",
                     "--primed"])
        assert code == EXIT_OK
        assert len(calls) == 1


class TestCmdPower:
    def test_null_tau_gives_alpha(self, tmp_path, capsys):
        spec = {"probs": [[0.5, 0.5], [0.5, 0.5]], "thetas": [0.5, 0.5],
                "N": 100, "alpha": 0.05}
        path = tmp_path / "p.json"
        path.write_text(json.dumps(spec))
        code = main(["power", "--spec", str(path)])
        assert code == EXIT_OK
        payload = json.loads(capsys.readouterr().out)
        assert payload["predicted_power"] == pytest.approx(0.05, abs=1e-9)
        assert payload["tau"] == 0.0

    def test_local_alternative_spec(self, tmp_path, capsys):
        spec = {"deltas": [0.0, 1.0], "thetas": [0.5, 0.5],
                "density": {"kind": "exponential", "rate": 1.0}}
        path = tmp_path / "p.json"
        path.write_text(json.dumps(spec))
        code = main(["power", "--spec", str(path)])
        assert code == EXIT_OK
        payload = json.loads(capsys.readouterr().out)
        assert payload["tau"] == pytest.approx(0.1875, abs=1e-3)

    def test_sample_size_spec(self, tmp_path, capsys):
        spec = {"probs": [[0.5, 0.54], [0.46, 0.5]], "thetas": [0.5, 0.5],
                "target_power": 0.8}
        path = tmp_path / "p.json"
        path.write_text(json.dumps(spec))
        code = main(["power", "--spec", str(path)])
        assert code == EXIT_OK
        payload = json.loads(capsys.readouterr().out)
        assert payload["required_N"] >= 8
        assert payload["predicted_power"] >= 0.8

    @pytest.mark.parametrize("spec, want", [
        ({"probs": [[0.5, 0.6], [0.4, 0.5]], "thetas": [0.5, 0.5], "N": 200}, (
            "J                2                 \n"
            "N                200               \n"
            "alpha            0.05              \n"
            "predicted_power  0.6856082945679964\n"
            "tau              5.970149253731341 \n"
        )),
        ({"probs": [[0.5, 0.54], [0.46, 0.5]], "thetas": [0.5, 0.5], "target_power": 0.8}, (
            "J                2                 \n"
            "N                1637              \n"
            "alpha            0.05              \n"
            "predicted_power  0.8001968971469083\n"
            "required_N       1637              \n"
            "target_power     0.8               \n"
            "tau              7.852802930402933 \n"
        )),
    ], ids=["power", "sample-size"])
    def test_table_format(self, spec, want, tmp_path, capsys):
        path = tmp_path / "p.json"
        path.write_text(json.dumps(spec))
        assert main(["power", "--spec", str(path), "--format", "table"]) == EXIT_OK
        assert capsys.readouterr().out == want

    def test_bad_spec_parameter_error(self, tmp_path):
        path = tmp_path / "p.json"
        path.write_text(json.dumps({"nonsense": 1}))
        assert main(["power", "--spec", str(path)]) == EXIT_PARAMETER

    def test_model_density_spec(self, tmp_path, capsys):
        # base law from Monte Carlo draws of a five-component model: the
        # squared norms follow chi-square(5), whose local tau is known
        spec = {
            "deltas": [0.0, 5.0],
            "thetas": [0.5, 0.5],
            "density": {"kind": "model", "family": "eigen",
                        "eigenvalues": [1, 1, 1, 1, 1], "draws": 30000, "seed": 11},
        }
        path = tmp_path / "p.json"
        path.write_text(json.dumps(spec))
        code = main(["power", "--spec", str(path)])
        assert code == EXIT_OK
        payload = json.loads(capsys.readouterr().out)
        assert payload["tau"] == pytest.approx(13.5095, rel=0.10)

    def test_heavy_tailed_model_density_is_numerical_error(self, tmp_path, capsys):
        # t1 squared norms span so many Freedman-Diaconis bin widths that the
        # histogram would need far more than 10^6 bins
        spec = {
            "deltas": [0.0, 0.3],
            "thetas": [0.5, 0.5],
            "density": {"kind": "model", "family": "t1", "draws": 20000, "seed": 5},
        }
        path = tmp_path / "p.json"
        path.write_text(json.dumps(spec))
        assert main(["power", "--spec", str(path)]) == EXIT_NUMERICAL
        assert "bins" in capsys.readouterr().err

    def test_zero_iqr_samples_density_is_parameter_error(self, tmp_path, capsys):
        spec = {"deltas": [0.0, 0.3], "thetas": [0.5, 0.5],
                "density": {"kind": "samples", "values": [1.0] * 20 + [2.0]}}
        path = tmp_path / "p.json"
        path.write_text(json.dumps(spec))
        assert main(["power", "--spec", str(path)]) == EXIT_PARAMETER
        assert "interquartile range of 0" in capsys.readouterr().err


@pytest.mark.parametrize("df", [2.0, 2.5, 3.0, 4.7, 10.0, 33.3, 100.5])
def test_chi2_density_is_scipy_stats_chi2(df):
    """The chi2 density kind evaluates the expressions of scipy.stats'
    chi2.ppf (its support end) and chi2.pdf (its values at the 4097 points
    z of the support), so the bits are the same."""
    density = _density_from_json({"kind": "chi2", "df": df})
    assert density.points[-1] == chi2.ppf(1.0 - 1e-10, df)
    assert density.values.tobytes() == chi2.pdf(density.points, df).tobytes()


class TestCmdSimulate:
    def test_matches_library_run(self, tmp_path, capsys, grid101):
        spec_json = {"scenario": 4, "sizes": [40, 40],
                     "depths": [{"kind": "ltr"}], "replications": 20, "seed": 31}
        path = tmp_path / "study.json"
        path.write_text(json.dumps(spec_json))
        code = main(["simulate", "--spec", str(path), "--format", "json"])
        assert code == EXIT_OK
        payload = json.loads(capsys.readouterr().out)
        m1, m2 = scenario_models(4, grid101)
        want = run_study(StudySpec(models=(m1, m2), group_sizes=(40, 40),
                                   depth_specs=(DepthSpec(kind="ltr", rng_seed=31),),
                                   replications=20, seed=31))
        assert payload["depths"][0]["rate"] == pytest.approx(
            float(want.rejection_rates[0]), abs=1e-12
        )

    def test_threads_do_not_change_output(self, tmp_path, grid101):
        spec_json = {"scenario": 4, "sizes": [30, 30],
                     "depths": [{"kind": "rp"}], "replications": 12, "seed": 8}
        path = tmp_path / "study.json"
        path.write_text(json.dumps(spec_json))
        out1 = tmp_path / "a.csv"
        out2 = tmp_path / "b.csv"
        assert main(["simulate", "--spec", str(path), "--output", str(out1),
                     "--threads", "1"]) == EXIT_OK
        assert main(["simulate", "--spec", str(path), "--output", str(out2),
                     "--threads", "2"]) == EXIT_OK
        assert out1.read_text() == out2.read_text()

    @pytest.mark.parametrize("threads", ["0", "-3"])
    def test_threads_below_one_refused(self, threads, tmp_path, capsys):
        path = tmp_path / "study.json"
        path.write_text(json.dumps({"scenario": 1, "sizes": [5, 5], "replications": 2}))
        assert main(["simulate", "--spec", str(path), "--threads", threads]) == EXIT_PARAMETER
        assert "must be >= 1" in capsys.readouterr().err

    def test_csv_columns(self, tmp_path):
        spec_json = {"scenario": 1, "sizes": [20, 20], "depths": [{"kind": "mbd"}],
                     "replications": 4, "seed": 2}
        path = tmp_path / "study.json"
        path.write_text(json.dumps(spec_json))
        out = tmp_path / "res.csv"
        assert main(["simulate", "--spec", str(path), "--output", str(out)]) == EXIT_OK
        header = out.read_text().splitlines()[0]
        assert header == "depth,family,param,value,N,rate,se,R"

    def test_stdout_matches_output_file(self, tmp_path, capsys):
        spec_json = {"scenario": 1, "sizes": [10, 10], "replications": 3, "seed": 2,
                     "depths": [{"kind": "ltr"}, {"kind": "mbd", "primed": True}]}
        path = tmp_path / "study.json"
        path.write_text(json.dumps(spec_json))
        out = tmp_path / "res.csv"
        assert main(["simulate", "--spec", str(path), "--output", str(out)]) == EXIT_OK
        assert main(["simulate", "--spec", str(path)]) == EXIT_OK
        stdout = capsys.readouterr().out
        assert "\r" not in stdout
        assert stdout == out.read_bytes().decode().replace("\r\n", "\n")

    def test_closed_stdout_pipe_exits_quietly(self, tmp_path):
        spec_json = {"scenario": 1, "sizes": [10, 10], "replications": 3, "seed": 2,
                     "depths": [{"kind": "ltr"}]}
        path = tmp_path / "study.json"
        path.write_text(json.dumps(spec_json))
        read_end, write_end = os.pipe()
        os.close(read_end)
        env = {**os.environ, "PYTHONPATH": os.path.dirname(os.path.dirname(fkwc.__file__))}
        try:
            proc = subprocess.run(
                [sys.executable, "-m", "fkwc.cli", "simulate", "--spec", str(path)],
                stdout=write_end, stderr=subprocess.PIPE, env=env, timeout=120,
            )
        finally:
            os.close(write_end)
        stderr = proc.stderr.decode()
        assert proc.returncode == EXIT_INPUT
        assert "Traceback" not in stderr
        assert "BrokenPipeError" not in stderr


class TestParser:
    def test_unknown_command_rejected(self, capsys):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["frobnicate"])

    # argparse exits 2 on these, the code `test` gives a rejection
    @pytest.mark.parametrize("argv", [
        ["test", "--input", "x.csv", "--projections", "2.5"],
        ["test", "--input", "x.csv", "--depth", "nope"],
        ["test", "--depth", "ltr"],
    ], ids=["fractional-projections", "unknown-depth", "missing-input"])
    def test_usage_error_is_parameter_error(self, argv, capsys):
        assert main(argv) == EXIT_PARAMETER
        assert "usage: fkwc test" in capsys.readouterr().err

    def test_defaults_are_depth_spec_defaults(self):
        args = build_parser().parse_args(["test", "--input", "x.csv"])
        assert _depth_spec(args) == DepthSpec()
        assert _depth_spec_from_json({}) == DepthSpec()

    def test_bandwidth_read_once_for_flag_and_json(self):
        want = DepthSpec(kind="ksd", kernel_bandwidth=0.5)
        args = build_parser().parse_args(["test", "--input", "x.csv", "--depth", "ksd",
                                          "--bandwidth", "0.5"])
        assert _depth_spec(args) == want
        assert _depth_spec_from_json({"kind": "ksd", "bandwidth": "0.5"}) == want
        assert _depth_spec_from_json({"bandwidth": "median-heuristic"}) == DepthSpec()

    def test_bad_bandwidth_flag_names_flag_and_value(self, identical_groups_csv, capsys):
        code = main(["test", "--input", str(identical_groups_csv), "--depth", "ksd",
                     "--bandwidth", "abc"])
        assert code == EXIT_PARAMETER
        err = capsys.readouterr().err
        assert "'bandwidth'" in err and "'abc'" in err


class TestMalformedSpecs:
    """A spec value of the wrong type, a missing required key or a node that
    is not an object is a parameter error naming it, not a traceback."""

    STUDY = {"scenario": 1, "sizes": [8, 8], "grid_points": 21, "replications": 3}

    @pytest.mark.parametrize("command, spec, key", [
        ("simulate", dict(STUDY, depths=[{"kind": "rp", "projections": "abc"}]), "projections"),
        ("simulate", dict(STUDY, replications=None), "replications"),
        ("simulate", {"groups": [{"family": "gaussian"}, {"size": 3}]}, "size"),
        ("power", {"probs": [[0.5, 0.5], [0.5, 0.5]], "N": 10}, "thetas"),
        ("power", {"deltas": [0.0, 1.0], "thetas": [0.5, 0.5],
                   "density": {"kind": "chi2", "df": "x"}}, "df"),
        ("power", {"probs": [[0.5, 0.5], [0.5, 0.5]], "thetas": [0.5, 0.5]}, "N"),
        ("simulate", dict(STUDY, depths=[{"kind": "ksd", "bandwidth": "abc"}]), "bandwidth"),
        ("simulate", dict(STUDY, percentile_r="abc"), "percentile_r"),
        # out of range: refused when the spec is read, not in the first replicate
        ("simulate", dict(STUDY, percentile_r=2.0), 2.0),
        # a node that is not a JSON object is named by its value
        ("simulate", dict(STUDY, depths=[5]), 5),
        ("simulate", {"groups": [1, 2]}, 1),
        ("power", [1, 2], [1, 2]),
        ("power", {"deltas": [0.0, 1.0], "thetas": [0.5, 0.5], "density": [1]}, [1]),
    ], ids=["projections", "replications", "size", "thetas", "df", "N", "bandwidth",
            "percentile_r-text", "percentile_r-range", "depth-node", "group-node",
            "power-node", "density-node"])
    def test_exit_parameter(self, command, spec, key, tmp_path, capsys):
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(spec))
        assert main([command, "--spec", str(path)]) == EXIT_PARAMETER
        err = capsys.readouterr().err
        assert err.startswith("parameter error")
        assert repr(key) in err
        assert "Traceback" not in err

    # each integer key refuses a fraction and a bool, which int() would
    # truncate or read as 0 and 1; primed refuses a string
    @pytest.mark.parametrize("value", [2.7, True])
    @pytest.mark.parametrize("command, spec_of, key", [
        ("simulate", lambda v: {"scenario": v, "sizes": [8, 8]}, "scenario"),
        ("simulate", lambda v, study=STUDY: dict(study, sizes=[8, v]), "sizes"),
        ("simulate", lambda v, study=STUDY: dict(study, replications=v), "replications"),
        ("simulate", lambda v, study=STUDY: dict(study, grid_points=v), "grid_points"),
        ("simulate", lambda v, study=STUDY: dict(study, seed=v), "seed"),
        ("simulate", lambda v, study=STUDY: dict(study, depths=[{"kind": "rp", "projections": v}]),
         "projections"),
        ("simulate", lambda v, study=STUDY: dict(study, depths=[{"kind": "mbd", "band_order": v}]),
         "band_order"),
        ("simulate", lambda v: {"groups": [{"size": 5}, {"size": v}]}, "size"),
        ("power", lambda v: {"probs": [[0.5, 0.5], [0.5, 0.5]], "thetas": [0.5, 0.5],
                             "N": v}, "N"),
        ("power", lambda v: {"deltas": [0.0, 1.0], "thetas": [0.5, 0.5],
                             "density": {"kind": "model", "draws": v}}, "draws"),
        ("simulate", lambda v, study=STUDY: dict(study, depths=[{"primed": str(v)}]), "primed"),
    ], ids=["scenario", "sizes", "replications", "grid_points", "seed", "projections",
            "band_order", "size", "N", "draws", "primed"])
    def test_integer_and_flag_keys(self, command, spec_of, key, value, tmp_path, capsys):
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(spec_of(value)))
        assert main([command, "--spec", str(path)]) == EXIT_PARAMETER
        err = capsys.readouterr().err
        assert err.startswith(f"parameter error: {key} must be")
        assert repr(key) in err

    def test_integral_floats_and_integer_text_read_as_integers(self, tmp_path, capsys):
        outputs = []
        for spec in (dict(self.STUDY, depths=[{"kind": "rp", "projections": 3}]),
                     {"scenario": "1", "sizes": [8.0, "8"], "grid_points": 21.0,
                      "replications": "3", "depths": [{"kind": "rp", "projections": 3.0}]}):
            path = tmp_path / "spec.json"
            path.write_text(json.dumps(spec))
            assert main(["simulate", "--spec", str(path), "--format", "json"]) == EXIT_OK
            outputs.append(capsys.readouterr().out)
        assert outputs[0] == outputs[1]

    # NaN and Infinity are what Python's json module reads and writes
    @pytest.mark.parametrize("command, spec, name", [
        ("simulate", {"groups": [{"alpha": float("nan"), "size": 5}, {"size": 5}]}, "alpha"),
        ("simulate", {"groups": [{"beta": float("inf"), "size": 5}, {"size": 5}]}, "beta"),
        ("simulate", {"groups": [{"family": "eigen", "eigenvalues": [1, float("nan")],
                                  "size": 5}, {"size": 5}]}, "eigenvalues"),
        ("simulate", {"groups": [{"family": "skew_gaussian", "skew_shape": float("inf"),
                                  "size": 5}, {"size": 5}]}, "skew_shape"),
        ("power", {"deltas": [0.0, 1.0], "thetas": [0.5, 0.5],
                   "density": {"kind": "samples",
                               "values": [float("nan")] + list(range(1, 12))}}, "draws"),
        ("power", {"deltas": [0.0, 1.0], "thetas": [0.5, 0.5],
                   "density": {"kind": "samples",
                               "values": [float("inf")] + list(range(1, 12))}}, "draws"),
    ], ids=["alpha-nan", "beta-inf", "eigenvalue-nan", "skew-inf", "draw-nan", "draw-inf"])
    def test_non_finite_model_or_draw_names_field(self, command, spec, name, tmp_path,
                                                  capsys):
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(spec))
        assert main([command, "--spec", str(path)]) == EXIT_PARAMETER
        assert capsys.readouterr().err.startswith(f"parameter error: {name} must be finite")

    # refused before anything is evaluated, so no RuntimeWarning (an error
    # under pytest) is raised on the way
    @pytest.mark.parametrize("density, field, reason", [
        ({"kind": "chi2", "df": float("nan")}, "chi2 df", "finite"),
        ({"kind": "chi2", "df": float("inf")}, "chi2 df", "finite"),
        ({"kind": "chi2", "df": 1}, "chi2 df", "unbounded at 0"),
        ({"kind": "chi2", "df": 1.999}, "chi2 df", "unbounded at 0"),
        ({"kind": "chi2", "df": -3}, "chi2 df", "at least 2"),
        ({"kind": "chi2"}, "'df'", "needs"),
        ({"kind": "exponential", "rate": float("nan")}, "exponential rate", "finite"),
        ({"kind": "exponential", "rate": float("inf")}, "exponential rate", "finite"),
        ({"kind": "exponential", "rate": 0}, "exponential rate", "positive"),
        ({"kind": "exponential", "rate": -1.0}, "exponential rate", "positive"),
        ({"kind": "exponential", "rate": 1e-310}, "exponential rate", "40 / rate"),
    ], ids=["df-nan", "df-inf", "df-1", "df-below-2", "df-negative", "df-missing",
            "rate-nan", "rate-inf", "rate-zero", "rate-negative", "rate-subnormal"])
    def test_bad_density_parameter_names_field(self, density, field, reason, tmp_path,
                                               capsys):
        path = tmp_path / "spec.json"
        path.write_text(json.dumps({"deltas": [0.0, 1.0], "thetas": [0.5, 0.5],
                                    "density": density}))
        assert main(["power", "--spec", str(path)]) == EXIT_PARAMETER
        err = capsys.readouterr().err
        assert err.startswith("parameter error: ")
        assert field in err and reason in err
        assert "support interval" not in err and "Traceback" not in err

    def test_simulate_percentile_r_as_text(self, tmp_path, capsys):
        outputs = []
        for r in (0.5, "0.5"):
            path = tmp_path / "spec.json"
            path.write_text(json.dumps(dict(self.STUDY, percentile_r=r)))
            assert main(["simulate", "--spec", str(path), "--format", "json"]) == EXIT_OK
            outputs.append(capsys.readouterr().out)
        assert outputs[0] == outputs[1]

    PAIRWISE = {"probs": [[0.5, 0.53], [0.47, 0.5]], "thetas": [0.5, 0.5], "N": 100}

    # each is refused before an array is sized by it
    @pytest.mark.parametrize("spec, name", [
        (dict(PAIRWISE, N=0), "N"),
        (dict(PAIRWISE, N=1e308), "N"),
        (dict(PAIRWISE, N=50.5), "N"),
        (dict(PAIRWISE, N=10**8), "N"),
        (dict(PAIRWISE, probs=[[0.5, "x"], [0.47, 0.5]]), "probs"),
        (dict(PAIRWISE, thetas=[0.5, None]), "thetas"),
        ({"probs": [[0.5, 0.53], [0.47, "x"]], "thetas": [0.5, 0.5],
          "target_power": 0.8}, "probs"),
        ({"deltas": [0.0, "x"], "thetas": [0.5, 0.5],
          "density": {"kind": "exponential", "rate": 1.0}}, "deltas"),
        ({"deltas": [0.0, 1e6], "thetas": [0.5, 0.5],
          "density": {"kind": "chi2", "df": 5}}, "tau"),
        # NaN once passed the density's integral check and was refused as tau
        ({"deltas": [0.0, 0.3], "thetas": [0.5, 0.5],
          "density": {"kind": "histogram", "edges": [0.0, 1.0, 2.0],
                      "densities": [0.5, float("nan")]}},
         "density points, values and weights"),
    ], ids=["N-zero", "N-huge", "N-fraction", "N-above-max", "probs-text", "thetas-null",
            "target-probs-text", "deltas-text", "deltas-huge", "histogram-nan"])
    def test_refused_power_values(self, spec, name, tmp_path, capsys):
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(spec))
        assert main(["power", "--spec", str(path)]) == EXIT_PARAMETER
        err = capsys.readouterr().err
        assert err.startswith(f"parameter error: {name} must be")
        assert "Traceback" not in err

    def test_power_n_as_integer_text(self, tmp_path, capsys):
        outputs = []
        for n in (100, "100"):
            path = tmp_path / "spec.json"
            path.write_text(json.dumps(dict(self.PAIRWISE, N=n)))
            assert main(["power", "--spec", str(path)]) == EXIT_OK
            outputs.append(capsys.readouterr().out)
        assert outputs[0] == outputs[1]
        path.write_text(json.dumps(dict(self.PAIRWISE, N="50.5")))
        assert main(["power", "--spec", str(path)]) == EXIT_PARAMETER
        err = capsys.readouterr().err
        assert err.startswith("parameter error") and "'N'" in err
        assert "Traceback" not in err
