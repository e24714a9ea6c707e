"""Process generators and the replicated study harness."""

import concurrent.futures
import os
import pickle
from dataclasses import replace

import numpy as np
import pytest
from scipy.stats import ks_2samp

import fkwc.sim as sim_mod
from fkwc import (
    DepthSpec,
    Grid,
    ParameterError,
    ProcessModel,
    StudySpec,
    fourier_basis,
    generate,
    generate_blocks,
    run_study,
    save_study_csv,
    scenario_eigenvalues,
    scenario_models,
    squared_exponential_kernel,
)


def reference_cholesky(grid, alpha, beta):
    kmat = squared_exponential_kernel(grid, alpha, beta)
    for jitter in (1e-10, 1e-8, 1e-6):
        try:
            return np.linalg.cholesky(kmat + jitter * beta * np.eye(grid.m))
        except np.linalg.LinAlgError:
            continue
    raise AssertionError("reference kernel does not factor")


def reference_draw(model, n, seed):
    """The four per-family generators as they stood before ``generate``
    took their bodies: each draw factors the kernel afresh."""
    rng = np.random.default_rng(seed)
    if model.family == "eigen":
        lams = np.asarray(model.eigenvalues, dtype=float)
        basis = fourier_basis(model.grid, lams.size)
        xi = rng.standard_normal((n, lams.size))
        return (xi * np.sqrt(lams)) @ basis
    chol = reference_cholesky(model.grid, model.alpha, model.beta)
    if model.family == "gaussian":
        z = rng.standard_normal((n, model.grid.m))
        return z @ chol.T
    if model.family == "t1":
        z = rng.standard_normal((n, model.grid.m))
        wdiv = rng.chisquare(1.0, size=n)
        for i in range(n):
            while wdiv[i] < 1e-300:
                wdiv[i] = rng.chisquare(1.0)
        return (z @ chol.T) / np.sqrt(wdiv)[:, None]
    a = model.skew_shape
    delta = a / np.sqrt(1.0 + a * a)
    z1 = rng.standard_normal((n, model.grid.m)) @ chol.T
    z2 = rng.standard_normal((n, model.grid.m)) @ chol.T
    x = delta * np.abs(z1) + np.sqrt(1.0 - delta * delta) * z2
    return x - delta * np.sqrt(2.0 * model.beta / np.pi)


FAMILIES = ("gaussian", "t1", "skew_gaussian", "eigen")


def _model(family, grid, alpha=0.05, beta=1.0):
    lams = (1.0, 2.0, 3.0, 0.5) if family == "eigen" else None
    return ProcessModel(family=family, grid=grid, alpha=alpha, beta=beta, eigenvalues=lams)


class TestGenerate:
    @pytest.mark.parametrize("family", FAMILIES)
    def test_bit_identical_to_reference(self, family):
        for alpha in (0.01, 0.05, 1.0):
            for m in (21, 101):
                model = _model(family, Grid(m), alpha)
                for n in (1, 3, 40, 100):
                    for seed in (0, 7, 123456789, (5, 11)):
                        want = reference_draw(model, n, seed)
                        for _ in range(2):
                            np.testing.assert_array_equal(generate(model, n, seed), want)

    @pytest.mark.parametrize("family", FAMILIES)
    def test_generator_seed_is_drawn_from(self, family, grid21):
        model = _model(family, grid21)
        rng, ref = np.random.default_rng(42), np.random.default_rng(42)
        for n in (5, 3):
            np.testing.assert_array_equal(generate(model, n, rng), reference_draw(model, n, ref))

    def test_kernel_factored_once_per_model(self, grid101, monkeypatch):
        calls = []
        cholesky = np.linalg.cholesky

        def counting(a):
            calls.append(a.shape)
            return cholesky(a)

        monkeypatch.setattr(sim_mod.np.linalg, "cholesky", counting)
        model = _model("gaussian", grid101)
        for seed in range(3):
            generate(model, 4, seed)
        assert len(calls) == 1
        eigen = _model("eigen", grid101)
        generate(eigen, 4, 0)
        assert "kernel_factor" not in vars(eigen)
        assert len(calls) == 1

    def test_replaced_model_has_its_own_factor(self, grid21):
        model = _model("t1", grid21)
        generate(model, 2, 0)
        doubled = replace(model, beta=2.0)
        assert doubled == _model("t1", grid21, beta=2.0)
        assert model == _model("t1", grid21)
        assert hash(model) == hash(_model("t1", grid21))
        assert "kernel_factor" not in vars(doubled)
        np.testing.assert_array_equal(doubled.kernel_factor, reference_cholesky(grid21, 0.05, 2.0))
        np.testing.assert_array_equal(model.kernel_factor, reference_cholesky(grid21, 0.05, 1.0))

    def test_kernel_factor_read_only(self, grid21):
        factor = _model("gaussian", grid21).kernel_factor
        assert not factor.flags.writeable
        with pytest.raises(ValueError):
            factor[0, 0] = 1.0

    @pytest.mark.parametrize("family", FAMILIES)
    def test_pickled_by_fields(self, family, grid101):
        """A pickle sends the fields and not the cached factor, and the copy
        factors its own: read-only and byte-equal."""
        model = replace(_model(family, grid101), skew_shape=2.5)
        generate(model, 3, 0)
        data = pickle.dumps(model)
        assert len(data) < 1024
        back = pickle.loads(data)
        assert back == model and "kernel_factor" not in vars(back)
        assert vars(back).keys() == vars(model).keys() - {"kernel_factor"}
        np.testing.assert_array_equal(generate(back, 3, 1), generate(model, 3, 1))
        if family != "eigen":
            assert not back.kernel_factor.flags.writeable
            assert back.kernel_factor.tobytes() == model.kernel_factor.tobytes()


# one block, its edges, a merged 1-row tail (1,025 and 2,049) and many blocks
BLOCK_NS = (1, 1023, 1024, 1025, 2049, 10001, 20000)


class TestGenerateBlocks:
    """``generate_blocks`` yields the rows of ``generate`` byte for byte:
    the BLAS products of its blocks give the same bits as the one product
    of ``generate``, which these cases check rather than assume."""

    @pytest.mark.parametrize("n", BLOCK_NS)
    @pytest.mark.parametrize("family", FAMILIES)
    def test_rows_of_generate_byte_for_byte(self, family, n, grid101):
        model = _model(family, grid101)
        for seed in (0, 123456789):
            blocks = list(generate_blocks(model, n, seed))
            assert np.concatenate(blocks).tobytes() == generate(model, n, seed).tobytes()
            sizes = [len(b) for b in blocks]
            assert sum(sizes) == n
            if n <= 1024:
                assert sizes == [n]
            else:
                assert all(1024 <= s <= 2047 for s in sizes), sizes

    @pytest.mark.parametrize("n", BLOCK_NS)
    @pytest.mark.parametrize("family", FAMILIES)
    def test_passed_generator_ends_where_generate_leaves_it(self, family, n, grid101):
        model = _model(family, grid101)
        rng, ref = np.random.default_rng(5), np.random.default_rng(5)
        got = np.concatenate(list(generate_blocks(model, n, rng)))
        assert got.tobytes() == generate(model, n, ref).tobytes()
        assert rng.standard_normal() == ref.standard_normal()

    @pytest.mark.parametrize("family, blocks", [
        ("gaussian", 2), ("t1", 2), ("skew_gaussian", 3), ("eigen", 1),
    ])
    def test_peak_blocks_for_a_caller_that_drops_each(self, family, blocks, grid101,
                                                      traced_peak):
        # a block's normals and their product, and skew_gaussian's second
        # product; eigen's normals are (rows, 4); t1's scales are 8 bytes a row
        model = _model(family, grid101)
        if family != "eigen":
            model.kernel_factor  # factored before the traced draws

        def drain():
            for x in generate_blocks(model, 4 * 1024, 1):
                del x

        assert traced_peak(drain) <= (blocks + 0.1) * 1024 * grid101.m * 8

    def test_count_below_one_refused_at_the_call(self, grid21):
        with pytest.raises(ParameterError):
            generate_blocks(_model("gaussian", grid21), 0, 0)


class TestKernel:
    def test_diagonal_equals_beta(self, grid101):
        k = squared_exponential_kernel(grid101, 0.05, 2.5)
        np.testing.assert_allclose(np.diag(k), 2.5)

    def test_known_off_diagonal_value(self, grid101):
        k = squared_exponential_kernel(grid101, 0.05, 1.0)
        # points 0 and 0.05 are 5 grid steps apart on m=101
        assert k[0, 5] == pytest.approx(np.exp(-0.5), abs=1e-12)

    @pytest.mark.parametrize("alpha", [0.01, 0.05, 1.0])
    def test_cholesky_succeeds_across_length_scales(self, grid101, alpha):
        model = ProcessModel(family="gaussian", grid=grid101, alpha=alpha, beta=1.0)
        x = generate(model, 3, 0)
        assert x.shape == (3, grid101.m)
        assert np.all(np.isfinite(x))

    def test_factorization_failure_reported(self, grid101, monkeypatch):
        from fkwc import NumericalError

        def always_fail(_):
            raise np.linalg.LinAlgError("not positive definite")

        monkeypatch.setattr(sim_mod.np.linalg, "cholesky", always_fail)
        model = ProcessModel(family="gaussian", grid=grid101, alpha=0.05, beta=1.0)
        with pytest.raises(NumericalError, match="jitter"):
            generate(model, 2, 0)


class TestGaussianProcess:
    def test_pointwise_covariance_matches_kernel(self, grid101):
        model = ProcessModel(family="gaussian", grid=grid101, alpha=0.05, beta=1.0)
        x = generate(model, 20_000, 12)
        s, t = 10, 14  # grid points 0.10 and 0.14
        k = squared_exponential_kernel(grid101, 0.05, 1.0)
        emp = np.mean(x[:, s] * x[:, t])
        se = np.sqrt((k[s, s] * k[t, t] + k[s, t] ** 2) / x.shape[0])
        assert abs(emp - k[s, t]) <= 3 * se

    def test_covariance_matrix_frobenius(self, grid101):
        model = ProcessModel(family="gaussian", grid=grid101, alpha=0.05, beta=1.0)
        x = generate(model, 20_000, 13)
        emp = (x.T @ x) / x.shape[0]
        k = squared_exponential_kernel(grid101, 0.05, 1.0)
        dist = np.linalg.norm(emp - k) / np.linalg.norm(k)
        assert dist < 0.05

    def test_zero_mean(self, grid101):
        model = ProcessModel(family="gaussian", grid=grid101, alpha=0.05, beta=1.0)
        x = generate(model, 20_000, 14)
        assert np.abs(x.mean(axis=0)).max() < 4.0 / np.sqrt(x.shape[0])


class TestStudentT1:
    def test_pointwise_median_near_zero(self, grid101):
        model = ProcessModel(family="t1", grid=grid101, alpha=0.05, beta=1.0)
        x = generate(model, 5000, 21)
        med = np.median(x, axis=0)
        iqr = np.subtract(*np.percentile(x, [75, 25], axis=0))
        assert np.all(np.abs(med) < 3 * iqr / np.sqrt(x.shape[0]))

    def test_heavy_tails_blow_up_kurtosis(self, grid101):
        model = ProcessModel(family="t1", grid=grid101, alpha=0.05, beta=1.0)
        x = generate(model, 5000, 22)
        v = x[:, 50]
        kurt = np.mean((v - v.mean()) ** 4) / np.var(v) ** 2
        assert kurt > 20

    def test_beta_scaling_matches_direct_scaling(self, grid101):
        m1 = ProcessModel(family="t1", grid=grid101, alpha=0.05, beta=1.0)
        m4 = ProcessModel(family="t1", grid=grid101, alpha=0.05, beta=4.0)
        a = 2.0 * generate(m1, 5000, 23)[:, 30]
        b = generate(m4, 5000, 24)[:, 30]
        assert ks_2samp(a, b).statistic < 0.05


class TestSkewGaussian:
    def test_shape_zero_reduces_to_gaussian(self, grid101):
        skew = ProcessModel(family="skew_gaussian", grid=grid101, alpha=0.05, beta=1.0,
                            skew_shape=0.0)
        gauss = ProcessModel(family="gaussian", grid=grid101, alpha=0.05, beta=1.0)
        a = generate(skew, 5000, 31)[:, 40]
        b = generate(gauss, 5000, 32)[:, 40]
        assert ks_2samp(a, b).statistic < 0.05

    def test_skewness_positive_and_increasing(self, grid101):
        skews = []
        for a in (1.0, 4.0, 10.0):
            model = ProcessModel(family="skew_gaussian", grid=grid101, alpha=0.05,
                                 beta=1.0, skew_shape=a)
            v = generate(model, 10_000, int(a))[:, 55]
            skews.append(np.mean((v - v.mean()) ** 3) / np.var(v) ** 1.5)
        assert skews[0] > 0
        assert skews[0] < skews[1] < skews[2]

    def test_pointwise_variance_formula(self, grid101):
        a, beta = 4.0, 2.0
        delta2 = a * a / (1 + a * a)
        model = ProcessModel(family="skew_gaussian", grid=grid101, alpha=0.05,
                             beta=beta, skew_shape=a)
        x = generate(model, 20_000, 35)
        v = x[:, 60]
        want = beta * (1 - 2 * delta2 / np.pi)
        emp = np.var(v)
        m4 = np.mean((v - v.mean()) ** 4)
        se = np.sqrt(max(m4 - emp**2, 0.0) / len(v))
        assert abs(emp - want) <= 3 * se

    def test_mean_centering(self, grid101):
        model = ProcessModel(family="skew_gaussian", grid=grid101, alpha=0.05,
                             beta=1.0, skew_shape=4.0)
        x = generate(model, 20_000, 36)
        assert np.abs(x.mean(axis=0)).max() < 4.0 / np.sqrt(x.shape[0])


class TestEigenFamily:
    def test_scenario_catalog_formulas(self):
        lam1, lam2 = scenario_eigenvalues(1)
        assert lam1 == (1.0, 2.0, 3.0)
        assert lam2 == (3.0, 2.0, 1.0)
        lam1, lam2 = scenario_eigenvalues(2)
        assert lam1 == tuple(float(k) for k in range(1, 12))
        assert lam2 == tuple(float(12 - k) for k in range(1, 12))
        lam1, lam2 = scenario_eigenvalues(3)
        assert lam1 == tuple(float(2**k) for k in range(1, 12))
        assert lam2 == tuple(float(2 ** (12 - k)) for k in range(1, 12))
        for s, ratio in ((4, 1.5), (5, 1.5), (6, 1.5)):
            lam1, lam2 = scenario_eigenvalues(s)
            assert lam2 == tuple(ratio * v for v in lam1)

    def test_trace_identities(self):
        for s, (t1, t2) in ((1, (6, 6)), (2, (66, 66)), (3, (4094, 4094)),
                            (4, (6, 9)), (5, (66, 99)), (6, (4094, 6141))):
            lam1, lam2 = scenario_eigenvalues(s)
            assert sum(lam1) == t1
            assert sum(lam2) == t2

    def test_bad_scenario_id(self):
        with pytest.raises(ParameterError):
            scenario_eigenvalues(7)

    # NaN parameters once drew NaN curves, refused later as curve values
    @pytest.mark.parametrize("field, kwargs", [
        ("alpha", dict(alpha=np.nan)),
        ("beta", dict(beta=np.inf)),
        ("eigenvalues", dict(family="eigen", eigenvalues=(1.0, np.nan))),
        ("skew_shape", dict(family="skew_gaussian", skew_shape=np.inf)),
    ])
    def test_non_finite_parameters_refused(self, field, kwargs):
        with pytest.raises(ParameterError, match=f"^{field} must be finite"):
            ProcessModel(**kwargs)

    def test_basis_orthonormal(self, grid101):
        basis = fourier_basis(grid101, 11)
        w = grid101.trapezoid_weights
        for i in range(11):
            for j in range(i, 11):
                want = 1.0 if i == j else 0.0
                got = (basis[i] * basis[j]) @ w
                assert got == pytest.approx(want, abs=5e-4)

    def test_score_variances_match_eigenvalues(self, grid101):
        lams = (4.0, 2.0, 1.0, 0.5, 0.25)
        model = ProcessModel(family="eigen", grid=grid101, eigenvalues=lams)
        x = generate(model, 10_000, 41)
        basis = fourier_basis(grid101, len(lams))
        w = grid101.trapezoid_weights
        for k, lam in enumerate(lams):
            scores = x @ (w * basis[k])
            se = lam * np.sqrt(2.0 / x.shape[0])
            assert abs(np.var(scores) - lam) <= 3 * se + 5e-3


class TestRunStudy:
    def _small_spec(self, grid, reps=30):
        gp = ProcessModel(family="gaussian", grid=grid, alpha=0.05, beta=1.0)
        return StudySpec(
            models=(gp, gp),
            group_sizes=(20, 20),
            depth_specs=(DepthSpec(kind="ltr"), DepthSpec(kind="rp", rng_seed=1)),
            alpha=0.05,
            replications=reps,
            seed=77,
        )

    @pytest.mark.parametrize("field, value", [
        ("alpha", 0.0), ("alpha", 1.5), ("percentile_r", 0.0), ("percentile_r", 2.0),
    ])
    def test_alpha_and_percentile_r_checked_up_front(self, field, value, grid21):
        with pytest.raises(ParameterError, match=f"{field} must lie in"):
            replace(self._small_spec(grid21), **{field: value})

    def test_bit_identical_reruns(self, grid21):
        spec = self._small_spec(grid21)
        r1 = run_study(spec)
        r2 = run_study(spec)
        np.testing.assert_array_equal(r1.rejection_rates, r2.rejection_rates)

    def test_parallel_matches_serial(self, grid21):
        spec = self._small_spec(grid21)
        r1 = run_study(spec, n_jobs=1)
        # the models now hold their factor; each worker factors its own copy
        assert "kernel_factor" in vars(spec.models[0])
        r2 = run_study(spec, n_jobs=2)
        np.testing.assert_array_equal(r1.rejection_rates, r2.rejection_rates)

    @pytest.mark.parametrize("reps, n_jobs, cpus, workers", [
        (30, 5000, 64, 4),  # one worker per chunk of 8 replicates
        (30, 5000, 2, 2),   # one per usable CPU
        (30, 3, 64, 3),     # no more than asked for
        (8, 5000, 64, None),  # one chunk: no pool at all
    ])
    def test_worker_count_capped(self, reps, n_jobs, cpus, workers, grid21, monkeypatch):
        started = []

        class RecordingPool:
            """Stands in for ProcessPoolExecutor: records its size, maps serially."""

            def __init__(self, max_workers):
                started.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, *iterables, chunksize=1):
                return map(fn, *iterables)

        # run_study imports the pool from concurrent.futures when it starts one
        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", RecordingPool)
        monkeypatch.setattr(sim_mod.os, "sched_getaffinity", lambda pid: set(range(cpus)))
        spec = self._small_spec(grid21, reps=reps)
        got = run_study(spec, n_jobs=n_jobs)
        assert started == ([] if workers is None else [workers])
        want = run_study(spec, n_jobs=1)
        np.testing.assert_array_equal(got.rejection_rates, want.rejection_rates)

    def test_runs_without_sched_getaffinity(self, grid21, monkeypatch):
        # os.sched_getaffinity exists only on some platforms (not on macOS or
        # Windows): there a study caps its workers by os.cpu_count()
        spec = self._small_spec(grid21)
        want = run_study(spec).rejection_rates
        monkeypatch.delattr(os, "sched_getaffinity")
        for n_jobs in (1, 2):
            np.testing.assert_array_equal(run_study(spec, n_jobs=n_jobs).rejection_rates, want)

    @pytest.mark.parametrize("n_jobs", [0, -3])
    def test_n_jobs_below_one_refused(self, n_jobs, grid21):
        with pytest.raises(ParameterError, match="n_jobs"):
            run_study(self._small_spec(grid21, reps=2), n_jobs=n_jobs)

    def test_null_size_within_binomial_bounds(self, grid21):
        spec = self._small_spec(grid21, reps=200)
        res = run_study(spec)
        se = np.sqrt(0.05 * 0.95 / spec.replications)
        for rate in res.rejection_rates:
            assert abs(rate - 0.05) <= 3 * se

    def test_csv_export(self, tmp_path, grid21):
        spec = self._small_spec(grid21, reps=5)
        res = run_study(spec)
        out = tmp_path / "study.csv"
        save_study_csv(res, out)
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "depth,family,param,value,N,rate,se,R"
        assert len(lines) == 3

    def test_power_scenario_five_quick(self, grid101):
        m1, m2 = scenario_models(5, grid101)
        spec = StudySpec(
            models=(m1, m2), group_sizes=(100, 100),
            depth_specs=(DepthSpec(kind="ltr"),), replications=25, seed=5,
        )
        res = run_study(spec)
        assert res.rejection_rates[0] >= 0.95

    def test_se_formula(self, grid21):
        spec = self._small_spec(grid21, reps=40)
        res = run_study(spec)
        for rate, se in zip(res.rejection_rates, res.std_errors):
            assert se == pytest.approx(np.sqrt(rate * (1 - rate) / 40), abs=1e-12)
