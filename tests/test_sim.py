"""Process generators and the replicated study harness."""

import numpy as np
import pytest
from scipy.stats import ks_2samp

from fkwc import (
    DepthSpec,
    ParameterError,
    ProcessModel,
    StudySpec,
    fourier_basis,
    gen_eigen,
    gen_gp,
    gen_skew_gp,
    gen_t1,
    run_study,
    save_study_csv,
    scenario_eigenvalues,
    scenario_models,
    squared_exponential_kernel,
)


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
        x = gen_gp(model, 3, 0)
        assert x.shape == (3, grid101.m)
        assert np.all(np.isfinite(x))

    def test_factorization_failure_reported(self, grid101, monkeypatch):
        from fkwc import NumericalError
        import fkwc.sim as sim_mod

        def always_fail(_):
            raise np.linalg.LinAlgError("not positive definite")

        monkeypatch.setattr(sim_mod.np.linalg, "cholesky", always_fail)
        model = ProcessModel(family="gaussian", grid=grid101, alpha=0.05, beta=1.0)
        with pytest.raises(NumericalError, match="jitter"):
            gen_gp(model, 2, 0)


class TestGaussianProcess:
    def test_pointwise_covariance_matches_kernel(self, grid101):
        model = ProcessModel(family="gaussian", grid=grid101, alpha=0.05, beta=1.0)
        x = gen_gp(model, 20_000, 12)
        s, t = 10, 14  # grid points 0.10 and 0.14
        k = squared_exponential_kernel(grid101, 0.05, 1.0)
        emp = np.mean(x[:, s] * x[:, t])
        se = np.sqrt((k[s, s] * k[t, t] + k[s, t] ** 2) / x.shape[0])
        assert abs(emp - k[s, t]) <= 3 * se

    def test_covariance_matrix_frobenius(self, grid101):
        model = ProcessModel(family="gaussian", grid=grid101, alpha=0.05, beta=1.0)
        x = gen_gp(model, 20_000, 13)
        emp = (x.T @ x) / x.shape[0]
        k = squared_exponential_kernel(grid101, 0.05, 1.0)
        dist = np.linalg.norm(emp - k) / np.linalg.norm(k)
        assert dist < 0.05

    def test_zero_mean(self, grid101):
        model = ProcessModel(family="gaussian", grid=grid101, alpha=0.05, beta=1.0)
        x = gen_gp(model, 20_000, 14)
        assert np.abs(x.mean(axis=0)).max() < 4.0 / np.sqrt(x.shape[0])


class TestStudentT1:
    def test_pointwise_median_near_zero(self, grid101):
        model = ProcessModel(family="t1", grid=grid101, alpha=0.05, beta=1.0)
        x = gen_t1(model, 5000, 21)
        med = np.median(x, axis=0)
        iqr = np.subtract(*np.percentile(x, [75, 25], axis=0))
        assert np.all(np.abs(med) < 3 * iqr / np.sqrt(x.shape[0]))

    def test_heavy_tails_blow_up_kurtosis(self, grid101):
        model = ProcessModel(family="t1", grid=grid101, alpha=0.05, beta=1.0)
        x = gen_t1(model, 5000, 22)
        v = x[:, 50]
        kurt = np.mean((v - v.mean()) ** 4) / np.var(v) ** 2
        assert kurt > 20

    def test_beta_scaling_matches_direct_scaling(self, grid101):
        m1 = ProcessModel(family="t1", grid=grid101, alpha=0.05, beta=1.0)
        m4 = ProcessModel(family="t1", grid=grid101, alpha=0.05, beta=4.0)
        a = 2.0 * gen_t1(m1, 5000, 23)[:, 30]
        b = gen_t1(m4, 5000, 24)[:, 30]
        assert ks_2samp(a, b).statistic < 0.05


class TestSkewGaussian:
    def test_shape_zero_reduces_to_gaussian(self, grid101):
        skew = ProcessModel(family="skew_gaussian", grid=grid101, alpha=0.05, beta=1.0,
                            skew_shape=0.0)
        gauss = ProcessModel(family="gaussian", grid=grid101, alpha=0.05, beta=1.0)
        a = gen_skew_gp(skew, 5000, 31)[:, 40]
        b = gen_gp(gauss, 5000, 32)[:, 40]
        assert ks_2samp(a, b).statistic < 0.05

    def test_skewness_positive_and_increasing(self, grid101):
        skews = []
        for a in (1.0, 4.0, 10.0):
            model = ProcessModel(family="skew_gaussian", grid=grid101, alpha=0.05,
                                 beta=1.0, skew_shape=a)
            v = gen_skew_gp(model, 10_000, int(a))[:, 55]
            skews.append(np.mean((v - v.mean()) ** 3) / np.var(v) ** 1.5)
        assert skews[0] > 0
        assert skews[0] < skews[1] < skews[2]

    def test_pointwise_variance_formula(self, grid101):
        a, beta = 4.0, 2.0
        delta2 = a * a / (1 + a * a)
        model = ProcessModel(family="skew_gaussian", grid=grid101, alpha=0.05,
                             beta=beta, skew_shape=a)
        x = gen_skew_gp(model, 20_000, 35)
        v = x[:, 60]
        want = beta * (1 - 2 * delta2 / np.pi)
        emp = np.var(v)
        m4 = np.mean((v - v.mean()) ** 4)
        se = np.sqrt(max(m4 - emp**2, 0.0) / len(v))
        assert abs(emp - want) <= 3 * se

    def test_mean_centering(self, grid101):
        model = ProcessModel(family="skew_gaussian", grid=grid101, alpha=0.05,
                             beta=1.0, skew_shape=4.0)
        x = gen_skew_gp(model, 20_000, 36)
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
        x = gen_eigen(model, 10_000, 41)
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

    def test_bit_identical_reruns(self, grid21):
        spec = self._small_spec(grid21)
        r1 = run_study(spec)
        r2 = run_study(spec)
        np.testing.assert_array_equal(r1.rejection_rates, r2.rejection_rates)

    def test_parallel_matches_serial(self, grid21):
        spec = self._small_spec(grid21)
        r1 = run_study(spec, n_jobs=1)
        r2 = run_study(spec, n_jobs=2)
        np.testing.assert_array_equal(r1.rejection_rates, r2.rejection_rates)

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
