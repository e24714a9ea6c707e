"""Noncentrality, local-alternative tau, noncentral chi-square series, and
sample-size search."""

import mpmath as mp
import numpy as np
import pytest

from fkwc import (
    Grid,
    InfeasibleError,
    LocalAlternativeSpec,
    NumericalError,
    ParameterError,
    ProcessModel,
    density_from_callable,
    density_from_samples,
    local_tau,
    mc_rank_prob,
    noncentral_chisq_sf,
    power_from_pairwise,
    predicted_power,
    required_sample_size,
    tau_from_pairwise,
)


def symmetric_probs(j, eps=0.0):
    probs = np.full((j, j), 0.5)
    if j == 2:
        probs[0, 1] = 0.5 + eps
        probs[1, 0] = 0.5 - eps
    return probs


class TestTauFromPairwise:
    def test_null_probs_give_zero(self):
        probs = symmetric_probs(3)
        assert tau_from_pairwise(probs, [1 / 3] * 3, [50] * 3, 150) == 0.0

    def test_two_group_closed_form(self):
        n, eps = 100, 0.05
        tau = tau_from_pairwise(symmetric_probs(2, eps), [0.5, 0.5], [n / 2, n / 2], n)
        # direct reduction of the display: 12/(N(N+1)) * 2*(N/2)*(N*eps/2)^2
        assert tau == pytest.approx(3 * n**2 * eps**2 / (n + 1), rel=1e-12)

    def test_relabeling_invariance(self):
        probs = np.array([[0.5, 0.6, 0.45], [0.4, 0.5, 0.55], [0.55, 0.45, 0.5]])
        thetas = [1 / 3] * 3
        sizes = [40] * 3
        tau = tau_from_pairwise(probs, thetas, sizes, 120)
        perm = [2, 0, 1]
        probs_p = probs[np.ix_(perm, perm)]
        tau_p = tau_from_pairwise(probs_p, thetas, sizes, 120)
        assert tau == pytest.approx(tau_p, rel=1e-12)

    def test_continuity_in_probs(self):
        thetas = [0.5, 0.5]
        sizes = [50, 50]
        base = tau_from_pairwise(symmetric_probs(2, 0.05), thetas, sizes, 100)
        d1 = tau_from_pairwise(symmetric_probs(2, 0.05 + 1e-4), thetas, sizes, 100) - base
        d2 = tau_from_pairwise(symmetric_probs(2, 0.05 + 1e-6), thetas, sizes, 100) - base
        assert d1 / d2 == pytest.approx(100.0, rel=0.02)

    def test_diagonal_validated(self):
        probs = symmetric_probs(2)
        probs[0, 0] = 0.7
        with pytest.raises(ParameterError):
            tau_from_pairwise(probs, [0.5, 0.5], [10, 10], 20)


class TestMcRankProb:
    def test_identical_models_half(self):
        g = Grid.regular(51)
        model = ProcessModel(family="gaussian", grid=g, alpha=0.1, beta=1.0)
        est = mc_rank_prob(model, model, reps=4000, seed=3)
        assert abs(est.estimate - 0.5) <= 3 * est.std_error
        assert 0.0 <= est.estimate <= 1.0

    def test_larger_variance_has_larger_norms(self):
        g = Grid.regular(51)
        m1 = ProcessModel(family="gaussian", grid=g, alpha=0.1, beta=1.0)
        m2 = ProcessModel(family="gaussian", grid=g, alpha=0.1, beta=2.0)
        est = mc_rank_prob(m1, m2, reps=10_000, seed=4)
        # X2 has stochastically larger norms, so D(X1) <= D(X2) is rare:
        # Pr(score_2 <= score_1) < 1/2 ... the reported orientation is
        # Pr(D(model_j) <= D(model_k)) = Pr(norms_k <= norms_j)
        assert est.estimate < 0.5 - 3 * est.std_error
        est_rev = mc_rank_prob(m2, m1, reps=10_000, seed=4)
        assert est_rev.estimate > 0.5 + 3 * est_rev.std_error

    def test_derivative_channel_included(self):
        g = Grid.regular(51)
        m1 = ProcessModel(family="eigen", grid=g, eigenvalues=(1.0, 1.0))
        m2 = ProcessModel(family="eigen", grid=g, eigenvalues=(2.0, 2.0))
        est = mc_rank_prob(m2, m1, p=1, reps=5000, seed=5)
        assert est.estimate > 0.5


class TestLocalTau:
    def test_equal_deltas_give_zero(self):
        dens = density_from_callable(lambda z: np.exp(-z), (0.0, 40.0))
        spec = LocalAlternativeSpec((2.0, 2.0, 2.0), (0.3, 0.3, 0.4), dens)
        assert local_tau(spec) == pytest.approx(0.0, abs=1e-15)

    def test_exponential_example(self):
        dens = density_from_callable(lambda z: np.exp(-z), (0.0, 40.0))
        spec = LocalAlternativeSpec((0.0, 1.0), (0.5, 0.5), dens)
        assert local_tau(spec) == pytest.approx(0.1875, abs=1e-4)

    def test_delta_g_scale_invariant_for_exponentials(self):
        # z g(z)^2 integrates to 1/4 for every exponential rate: substituting
        # u = rate*z shows the scale family shares one value
        for rate in (0.5, 1.0, 2.0):
            dens = density_from_callable(
                lambda z, r=rate: r * np.exp(-r * z), (0.0, 60.0 / rate)
            )
            assert dens.delta_g() == pytest.approx(0.25, abs=1e-4)

    def test_shift_invariance_in_deltas(self):
        dens = density_from_callable(lambda z: np.exp(-z), (0.0, 40.0))
        a = local_tau(LocalAlternativeSpec((0.0, 1.0, 3.0), (0.5, 0.25, 0.25), dens))
        b = local_tau(LocalAlternativeSpec((10.0, 11.0, 13.0), (0.5, 0.25, 0.25), dens))
        assert a == pytest.approx(b, rel=1e-12)

    def test_unnormalized_density_rejected(self):
        dens = density_from_callable(lambda z: 2.0 * np.exp(-z), (0.0, 40.0))
        with pytest.raises(ParameterError):
            LocalAlternativeSpec((0.0, 1.0), (0.5, 0.5), dens)

    def test_histogram_density_normalized(self):
        rng = np.random.default_rng(9)
        dens = density_from_samples(rng.chisquare(5, size=20_000))
        assert dens.integral() == pytest.approx(1.0, abs=1e-9)
        exact = 24.0 / (32.0 * float(mp.gamma(2.5)) ** 2)
        assert dens.delta_g() == pytest.approx(exact, abs=0.02)

    def test_heavy_tailed_draws_refuse_oversized_histogram(self):
        # squared Cauchy draws: Freedman-Diaconis asks for about 9e9 bins
        rng = np.random.default_rng(9)
        with pytest.raises(NumericalError, match="bins"):
            density_from_samples(rng.standard_cauchy(size=20_000) ** 2)

    def test_zero_iqr_draws_say_why(self):
        # 20 equal draws and one outlier: one Freedman-Diaconis bin
        with pytest.raises(ParameterError, match="interquartile range of 0"):
            density_from_samples(np.r_[np.ones(20), 2.0])

def mp_ncx2_sf(x, df, tau):
    """Quadrature of the Bessel-form noncentral density (test oracle)."""
    if tau == 0:
        return float(mp.gammainc(df / 2, x / 2, mp.inf, regularized=True))
    def pdf(u):
        return (
            mp.mpf(0.5)
            * mp.e ** (-(u + tau) / 2)
            * (u / tau) ** (mp.mpf(df) / 4 - mp.mpf(0.5))
            * mp.besseli(mp.mpf(df) / 2 - 1, mp.sqrt(tau * u))
        )
    return float(mp.quad(pdf, [x, x + 30 * (1 + mp.sqrt(tau)), mp.inf]))


class TestNoncentralChisq:
    def test_central_case_at_crit(self):
        assert noncentral_chisq_sf(3.8415, 1, 0.0) == pytest.approx(0.05, abs=1e-4)

    def test_df2_closed_form(self):
        assert noncentral_chisq_sf(5.9915, 2, 0.0) == pytest.approx(
            np.exp(-5.9915 / 2), abs=1e-12
        )
        assert noncentral_chisq_sf(5.9915, 2, 0.0) == pytest.approx(0.05, abs=1e-4)

    def test_monotone_in_tau(self):
        vals = [noncentral_chisq_sf(7.0, 2, tau) for tau in (0.0, 1.0, 4.0, 9.0, 25.0)]
        assert np.all(np.diff(vals) > 0)

    @pytest.mark.parametrize("df", [1, 3, 6])
    @pytest.mark.parametrize("tau", [0.5, 5.0, 20.0])
    @pytest.mark.parametrize("x", [0.5, 4.0, 15.0, 40.0])
    def test_matches_density_quadrature(self, df, tau, x):
        got = noncentral_chisq_sf(x, df, tau)
        want = mp_ncx2_sf(x, df, tau)
        assert got == pytest.approx(want, abs=1e-6)

    def test_central_matches_incomplete_gamma_oracle(self):
        for df in (1, 2, 5):
            for x in (0.3, 2.0, 10.0):
                want = float(mp.gammainc(df / 2, x / 2, mp.inf, regularized=True))
                assert noncentral_chisq_sf(x, df, 0.0) == pytest.approx(want, abs=1e-10)


class TestPredictedPowerAndSampleSize:
    def test_zero_tau_power_is_alpha(self):
        res = predicted_power(0.0, 3, alpha=0.05)
        assert res.predicted_power == pytest.approx(0.05, abs=1e-9)
        assert res.predicted_power >= res.alpha - 1e-9

    def test_round_trip(self):
        probs = symmetric_probs(2, 0.04)
        thetas = [0.5, 0.5]
        target = 0.9
        n_req = required_sample_size(probs, thetas, target)
        at_n = power_from_pairwise(probs, thetas, n_req).predicted_power
        below = power_from_pairwise(probs, thetas, n_req - 1).predicted_power
        assert at_n >= target
        assert below < target

    def test_infeasible_when_null(self):
        with pytest.raises(InfeasibleError):
            required_sample_size(symmetric_probs(2, 0.0), [0.5, 0.5], 0.9)

    def test_bad_target(self):
        with pytest.raises(ParameterError):
            required_sample_size(symmetric_probs(2, 0.1), [0.5, 0.5], 0.04)
