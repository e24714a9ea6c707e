"""Noncentrality, local-alternative tau, noncentral chi-square series, and
sample-size search."""

import tracemalloc

import mpmath as mp
import numpy as np
import pytest
from scipy.stats import chi2, poisson

import fkwc.power
from fkwc import (
    Grid,
    InfeasibleError,
    LocalAlternativeSpec,
    NumericalError,
    ParameterError,
    ProcessModel,
    SupportDensity,
    density_from_callable,
    density_from_histogram,
    density_from_samples,
    differentiate,
    generate,
    local_tau,
    mc_rank_prob,
    noncentral_chisq_sf,
    power_from_pairwise,
    predicted_power,
    required_sample_size,
    scenario_models,
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
    def test_models_on_different_grids_refused(self):
        m51 = ProcessModel(grid=Grid(51))
        m101 = ProcessModel(grid=Grid(101))
        with pytest.raises(ParameterError, match=r"Grid\(m=51\).*Grid\(m=101\)"):
            mc_rank_prob(m51, m101, reps=10)

    def test_identical_models_half(self):
        g = Grid(51)
        model = ProcessModel(family="gaussian", grid=g, alpha=0.1, beta=1.0)
        est = mc_rank_prob(model, model, reps=4000, seed=3)
        assert abs(est.estimate - 0.5) <= 3 * est.std_error
        assert 0.0 <= est.estimate <= 1.0

    def test_larger_variance_has_larger_norms(self):
        g = Grid(51)
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
        g = Grid(51)
        m1 = ProcessModel(family="eigen", grid=g, eigenvalues=(1.0, 1.0))
        m2 = ProcessModel(family="eigen", grid=g, eigenvalues=(2.0, 2.0))
        est = mc_rank_prob(m2, m1, p=1, reps=5000, seed=5)
        assert est.estimate > 0.5

    @pytest.mark.parametrize("p", [0, 1])
    def test_chunked_count_equals_one_shot(self, p):
        m1, m2 = scenario_models(1)
        reps = int(2.5 * fkwc.power._RANK_PROB_CHUNK)
        w = m1.grid.trapezoid_weights

        # the ltr (p = 0) and ltr' (p = 1) scores, written out
        def scores(model, seed):
            x = generate(model, reps, seed)
            if p == 0:
                return (x * x) @ w
            d = differentiate(x, model.grid)
            return np.sqrt((x * x) @ w) + np.sqrt((d * d) @ w)

        want = np.mean(scores(m2, (7, 13)) <= scores(m1, (7, 11)))
        assert mc_rank_prob(m1, m2, p=p, reps=reps, seed=7).estimate == want

    def test_memory_flat_in_reps(self):
        m1, m2 = scenario_models(1)
        tracemalloc.start()
        try:
            mc_rank_prob(m1, m2, p=1, reps=100_000, seed=9)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 32 * 2**20


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

    @pytest.mark.parametrize("field", ["points", "values", "weights"])
    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_density_refuses_non_finite(self, field, bad):
        arrays = {"points": [0.0, 1.0, 2.0], "values": [0.5, 0.5, 0.0],
                  "weights": [0.5, 1.0, 0.5]}
        arrays[field][-1] = bad
        with pytest.raises(ParameterError, match="density .* must be finite"):
            SupportDensity(**arrays)

    def test_histogram_needs_one_edge_more_than_densities(self):
        with pytest.raises(ParameterError, match="len\\(edges\\)"):
            density_from_histogram([0.0, 1.0, 2.0], [0.5, 0.25, 0.25])
        dens = density_from_histogram([0.0, 1.0, 2.0], [0.5, 0.5])
        assert dens.points.tolist() == [0.5, 1.5] and dens.weights.tolist() == [1.0, 1.0]

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_draws_refused(self, bad):
        with pytest.raises(ParameterError, match="^draws must be finite"):
            density_from_samples(np.r_[bad, np.arange(1.0, 12.0)])

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


def full_range_ncx2_sf(x, df, tau):
    """The Poisson mixture summed from k = 0, as before the sum started
    where the weights stop underflowing to 0.0."""
    lam = tau / 2.0
    ks = np.arange(int(lam + 40.0 * np.sqrt(lam + 1.0) + 60.0) + 1)
    weights = poisson.pmf(ks, lam)
    cutoff = int((np.cumsum(weights) <= 1.0 - 1e-12).sum()) + 1
    return float(np.sum(weights[:cutoff] * chi2.sf(x, df + 2 * ks[:cutoff])))


class TestNoncentralChisq:
    # 5.4e11 is local_tau of deltas (0, 1e6) over a chi2(5) density; each
    # is refused before an array is sized by it
    @pytest.mark.parametrize("tau", [np.inf, np.nan, -1.0, 1.0000001e8, 5.4e11])
    def test_refuses_bad_tau(self, tau):
        with pytest.raises(ParameterError, match="tau must be finite and in"):
            noncentral_chisq_sf(3.0, 1, tau)

    @pytest.mark.parametrize("tau", [3000.0, 3600.0, 2e4, 1e5])
    @pytest.mark.parametrize("x", [3.84, 1500.0, 2e4])
    def test_window_matches_full_range_sum(self, x, tau):
        got = noncentral_chisq_sf(x, 2, tau)
        assert got == pytest.approx(full_range_ncx2_sf(x, 2, tau), rel=1e-14, abs=1e-300)

    def test_clipped_to_probability(self):
        # the summed mixture exceeds 1 by 2.6e-12 here
        assert noncentral_chisq_sf(3.84, 1, 1e7) == 1.0
        assert predicted_power(1e7, 2).predicted_power == 1.0

    def test_central_case_is_chi2_sf_bit_for_bit(self):
        for df in range(1, 8):
            for x in np.linspace(0.0, 30.0, 61):
                assert noncentral_chisq_sf(x, df, 0.0) == chi2.sf(x, df)

    def test_memory_grows_with_sqrt_tau(self):
        # the largest pairwise noncentrality at N = 1e7 is under 3e7; the
        # full-range sum held arrays of 1.5e7 entries (120 MB each), the
        # window about 17 MB in all
        tracemalloc.start()
        try:
            # scipy's Poisson weights carry ~1e-8 relative error at this lam
            assert noncentral_chisq_sf(3.84, 1, 3e7) == pytest.approx(1.0, abs=1e-7)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 64 * 2**20

    @pytest.mark.parametrize("tau", [1e-6, 0.3, 3.5, 40.0, 3e3, 2e5, 5e7])
    def test_poisson_weights_equal_scipy_stats(self, tau):
        # the sum the function makes, with poisson.pmf's own weights
        lam = tau / 2.0
        spread = 40.0 * np.sqrt(lam + 1.0) + 60.0
        ks = np.arange(max(int(lam - spread), 0), int(lam + spread) + 1)
        weights = poisson.pmf(ks, lam)
        cutoff = int((np.cumsum(weights) <= 1.0 - 1e-12).sum()) + 1
        for df, x in ((1, 3.84), (2, tau + 1.0), (5, 0.5)):
            tails = chi2.sf(x, df + 2 * ks[:cutoff])
            want = float(np.clip(np.sum(weights[:cutoff] * tails), 0.0, 1.0))
            assert noncentral_chisq_sf(x, df, tau) == want

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

    @pytest.mark.parametrize("j", [2, 3, 6, 60])
    def test_critical_value_equals_chi2_ppf(self, j):
        for alpha in np.linspace(0.001, 0.999, 37):
            crit = chi2.ppf(1.0 - alpha, j - 1)
            want = noncentral_chisq_sf(crit, j - 1, 2.5)
            assert predicted_power(2.5, j, alpha).predicted_power == want

    def test_round_trip(self):
        probs = symmetric_probs(2, 0.04)
        thetas = [0.5, 0.5]
        target = 0.9
        n_req = required_sample_size(probs, thetas, target)
        at_n = power_from_pairwise(probs, thetas, n_req).predicted_power
        below = power_from_pairwise(probs, thetas, n_req - 1).predicted_power
        assert at_n >= target
        assert below < target

    def test_floor_of_the_search_returned_when_it_reaches_the_target(self):
        # the search starts at N = 4J: certain orderings reach 0.6 there
        probs, thetas = [[0.5, 1.0], [0.0, 0.5]], [0.5, 0.5]
        assert required_sample_size(probs, thetas, 0.6) == 8
        assert power_from_pairwise(probs, thetas, 8).predicted_power >= 0.6

    def test_infeasible_when_null(self):
        with pytest.raises(InfeasibleError):
            required_sample_size(symmetric_probs(2, 0.0), [0.5, 0.5], 0.9)

    def test_bad_target(self):
        with pytest.raises(ParameterError):
            required_sample_size(symmetric_probs(2, 0.1), [0.5, 0.5], 0.04)
