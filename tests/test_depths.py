"""Depth functions: worked examples, invariances, and brute-force oracles."""

import inspect
import itertools
import math
import shutil

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import fkwc.compiled
import fkwc.depths
from fkwc import (
    DataError,
    DepthSpec,
    FunctionalDataset,
    Grid,
    ParameterError,
    ProcessModel,
    TestConfig,
    compute_depth,
    depth_ranks,
    differentiate,
    fkwc_test,
    generate,
    ltr_depth,
    mbd,
    mfhd,
    ranks_with_tiebreak,
    rp_depth,
    spatial_depth,
    steel_mc,
    ksd_depth,
)
from fkwc.depths import (
    DEPTH_KERNELS,
    MEDIAN_HEURISTIC,
    _channels,
    _gaussian_gram,
    _ksd_channel,
    _ksd_sums,
    _pairwise_sq_dists,
    _rp_directions,
    _spatial_channel,
    depth_sort_keys,
)

ALL_KINDS = ("ltr", "rp", "mfhd", "mbd", "spatial", "ksd")


def make_ds(curves, groups=None, grid=None):
    curves = np.atleast_2d(np.asarray(curves, dtype=float))
    grid = grid if grid is not None else Grid(curves.shape[1])
    groups = groups if groups is not None else [1] * curves.shape[0]
    return FunctionalDataset(grid, curves, groups)


def pairwise_loop_reference(a, b, grid) -> np.ndarray:
    """The squared distances of each row of ``a`` to each row of ``b`` the
    way they were first written: a row of ``a`` at a time, its squared
    differences integrated in one gemv."""
    out = np.empty((a.shape[0], b.shape[0]))
    diff = np.empty(b.shape)
    for i in range(a.shape[0]):
        np.subtract(a[i], b, out=diff)
        diff *= diff
        out[i] = grid.integrate(diff)
    return out


def ksd_loop_reference(sample, qs, grid, bandwidth) -> np.ndarray:
    """One ksd channel the way it was first written: a fresh (k, k) matrix
    per query, gathered with ``np.ix_`` from the sample Gram matrix.  The
    kernel must reproduce it bit for bit."""
    n = sample.shape[0]
    d2_ss = pairwise_loop_reference(sample, sample, grid)
    if bandwidth == MEDIAN_HEURISTIC:
        iu = np.triu_indices(n, k=1)
        pair = d2_ss[iu]
        sigma2 = float(np.median(pair)) if pair.size else 1.0
        if sigma2 <= 0.0:
            sigma2 = 1.0
    else:
        sigma2 = float(bandwidth)
    gram_ss = np.exp(-d2_ss / sigma2)
    if qs is sample:  # the sample's own curves: the same matrix, bit for bit
        gram_qs = gram_ss
    else:
        gram_qs = np.exp(-pairwise_loop_reference(qs, sample, grid) / sigma2)
    out = np.empty(qs.shape[0])
    for i in range(qs.shape[0]):
        feat_sq = np.maximum(2.0 - 2.0 * gram_qs[i], 0.0)
        dist = np.sqrt(feat_sq)
        keep = dist > 0.0
        if not keep.any():
            out[i] = 1.0
            continue
        g = gram_qs[i][keep]
        dk = dist[keep]
        inner = (1.0 - g[:, None] - g[None, :] + gram_ss[np.ix_(keep, keep)])
        inner /= dk[:, None] * dk[None, :]
        out[i] = 1.0 - math.sqrt(max(inner.sum(), 0.0)) / n
    return out


def spatial_loop_reference(sample, qs, grid) -> np.ndarray:
    """One spatial channel the way it was first written: per query, the
    differences, their norms and the sum of the unit vectors in NumPy.
    The compiled sums must reproduce it bit for bit."""
    n = sample.shape[0]
    out = np.empty(qs.shape[0])
    for i in range(qs.shape[0]):
        diff = qs[i][None, :] - sample
        norms = np.sqrt(grid.integrate(diff * diff))
        keep = norms > 0.0
        mean_vec = (diff[keep] / norms[keep, None]).sum(axis=0) / n
        out[i] = 1.0 - math.sqrt(max(float(grid.integrate(mean_vec * mean_vec)), 0.0))
    return out


def strict_counts_loop_reference(sample, qs) -> np.ndarray:
    """The (2, q, m) counts of sample values strictly below and strictly
    above each query value, one column at a time: sort, then search."""
    n, m = sample.shape
    out = np.empty((2, qs.shape[0], m))
    for t in range(m):
        col = np.sort(sample[:, t])
        out[0, :, t] = np.searchsorted(col, qs[:, t], side="left")
        out[1, :, t] = n - np.searchsorted(col, qs[:, t], side="right")
    return out


def rp_prime_reference(ds, spec, queries=None) -> np.ndarray:
    """Primed ``rp`` the way it was first written: a bivariate KDE, a
    univariate one in the other coordinate when one has no spread, and 1.0
    when neither has.  The one KDE loop must reproduce it bit for bit."""
    (s0, q0), (s1, q1) = _channels(ds, True, queries)
    w = ds.grid.trapezoid_weights
    dirs = _rp_directions(ds.grid, spec.num_projections, fkwc.depths.derive_rng(spec.rng_seed, 0))
    n = s0.shape[0]
    depth = np.zeros(q0.shape[0])
    rows_equal0 = bool(np.all(s0 == s0[0]))
    rows_equal1 = bool(np.all(s1 == s1[0]))

    def degenerate(rows_equal, z):
        if n < 2 or rows_equal:
            return True
        return np.ptp(z) <= 1e-12 * max(float(np.abs(z).max()), 1e-300)

    def kde_1d(sample, queries, bandwidth):
        d = (queries[:, None] - sample[None, :]) / bandwidth
        return np.exp(-0.5 * d * d).mean(axis=1) / (bandwidth * math.sqrt(2.0 * math.pi))

    for k in range(spec.num_projections):
        u = dirs[k] * w
        zs0, zq0 = s0 @ u, q0 @ u
        zs1, zq1 = s1 @ u, q1 @ u
        deg0 = degenerate(rows_equal0, zs0)
        deg1 = degenerate(rows_equal1, zs1)
        if deg0 and deg1:
            depth += 1.0
            continue
        if deg0 or deg1:
            zs, zq = (zs1, zq1) if deg0 else (zs0, zq0)
            h = zs.std(ddof=1) * n ** (-1.0 / 5.0)
            depth += kde_1d(zs, zq, h)
            continue
        sd0 = zs0.std(ddof=1)
        sd1 = zs1.std(ddof=1)
        h0 = sd0 * n ** (-1.0 / 6.0)
        h1 = sd1 * n ** (-1.0 / 6.0)
        d0 = (zq0[:, None] - zs0[None, :]) / h0
        d1 = (zq1[:, None] - zs1[None, :]) / h1
        depth += np.exp(-0.5 * (d0 * d0 + d1 * d1)).mean(axis=1) / (
            2.0 * math.pi * h0 * h1
        )
    return depth / spec.num_projections


class TestDepthKernels:
    def test_each_kind_is_a_public_kernel(self):
        for kind, fn in DEPTH_KERNELS.items():
            assert getattr(fkwc, fn.__name__, None) is fn, kind
            assert list(inspect.signature(fn).parameters) == ["ds", "spec", "queries"], kind


class TestDepthSpec:
    def test_bad_kind(self):
        with pytest.raises(ParameterError):
            DepthSpec(kind="banana")

    def test_bad_weights(self):
        with pytest.raises(ParameterError):
            DepthSpec(channel_weights=(0.7, 0.7))

    def test_bad_bandwidth(self):
        with pytest.raises(ParameterError):
            DepthSpec(kernel_bandwidth=-1.0)

    def test_band_order_minimum(self):
        with pytest.raises(ParameterError):
            DepthSpec(band_order=1)


class TestLtrDepth:
    def test_single_observation_depth_one(self, grid21):
        ds = make_ds(np.sin(2 * np.pi * grid21.points), grid=grid21)
        assert ltr_depth(ds).values[0] == pytest.approx(1.0, abs=1e-14)

    def test_two_point_symmetric_sample_at_zero(self, grid21):
        f = 1.5 * np.cos(2 * np.pi * grid21.points)
        ds = make_ds(np.vstack([f, -f]), grid=grid21)
        norm_f = np.sqrt((f * f) @ grid21.trapezoid_weights)
        got = ltr_depth(ds, queries=np.zeros((1, grid21.m))).values[0]
        assert got == pytest.approx(1.0 / (1.0 + norm_f), abs=1e-12)

    def test_scaling_sample_decreases_depth_preserves_order(self, grid21):
        rng = np.random.default_rng(11)
        base = rng.normal(size=(8, grid21.m))
        curves = np.vstack([base, -base])  # exactly centered
        ds = make_ds(curves, grid=grid21)
        d1 = ltr_depth(ds).values
        d2 = ltr_depth(make_ds(3.0 * curves, grid=grid21)).values
        assert np.all(d2 <= d1 + 1e-15)
        np.testing.assert_array_equal(np.argsort(d1), np.argsort(d2))

    def test_rank_scores_match_depth_order_on_centered_sample(self, grid21):
        rng = np.random.default_rng(12)
        base = rng.normal(size=(7, grid21.m))
        ds = make_ds(np.vstack([base, -base]), grid=grid21)
        scores = -depth_sort_keys(ds, DepthSpec(kind="ltr"))
        depths = ltr_depth(ds).values
        np.testing.assert_array_equal(np.argsort(-scores), np.argsort(depths))

    def test_rank_score_examples(self, grid21):
        ds = make_ds(np.vstack([np.zeros(grid21.m), np.full(grid21.m, 2.5)]), grid=grid21)
        scores = -depth_sort_keys(ds, DepthSpec(kind="ltr"))
        assert scores[0] == pytest.approx(0.0, abs=1e-15)
        assert scores[1] == pytest.approx(6.25, abs=1e-12)


class TestLtrTheoremProperties:
    """The four sample properties of the L2-root depth."""

    def _sign_symmetric(self, grid, n=9, seed=21):
        rng = np.random.default_rng(seed)
        base = rng.normal(size=(n, grid.m)) + np.sin(
            2 * np.pi * np.arange(1, n + 1)[:, None] * grid.points
        )
        return np.vstack([base, -base])

    def test_rank_invariance_under_linear_map(self, grid21):
        # generic sample: sign-symmetric ones put +/- pairs in exact depth
        # ties, whose order is arbitrary
        rng = np.random.default_rng(22)
        curves = rng.normal(size=(18, grid21.m))
        ds = make_ds(curves, grid=grid21)
        a = 2.0  # constant curve a(t) = 2, non-vanishing
        b = 3.0 * np.cos(2 * np.pi * grid21.points) - 1.0
        transformed = make_ds(a * curves + b, grid=grid21)
        r1 = ranks_with_tiebreak(-ltr_depth(ds).values, 5)
        r2 = ranks_with_tiebreak(-ltr_depth(transformed).values, 5)
        np.testing.assert_array_equal(r1.ranks, r2.ranks)

    def test_zero_curve_attains_max_under_sign_symmetry(self, grid21):
        curves = self._sign_symmetric(grid21)
        ds = make_ds(curves, grid=grid21)
        queries = np.vstack([np.zeros(grid21.m), curves])
        depths = ltr_depth(ds, queries=queries).values
        assert np.all(depths[0] >= depths[1:])

    def test_monotone_decay_in_scale(self, grid21):
        curves = self._sign_symmetric(grid21)
        ds = make_ds(curves, grid=grid21)
        x = curves[0]
        cs = np.array([0.5, 1.0, 2.0, 5.0, 20.0, 100.0])
        depths = ltr_depth(ds, queries=cs[:, None] * x[None, :]).values
        assert np.all(np.diff(depths) < 0)

    def test_vanishing_at_infinity(self, grid21):
        curves = self._sign_symmetric(grid21)
        ds = make_ds(curves, grid=grid21)
        far = ltr_depth(ds, queries=(1e6 * curves[0])[None, :]).values[0]
        assert far < 1e-4


class TestRpDepth:
    def test_median_of_odd_constant_sample(self, grid21):
        curves = np.vstack([np.full(grid21.m, v) for v in (-2.0, -1.0, 0.0, 1.0, 2.0)])
        ds = make_ds(curves, grid=grid21)
        vals = rp_depth(ds, DepthSpec(kind="rp", num_projections=1, rng_seed=4)).values
        assert vals[2] == pytest.approx(0.25, abs=1e-12)
        assert np.all(vals[2] >= vals)

    def test_identical_curves_equal_depth(self, grid21):
        ds = make_ds(np.tile(np.sin(2 * np.pi * grid21.points), (6, 1)), grid=grid21)
        vals = rp_depth(ds, DepthSpec(kind="rp", rng_seed=1)).values
        assert np.allclose(vals, vals[0])

    def test_more_projections_reduce_variance_across_seeds(self, grid21):
        rng = np.random.default_rng(77)
        ds = make_ds(rng.normal(size=(12, grid21.m)), grid=grid21)
        def depths_for(m_proj, seed):
            return rp_depth(ds, DepthSpec(kind="rp", num_projections=m_proj, rng_seed=seed)).values
        small = np.array([depths_for(2, s) for s in range(50)])
        large = np.array([depths_for(40, s) for s in range(50)])
        assert large.var(axis=0).mean() < small.var(axis=0).mean()


class TestRpShortGrids:
    @pytest.mark.parametrize("m", [3, 4])
    @pytest.mark.parametrize("primed", [False, True])
    def test_three_and_four_point_grids(self, m, primed):
        curves = np.random.default_rng(m).normal(size=(12, m))
        ds = make_ds(curves, grid=Grid(m))
        vals = rp_depth(ds, DepthSpec(kind="rp", use_derivatives=primed, rng_seed=4)).values
        assert vals.shape == (12,)
        assert np.all(np.isfinite(vals) & (vals >= 0.0))

    @pytest.mark.parametrize("m", [5, 6, 21, 101])
    def test_directions_smooth_as_same_mode_convolution(self, m):
        w = Grid(m).trapezoid_weights
        dirs = _rp_directions(Grid(m), 20, fkwc.depths.derive_rng(9, 0))
        raw = fkwc.depths.derive_rng(9, 0).standard_normal((20, m))
        smooth = np.array([np.convolve(r, np.full(5, 0.2), mode="same") for r in raw])
        norms = np.sqrt((smooth * smooth) @ w)
        assert np.array_equal(dirs, smooth / norms[:, None])


class TestRpDerivDepth:
    def test_identical_curves_equal_depth(self, grid21):
        ds = make_ds(np.tile(np.sin(2 * np.pi * grid21.points), (6, 1)), grid=grid21)
        vals = rp_depth(ds, DepthSpec(kind="rp", use_derivatives=True, rng_seed=2)).values
        assert np.allclose(vals, vals[0])

    def test_scaled_group_is_less_deep(self, grid101):
        rng = np.random.default_rng(9)
        base = rng.normal(size=(40, grid101.m))
        base = np.cumsum(base, axis=1) * 0.2  # smooth-ish paths
        curves = np.vstack([base, 10.0 * base])
        ds = make_ds(curves, groups=[1] * 40 + [2] * 40, grid=grid101)
        vals = rp_depth(ds, DepthSpec(kind="rp", use_derivatives=True, rng_seed=3)).values
        assert vals[40:].mean() < vals[:40].mean()

    def test_permutation_equivariance_with_fixed_directions(self, grid21):
        rng = np.random.default_rng(31)
        ds = make_ds(rng.normal(size=(10, grid21.m)), grid=grid21)
        spec = DepthSpec(kind="rp", use_derivatives=True, rng_seed=6)
        vals = rp_depth(ds, spec).values
        perm = rng.permutation(10)
        ds_p = FunctionalDataset(grid21, ds.curves[perm], [1] * 10, ds.derivatives[perm])
        vals_p = rp_depth(ds_p, spec).values
        np.testing.assert_allclose(vals_p, vals[perm], rtol=1e-12, atol=1e-15)

    def test_degenerate_derivative_channel_falls_back(self, grid21):
        # constant offsets: derivatives identical for all curves
        curves = np.arange(5.0)[:, None] + np.zeros((5, grid21.m))
        ds = make_ds(curves, grid=grid21)
        vals = rp_depth(ds, DepthSpec(kind="rp", use_derivatives=True, rng_seed=8)).values
        assert np.all(np.isfinite(vals))
        assert vals[2] == vals.max()  # middle offset is modal


class TestMfhd:
    def test_three_ordered_constants(self, grid21):
        curves = np.vstack([np.full(grid21.m, v) for v in (0.0, 1.0, 2.0)])
        ds = make_ds(curves, grid=grid21)
        vals = mfhd(ds, DepthSpec(kind="mfhd")).values
        np.testing.assert_allclose(vals, [1 / 3, 2 / 3, 1 / 3], atol=1e-12)

    def test_single_curve_depth_one(self, grid21):
        ds = make_ds(np.sin(2 * np.pi * grid21.points), grid=grid21)
        assert mfhd(ds, DepthSpec(kind="mfhd")).values[0] == pytest.approx(1.0)

    def test_primed_matches_unprimed_on_zero_derivative(self, grid21):
        # constant curves have zero derivatives: bivariate reduces to univariate
        curves = np.vstack([np.full(grid21.m, v) for v in (0.0, 1.0, 2.0, 3.0)])
        ds = make_ds(curves, grid=grid21)
        v0 = mfhd(ds, DepthSpec(kind="mfhd")).values
        v1 = mfhd(ds, DepthSpec(kind="mfhd", use_derivatives=True)).values
        np.testing.assert_allclose(v0, v1, atol=1e-12)


class TestMbd:
    def brute_force_mbd(self, curves, w, order=2):
        n = curves.shape[0]
        out = np.zeros(n)
        for i in range(n):
            total = 0.0
            for k in range(2, order + 1):
                for subset in itertools.combinations(range(n), k):
                    lo = curves[list(subset)].min(axis=0)
                    hi = curves[list(subset)].max(axis=0)
                    inside = (lo <= curves[i]) & (curves[i] <= hi)
                    total += (inside @ w) / len(list(itertools.combinations(range(n), k)))
            out[i] = total
        return out

    def test_ordered_family_closed_form(self, grid21):
        curves = np.vstack([np.full(grid21.m, v) for v in (0.0, 1.0, 2.0)])
        ds = make_ds(curves, grid=grid21)
        vals = mbd(ds, DepthSpec(kind="mbd")).values
        np.testing.assert_allclose(vals, [2 / 3, 1.0, 2 / 3], atol=1e-12)

    def test_identical_curves_all_one(self, grid21):
        ds = make_ds(np.tile(np.cos(2 * np.pi * grid21.points), (5, 1)), grid=grid21)
        vals = mbd(ds, DepthSpec(kind="mbd")).values
        np.testing.assert_allclose(vals, 1.0, atol=1e-12)

    @pytest.mark.parametrize("n,m,order", [(4, 3, 2), (6, 5, 2), (5, 4, 3), (6, 3, 4)])
    def test_matches_brute_force(self, n, m, order):
        rng = np.random.default_rng(n * 100 + m + order)
        grid = Grid(m)
        curves = rng.integers(-3, 4, size=(n, m)).astype(float)  # ties on purpose
        ds = make_ds(curves, grid=grid)
        got = mbd(ds, DepthSpec(kind="mbd", band_order=order)).values
        want = self.brute_force_mbd(curves, grid.trapezoid_weights, order)
        np.testing.assert_allclose(got, want, atol=1e-12)

    @pytest.mark.parametrize("primed", [False, True])
    def test_order_above_sample_size_is_order_n(self, primed, grid21):
        # every k > N adds nothing, so the sum stops at N instead of
        # counting to the order
        curves = np.random.default_rng(31).normal(size=(9, grid21.m)).cumsum(axis=1)
        queries = curves[:3] + 0.5
        ds = make_ds(curves, grid=grid21)
        for q in (None, queries):
            at_n = mbd(ds, DepthSpec(kind="mbd", use_derivatives=primed, band_order=9), q)
            huge = mbd(ds, DepthSpec(kind="mbd", use_derivatives=primed, band_order=10**12), q)
            assert huge.values.tobytes() == at_n.values.tobytes()


class TestSpatialAndKsd:
    def test_two_curve_sample_depth_half(self, grid21):
        ds = make_ds(np.vstack([np.ones(grid21.m), -np.ones(grid21.m)]), grid=grid21)
        np.testing.assert_allclose(spatial_depth(ds, DepthSpec(kind="spatial")).values, 0.5)
        np.testing.assert_allclose(ksd_depth(ds, DepthSpec(kind="ksd")).values, 0.5, atol=1e-12)

    def test_far_query_depth_vanishes(self, grid21):
        rng = np.random.default_rng(15)
        ds = make_ds(rng.normal(size=(10, grid21.m)), grid=grid21)
        far = 1e9 * np.ones((1, grid21.m))
        assert _spatial_channel(ds.curves, far, grid21)[0] == pytest.approx(0.0, abs=1e-6)

    def test_spherically_symmetric_center_depth_one(self, grid21):
        t = grid21.points
        f = np.sin(2 * np.pi * t)
        h = np.cos(4 * np.pi * t)
        ds = make_ds(np.vstack([f, -f, h, -h]), grid=grid21)
        got = _spatial_channel(ds.curves, np.zeros((1, grid21.m)), grid21)
        assert got[0] == pytest.approx(1.0, abs=1e-14)

    def test_ksd_bandwidth_must_be_positive(self):
        with pytest.raises(ParameterError):
            DepthSpec(kind="ksd", kernel_bandwidth=0.0)

    def test_ksd_fixed_bandwidth_runs(self, two_group_dataset):
        vals = ksd_depth(two_group_dataset, DepthSpec(kind="ksd", kernel_bandwidth=2.0)).values
        assert np.all((0.0 <= vals) & (vals <= 1.0))

    @pytest.mark.parametrize("primed", [False, True])
    def test_ksd_sample_distances_once_per_channel(self, primed, grid21, monkeypatch):
        # one N x N sample matrix per channel serves spatial and ksd, plain
        # and primed, in-sample and against outside queries; those add only
        # their own q x N distances
        calls = []
        original = fkwc.depths._pairwise_sq_dists

        def counting(a, b, grid):
            calls.append((a.shape[0], a is b))
            return original(a, b, grid)

        monkeypatch.setattr(fkwc.depths, "_pairwise_sq_dists", counting)
        ds = make_ds(np.random.default_rng(12).normal(size=(9, grid21.m)), grid=grid21)
        copy = FunctionalDataset(grid21, ds.curves[:5].copy(), ds.groups[:5],
                                 ds.derivatives[:5].copy())
        channels = 2 if primed else 1
        primes = (False, True) if primed else (False,)
        spatial = [spatial_depth(ds, DepthSpec(kind="spatial", use_derivatives=p)).values
                   for p in primes]
        assert calls == [(9, True)] * channels
        spec = DepthSpec(kind="ksd", use_derivatives=primed)
        outside = ksd_depth(ds, spec, queries=copy).values
        assert calls[channels:] == [(5, False)] * channels
        own = [ksd_depth(ds, DepthSpec(kind="ksd", use_derivatives=p)).values for p in primes]
        assert len(calls) == 2 * channels
        # the shared matrix gives the bits of the outside queries' own
        # distances and of a dataset that shares nothing
        assert own[-1][:5].tobytes() == outside.tobytes()
        monkeypatch.setattr(fkwc.depths, "_pairwise_sq_dists", original)
        fresh = make_ds(ds.curves, grid=grid21)
        for p, got in zip(primes, spatial):
            want = spatial_depth(fresh, DepthSpec(kind="spatial", use_derivatives=p)).values
            assert got.tobytes() == want.tobytes()
        for p, got in zip(primes, own):
            want = ksd_depth(fresh, DepthSpec(kind="ksd", use_derivatives=p)).values
            assert got.tobytes() == want.tobytes()


    def test_strict_counts_once_per_channel(self, grid21, monkeypatch):
        # mfhd, mbd and mbd' read one table of the sample's strict counts
        # per channel; outside queries add only their own q x m counts
        calls = []
        original = fkwc.depths._strict_counts

        def counting(sample, qs):
            calls.append((sample.shape[0], qs.shape[0], qs is sample))
            return original(sample, qs)

        monkeypatch.setattr(fkwc.depths, "_strict_counts", counting)
        ds = make_ds(np.random.default_rng(14).normal(size=(9, grid21.m)), grid=grid21)
        specs = [DepthSpec(kind="mfhd"), DepthSpec(kind="mbd"),
                 DepthSpec(kind="mbd", use_derivatives=True)]
        got = [compute_depth(ds, spec).values for spec in specs]
        assert calls == [(9, 9, True), (9, 9, True)]
        outside = mfhd(ds, specs[0], queries=ds.curves[:5].copy()).values
        assert calls[2:] == [(9, 5, False)]
        assert outside.tobytes() == got[0][:5].tobytes()
        monkeypatch.setattr(fkwc.depths, "_strict_counts", original)
        for spec, vals in zip(specs, got):
            fresh = make_ds(ds.curves, grid=grid21)
            assert vals.tobytes() == compute_depth(fresh, spec).values.tobytes()


def _t1_dataset(n):
    curves = generate(ProcessModel(family="t1"), n, seed=(n, 2021))
    return make_ds(curves, grid=Grid(101))


@st.composite
def strict_counts_cases(draw):
    """Columns of heavy-tailed, Gaussian, one-decimal-rounded or integer
    values (zeros negated at random among the last two), or all equal,
    n = 1 among them; the queries mix sample values and new ones, none
    too."""
    n = draw(st.integers(1, 40))
    m = draw(st.integers(1, 7))
    shape = draw(st.sampled_from(["t1", "gaussian", "one-decimal", "integers", "equal"]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))

    def values(rows):
        if shape == "t1":
            return rng.standard_t(1, size=(rows, m))
        if shape == "equal":
            return np.full((rows, m), 0.5)
        vals = rng.normal(size=(rows, m))
        vals = np.round(vals, 1) if shape == "one-decimal" else np.round(2.0 * vals)
        vals[(vals == 0.0) & (rng.random(size=vals.shape) < 0.5)] = -0.0
        return vals

    sample = values(n)
    picks = rng.integers(0, n, size=draw(st.integers(0, 5)))
    queries = np.vstack([sample[picks], values(draw(st.integers(0, 5)))])
    rng.shuffle(queries)
    return sample, queries


class TestStrictCountsTable:
    """``_strict_counts``, one sorted table per channel, equals the
    column-by-column sort and search, array for array, for the sample's own
    values and for outside queries."""

    @staticmethod
    def assert_equal(sample, queries):
        for qs in (sample, queries):
            got = fkwc.depths._strict_counts(sample, qs)
            want = strict_counts_loop_reference(sample, qs)
            assert got.shape == want.shape and got.dtype == want.dtype
            assert got.tobytes() == want.tobytes()

    @given(strict_counts_cases())
    @settings(max_examples=300)
    @example((np.zeros((1, 1)), np.zeros((0, 1))))
    @example((np.array([[0.0], [-0.0], [1.0]]), np.array([[-0.0], [0.0], [0.5]])))
    def test_random_cases(self, case):
        self.assert_equal(*case)

    @pytest.mark.parametrize("n", [100, 300, 1000])
    def test_t1_channels(self, n):
        ds = _t1_dataset(n)
        queries = np.vstack([ds.curves[:20], np.round(_t1_dataset(21).curves, 1)])
        for sample in (ds.curves, ds.derivatives, np.round(ds.curves, 1)):
            self.assert_equal(sample, queries)


@st.composite
def lattice_ksd_cases(draw):
    """Small integer-valued samples, where equal curves and tied distances
    are common, with queries that mix sample curves and new ones."""
    m = draw(st.integers(3, 6))
    value_rows = st.lists(st.integers(-2, 2), min_size=m, max_size=m)
    rows = draw(st.lists(value_rows, min_size=1, max_size=8))
    repeats = draw(st.lists(st.integers(0, len(rows) - 1), max_size=4))
    sample = np.array(rows + [rows[r] for r in repeats], dtype=float)
    picks = draw(st.lists(st.integers(0, sample.shape[0] - 1), max_size=3))
    fresh = draw(st.lists(value_rows, max_size=3))
    queries = np.vstack([sample[picks], np.array(fresh, dtype=float).reshape(-1, m)])
    bandwidth = draw(st.sampled_from([MEDIAN_HEURISTIC, 0.5, 3.0]))
    return sample, queries, bandwidth


class TestKsdLoopReference:
    """``ksd``/``ksd'`` equal the loop form byte for byte: each (k, k)
    matrix drops none (outside queries), one (a sample curve) or several
    (duplicated curves) sample curves, or all of them (depth 1)."""

    @staticmethod
    def reference(ds, spec, queries=None):
        def channel(sample, qs, grid, bandwidth, sample_d2):  # computes its own distances
            return ksd_loop_reference(sample, qs, grid, bandwidth)

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(fkwc.depths, "_ksd_channel", channel)
            return ksd_depth(ds, spec, queries).values

    def assert_same_bits(self, ds, spec, queries=None):
        got = ksd_depth(ds, spec, queries).values
        assert got.tobytes() == self.reference(ds, spec, queries).tobytes()

    @pytest.mark.parametrize("n", [100, 300])
    @pytest.mark.parametrize("primed", [False, True])
    def test_in_sample_t1(self, n, primed):
        self.assert_same_bits(_t1_dataset(n), DepthSpec(kind="ksd", use_derivatives=primed))

    @pytest.mark.parametrize("primed", [False, True])
    def test_outside_queries_one_equal_to_a_sample_curve(self, primed):
        ds = _t1_dataset(60)
        queries = np.vstack([ds.curves[7], _t1_dataset(61).curves[:5]])
        self.assert_same_bits(ds, DepthSpec(kind="ksd", use_derivatives=primed), queries)

    def test_outside_queries_over_several_distance_blocks(self):
        # 70 queries: two full blocks of 32 and a short one, sample curves
        # among them
        ds = _t1_dataset(60)
        queries = np.vstack([_t1_dataset(61).curves[:40], ds.curves[:30]])
        self.assert_same_bits(ds, DepthSpec(kind="ksd"), queries)

    @pytest.mark.parametrize("primed", [False, True])
    def test_duplicated_curves(self, primed):
        base = _t1_dataset(40).curves
        # curve 0 three times and curve 1 twice: their queries drop 3 and 2
        ds = make_ds(np.vstack([base, base[0], base[0], base[1]]), grid=Grid(101))
        self.assert_same_bits(ds, DepthSpec(kind="ksd", use_derivatives=primed))

    def test_identical_curves_depth_one(self, grid21):
        ds = make_ds(np.tile(np.sin(2 * np.pi * grid21.points), (5, 1)), grid=grid21)
        spec = DepthSpec(kind="ksd", use_derivatives=True)
        self.assert_same_bits(ds, spec)
        assert np.array_equal(ksd_depth(ds, spec).values, np.ones(5))

    @pytest.mark.parametrize("primed", [False, True])
    def test_fixed_bandwidth(self, primed):
        spec = DepthSpec(kind="ksd", use_derivatives=primed, kernel_bandwidth=2.0)
        self.assert_same_bits(_t1_dataset(80), spec)

    @given(lattice_ksd_cases())
    @settings(max_examples=200)
    @example((np.zeros((3, 3)), np.zeros((1, 3)), MEDIAN_HEURISTIC))
    def test_lattice_channels(self, case):
        sample, queries, bandwidth = case
        grid = Grid(sample.shape[1])
        for qs in (sample, queries):
            got = _ksd_channel(sample, qs, grid, bandwidth)
            assert got.tobytes() == ksd_loop_reference(sample, qs, grid, bandwidth).tobytes()


@st.composite
def channel_cases(draw):
    """Samples for the ksd and spatial channels: heavy-tailed or smooth
    curves, as drawn, rounded to integers with some zeros negated, with
    duplicated rows (ksd's gather) or all identical (no curve kept), n = 1
    among them, at scales 1 and 1e+-100; the queries mix sample curves and
    new ones."""
    n = draw(st.integers(1, 30))
    m = draw(st.sampled_from([3, 4, 7, 21, 101]))
    shape = draw(st.sampled_from(["generic", "integers", "duplicates", "identical"]))
    scale = draw(st.sampled_from([1.0, 1e-100, 1e100]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if draw(st.booleans()):
        curves = rng.standard_t(1, size=(n, m))
    else:
        curves = rng.normal(size=(n, m)).cumsum(axis=1)
    if shape == "integers":
        curves = np.round(curves)
        curves[(curves == 0.0) & (rng.random(size=curves.shape) < 0.5)] = -0.0
    elif shape == "duplicates":
        repeats = rng.integers(0, n, size=draw(st.integers(1, 4)))
        curves = np.vstack([curves, curves[repeats], curves[repeats[:1]]])
    elif shape == "identical":
        curves = np.tile(curves[0], (n, 1))
    sample = scale * curves
    picks = rng.integers(0, sample.shape[0], size=draw(st.integers(0, 3)))
    fresh = scale * np.round(rng.standard_t(1, size=(draw(st.integers(0, 3)), m)))
    queries = np.vstack([sample[picks], fresh])
    bandwidth = draw(st.sampled_from([MEDIAN_HEURISTIC, 0.5, 3.0]))
    return sample, queries, Grid(m), bandwidth


class TestCompiledChannels:
    """The ksd and spatial channels equal their loop forms byte for byte,
    with the compiled loops of ``fkwc.compiled`` and with the NumPy ones
    that run when it is not loaded."""

    @staticmethod
    def assert_same_bits(sample, queries, grid, bandwidth):
        for qs in (sample, queries):
            got = _ksd_channel(sample, qs, grid, bandwidth)
            assert got.tobytes() == ksd_loop_reference(sample, qs, grid, bandwidth).tobytes()
            got = _spatial_channel(sample, qs, grid)
            assert got.tobytes() == spatial_loop_reference(sample, qs, grid).tobytes()

    def test_compiled_loops_load(self):
        if shutil.which("cc") is None:
            pytest.skip("no C compiler (cc) on PATH")
        assert fkwc.compiled.load() is not None

    @given(channel_cases())
    @settings(max_examples=300)
    @example((np.zeros((1, 3)), np.zeros((1, 3)), Grid(3), MEDIAN_HEURISTIC))
    @example((np.full((2, 3), -0.0), np.zeros((1, 3)), Grid(3), 0.5))
    def test_compiled(self, case):
        self.assert_same_bits(*case)

    @given(channel_cases())
    @settings(max_examples=100)
    def test_numpy_fallback(self, case):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(fkwc.compiled, "load", lambda: None)
            self.assert_same_bits(*case)

    @pytest.mark.parametrize("n", [3, 6, 35, 101])
    def test_spatial_own_sums_where_distances_differ(self, n):
        # where sqrt(d2[i, j]) and sqrt(d2[j, i]) differ (the gemv's tail
        # rows can make them so), the compiled in-sample sums must form each
        # of the two terms from its own distance; the asymmetry is made here,
        # by stepping d2[j, i] up until its square root moves, so that the
        # branch runs whatever the BLAS rounds alike
        kernels = fkwc.compiled.load()
        if kernels is None:
            pytest.skip("the compiled library is not available")
        sample = _t1_dataset(n).curves.copy()
        sample[-1] = sample[0]  # a coincident pair: d2 = 0 one way, > 0 the other
        d2 = _pairwise_sq_dists(sample, sample, Grid(101))
        rng = np.random.default_rng(n)
        upper = np.transpose(np.triu_indices(n, 1))
        for i, j in [(0, 1), (0, n - 1), *upper[rng.random(len(upper)) < 0.3]]:
            while np.sqrt(d2[j, i]) == np.sqrt(d2[i, j]):
                d2[j, i] = np.nextafter(d2[j, i], np.inf)
        want = np.empty(sample.shape)
        for i in range(n):
            diff = sample[i][None, :] - sample
            norms = np.sqrt(d2[i])
            keep = norms > 0.0
            want[i] = (diff[keep] / norms[keep, None]).sum(axis=0)
        assert kernels.spatial_sums(sample, sample, d2).tobytes() == want.tobytes()
        # the same queries in another array take the one-sided path
        assert kernels.spatial_sums(sample, sample.copy(), d2).tobytes() == want.tobytes()

    @pytest.mark.parametrize("load", ["compiled", "fallback"])
    def test_t1_channels_at_n_200(self, load):
        ds = _t1_dataset(200)
        queries = np.vstack([ds.curves[:20], _t1_dataset(21).curves])
        with pytest.MonkeyPatch.context() as mp:
            if load == "fallback":
                mp.setattr(fkwc.compiled, "load", lambda: None)
            for sample in (ds.curves, ds.derivatives):
                self.assert_same_bits(sample, queries, ds.grid, MEDIAN_HEURISTIC)


@st.composite
def sq_dists_cases(draw):
    """Sample and query curves for the distances: heavy-tailed or smooth,
    as drawn or rounded to integers with some zeros negated, some rows
    duplicated; n from 1 to 30 and q != n queries that mix sample rows and
    new ones; and a block bound that holds one row, a few, or the default."""
    n = draw(st.integers(1, 30))
    q = draw(st.integers(0, 30).filter(lambda q: q != n))
    m = draw(st.sampled_from([3, 4, 7, 21, 101]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if draw(st.booleans()):
        curves = rng.standard_t(1, size=(n + q, m))
    else:
        curves = rng.normal(size=(n + q, m)).cumsum(axis=1)
    if draw(st.booleans()):
        curves = np.round(curves)
        curves[(curves == 0.0) & (rng.random(size=curves.shape) < 0.5)] = -0.0
    sample, queries = curves[:n], curves[n:]
    if draw(st.booleans()):
        sample[rng.integers(0, n, size=n // 2)] = sample[0]
        queries[:q // 2] = sample[rng.integers(0, n, size=q // 2)]
    block = draw(st.sampled_from([1, 2 * n * m + 1, 5 * max(n, q) * m, fkwc.depths._DIFF_BLOCK]))
    return sample, queries, Grid(m), block


class TestPairwiseSqDists:
    """``_pairwise_sq_dists`` equals its row loop byte for byte, in blocks
    of any size, with the compiled differences and with NumPy's."""

    @staticmethod
    def assert_same_bits(sample, queries, grid, block):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(fkwc.depths, "_DIFF_BLOCK", block)
            for a, b in ((sample, sample), (queries, sample), (sample, queries)):
                got = _pairwise_sq_dists(a, b, grid)
                assert got.tobytes() == pairwise_loop_reference(a, b, grid).tobytes()

    @given(sq_dists_cases())
    @settings(max_examples=200)
    @example((np.full((2, 3), -0.0), np.zeros((1, 3)), Grid(3), 1))
    def test_compiled(self, case):
        self.assert_same_bits(*case)

    @given(sq_dists_cases())
    @settings(max_examples=100)
    def test_numpy_fallback(self, case):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(fkwc.compiled, "load", lambda: None)
            self.assert_same_bits(*case)

    @pytest.mark.parametrize("load", ["compiled", "fallback"])
    def test_t1_at_n_300_in_single_rows(self, load):
        ds = _t1_dataset(300)
        with pytest.MonkeyPatch.context() as mp:
            if load == "fallback":
                mp.setattr(fkwc.compiled, "load", lambda: None)
            # the default bound holds one 300 x 101 row, as the row loop did
            assert fkwc.depths._DIFF_BLOCK // (300 * 101) == 1
            got = _pairwise_sq_dists(ds.curves, ds.curves, ds.grid)
        assert got.tobytes() == pairwise_loop_reference(ds.curves, ds.curves, ds.grid).tobytes()


@st.composite
def ksd_sums_cases(draw):
    """Sample curves, heavy-tailed at scales 1 and 1e+-100, some of them
    duplicated or all identical, with queries that are the sample's own
    curves (each keeps n - 1 or fewer) or new ones mixed with sample curves
    (n or n - 1), and a squared bandwidth."""
    n = draw(st.integers(1, 40))
    m = draw(st.sampled_from([3, 21]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    sample = draw(st.sampled_from([1.0, 1e-100, 1e100])) * rng.standard_t(1, size=(n, m))
    shape = draw(st.sampled_from(["generic", "duplicates", "identical"]))
    if shape == "duplicates":
        sample[rng.integers(0, n, size=n // 2)] = sample[0]
    elif shape == "identical":
        sample[:] = sample[0]
    if draw(st.booleans()):
        qs = sample
    else:
        qs = np.vstack([sample[:draw(st.integers(0, 2))], rng.standard_t(1, size=(3, m))])
    return sample, qs, draw(st.sampled_from([0.5, 3.0, 1e100]))


class TestKsdSums:
    """The compiled ``ksd`` sums equal the NumPy form, each query's (k, k)
    terms gathered by ``np.ix_`` into a fresh matrix and summed by
    ``inner.sum()``, byte for byte: the C adds in NumPy's pairwise order,
    so these tests guard against a NumPy that sums otherwise."""

    @staticmethod
    def assert_same_bits(sample, qs, sigma2):
        kernels = fkwc.compiled.load()
        if kernels is None:
            pytest.skip("the compiled library is not available")
        grid = Grid(sample.shape[1])
        gram = _gaussian_gram(_pairwise_sq_dists(sample, sample, grid), sigma2)
        gq = gram if qs is sample else _gaussian_gram(_pairwise_sq_dists(qs, sample, grid), sigma2)
        assert kernels.ksd_sums(gram, gq).tobytes() == _ksd_sums(gram, gq).tobytes()
        return np.count_nonzero(np.sqrt(np.maximum(2.0 - 2.0 * gq, 0.0)) > 0.0, axis=1)

    # k = 0, k^2 < 8 (one short leaf), 121 and 144 terms (one leaf of 128 at
    # most, then a split), several levels of splits; k = n - 1 for the
    # sample's own curves, n for new ones, fewer for duplicated curves
    @pytest.mark.parametrize("n, shape, kept", [
        (3, "identical", {0}), (2, "own", {1}), (2, "outside", {2}), (3, "own", {2}),
        (12, "own", {11}), (12, "outside", {12}), (13, "own", {12}), (40, "outside", {40}),
        (14, "duplicates", {11, 13}),
    ])
    def test_kept_counts(self, n, shape, kept):
        rng = np.random.default_rng(n)
        sample = rng.normal(size=(n, 7)).cumsum(axis=1)
        if shape == "identical":
            sample[:] = sample[0]
        elif shape == "duplicates":
            sample[1:3] = sample[0]  # curves 0, 1 and 2 each drop all three
        qs = rng.normal(size=(5, 7)) if shape == "outside" else sample
        assert set(self.assert_same_bits(sample, qs, 3.0)) == kept

    @given(ksd_sums_cases())
    @settings(max_examples=200)
    def test_random_cases(self, case):
        self.assert_same_bits(*case)


class TestKsdMemory:
    """``ksd``'s peak memory on one channel of 300 t1 curves.  A channel with
    no shared sample distances writes its Gram matrix over its own; while
    ``_pairwise_sq_dists`` forms them it holds one N x m buffer of
    differences, and the median heuristic selects in place in a copy of the
    N(N - 1)/2 pairs, the larger of the two at N = 300 and m = 101.  The
    compiled sums then need O(N) more and no (k, k) matrix of terms; the
    NumPy sums hold each query's gathered (k, k) matrix and one temporary
    of its size, three N x N arrays in all."""

    @staticmethod
    def peak(traced_peak, bandwidth, q):
        sample = _t1_dataset(300).curves
        qs = sample if q is None else _t1_dataset(q).curves

        def run():
            return _ksd_channel(sample, qs, Grid(101), bandwidth)

        run()  # untraced first: NumPy's one-off allocations (np.median's first call: 1.1 MB)
        return traced_peak(run)

    @pytest.mark.parametrize("bandwidth", [MEDIAN_HEURISTIC, 0.7])
    @pytest.mark.parametrize("q", [None, 50])
    def test_peak_three_n_squared_doubles(self, bandwidth, q, traced_peak):
        n = 300
        bound = 3 * n * n * 8 + 0.5e6 + (0 if q is None else q * n * 8)
        assert self.peak(traced_peak, bandwidth, q) <= bound

    @pytest.mark.parametrize("q", [None, 50])
    def test_numpy_terms_within_the_same_bound(self, q, traced_peak, monkeypatch):
        monkeypatch.setattr(fkwc.compiled, "load", lambda: None)
        self.test_peak_three_n_squared_doubles(MEDIAN_HEURISTIC, q, traced_peak)

    @pytest.mark.parametrize("bandwidth", [MEDIAN_HEURISTIC, 0.7])
    @pytest.mark.parametrize("q", [None, 50])
    def test_compiled_sums_hold_no_term_matrix(self, bandwidth, q, traced_peak):
        if fkwc.compiled.load() is None:
            pytest.skip("the compiled library is not available")
        n, m = 300, 101
        # the Gram matrix (and the queries' rows) plus one buffer of
        # differences, or, larger here, the median heuristic's pairs
        extra = max(n * m, n * (n - 1) // 2 if bandwidth == MEDIAN_HEURISTIC else 0)
        bound = (n * n + extra + (0 if q is None else q * n)) * 8 + 0.1e6
        assert self.peak(traced_peak, bandwidth, q) <= bound


@st.composite
def rp_prime_cases(draw):
    """Samples on which the reference takes each of its branches: generic
    curves; identical curve rows with a given live derivative channel;
    constant offsets, whose derivative channel is flat exactly (no base
    curve) or up to rounding (a shared base curve); both channels flat;
    and a spread near the 1e-12 relative cut-off.  The scale moves every
    spread to about 1e-100 or 1e100.  The queries are the sample, a raw
    array or a dataset."""
    n = draw(st.integers(1, 40))
    m = draw(st.sampled_from([3, 4, 7, 21, 101]))
    shape = draw(st.sampled_from(["generic", "identical", "offsets", "flat", "near-cutoff"]))
    scale = draw(st.sampled_from([1.0, 1e-100, 1e100]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    base = draw(st.sampled_from([0.0, 1.0])) * rng.normal(size=m).cumsum()
    deriv = None
    if shape == "generic":
        curves = rng.normal(size=(n, m)).cumsum(axis=1)
    elif shape == "identical":
        curves = np.tile(base, (n, 1))
        deriv = scale * rng.normal(size=(n, m))
    elif shape == "offsets":
        curves = base + rng.normal(size=(n, 1))
    elif shape == "flat":
        curves = np.tile(base, (n, 1))
    else:
        curves = 1.0 + base + 1e-12 * rng.normal(size=(n, m))
    grid = Grid(m)
    ds = FunctionalDataset(grid, scale * curves, [1] * n, deriv)
    k = draw(st.integers(1, 4))
    fresh = scale * np.vstack([curves[:1], rng.normal(size=(k, m)).cumsum(axis=1)])
    queries = draw(st.sampled_from([None, fresh, FunctionalDataset(grid, fresh, [1] * (k + 1))]))
    spec = DepthSpec(
        kind="rp",
        use_derivatives=True,
        num_projections=draw(st.sampled_from([1, 3, 20])),
        rng_seed=draw(st.integers(0, 1000)),
    )
    return ds, spec, queries


class TestRpPrimeReference:
    """Primed ``rp`` equals the three-branch loop it replaced, byte for byte."""

    @staticmethod
    def assert_same_bits(ds, spec, queries=None):
        got = rp_depth(ds, spec, queries).values
        assert got.tobytes() == rp_prime_reference(ds, spec, queries).tobytes()

    @pytest.mark.parametrize("n", [100, 300])
    def test_in_sample_t1(self, n):
        self.assert_same_bits(_t1_dataset(n), DepthSpec(kind="rp", use_derivatives=True))

    @given(rp_prime_cases())
    @settings(max_examples=300)
    def test_matches_reference(self, case):
        self.assert_same_bits(*case)


class TestDepthRanks:
    def test_simple_sorting(self):
        rv = ranks_with_tiebreak(np.array([0.1, 0.4, 0.2, 0.3]), 0)
        np.testing.assert_array_equal(rv.ranks, [1, 4, 2, 3])
        assert rv.tie_breaks_applied == 0

    def test_all_tied_uniform_mean_ranks(self):
        n = 6
        reps = 10_000
        totals = np.zeros(n)
        keys = np.zeros(n)
        for s in range(reps):
            totals += ranks_with_tiebreak(keys, s).ranks
        means = totals / reps
        se = np.sqrt((n * n - 1) / 12.0 / reps)
        np.testing.assert_allclose(means, (n + 1) / 2.0, atol=3 * se + 1e-9)

    def test_invariant_under_increasing_transform(self):
        rng = np.random.default_rng(5)
        keys = rng.normal(size=25)
        r1 = ranks_with_tiebreak(keys, 7)
        r2 = ranks_with_tiebreak(np.exp(keys) + 3.0, 7)
        np.testing.assert_array_equal(r1.ranks, r2.ranks)

    def test_rank_n_is_deepest(self, two_group_dataset):
        spec = DepthSpec(kind="mbd", rng_seed=2)
        vals = compute_depth(two_group_dataset, spec).values
        rv = depth_ranks(two_group_dataset, spec)
        assert rv.ranks[np.argmax(vals)] == two_group_dataset.n_curves

    def test_ltr_path_uses_norm_scores(self, two_group_dataset):
        spec = DepthSpec(kind="ltr", rng_seed=1)
        rv = depth_ranks(two_group_dataset, spec)
        scores = -depth_sort_keys(two_group_dataset, DepthSpec(kind="ltr"))
        expected = ranks_with_tiebreak(-scores, 1)
        np.testing.assert_array_equal(rv.ranks, expected.ranks)

    def test_tie_count_reported(self):
        rv = ranks_with_tiebreak(np.array([1.0, 1.0, 2.0, 2.0, 2.0, 5.0]), 3)
        assert rv.tie_breaks_applied == 3

    @given(st.lists(st.sampled_from([-np.inf, -1.0, -0.0, 0.0, 1.0, 2.5, np.inf]),
                    min_size=1, max_size=40),
           st.integers(0, 1000))
    @example([-0.0, 0.0, np.inf, np.inf, -np.inf], 0)
    @settings(max_examples=100, deadline=None)
    def test_tie_count_is_distinct_key_count(self, keys, seed):
        keys = np.array(keys)
        rv = ranks_with_tiebreak(keys, seed)
        # np.unique counts -0.0 and 0.0 as one value, as == does
        assert rv.tie_breaks_applied == keys.size - np.unique(keys).size
        by_rank = keys[np.argsort(rv.ranks)]
        assert np.all(by_rank[1:] >= by_rank[:-1])

    def test_nan_keys_refused(self):
        with pytest.raises(DataError, match="NaN"):
            ranks_with_tiebreak(np.array([np.nan, np.nan, 1.0]), 0)

    @given(st.lists(st.one_of(st.sampled_from([-np.inf, -0.0, 0.0, np.inf]),
                              st.floats(-3, 3, allow_nan=False)),
                    min_size=1, max_size=40),
           st.integers(0, 2**63 - 1))
    @example([-0.0, 0.0, np.inf, np.inf, -np.inf], 0)
    @example([np.inf, -np.inf, 0.0, 1.5], 1)
    @settings(max_examples=200, deadline=None)
    def test_equals_shuffle_on_every_call(self, keys, seed):
        # the form that draws the shuffle on every call, ties or none
        keys = np.array(keys)
        order = np.lexsort((fkwc.depths.derive_rng(seed, 1).permutation(keys.size), keys))
        want = np.empty(keys.size, dtype=int)
        want[order] = np.arange(1, keys.size + 1)
        assert ranks_with_tiebreak(keys, seed).ranks.tobytes() == want.tobytes()

    def test_no_generator_without_ties(self, monkeypatch):
        drawn = []
        original = fkwc.depths.derive_rng

        def counting(*args):
            drawn.append(args)
            return original(*args)

        monkeypatch.setattr(fkwc.depths, "derive_rng", counting)
        ranks_with_tiebreak(np.array([np.inf, -0.0, 2.0, -np.inf, 1.0]), 3)
        assert drawn == []
        ranks_with_tiebreak(np.array([-0.0, 0.0, 1.0]), 3)
        assert drawn == [(3, 1)]


class TestScaleInvariance:
    """Transformation invariance of the rank vectors."""

    def _affine_family(self, grid, n=14, seed=50):
        # one-parameter family b + c_i * phi: every projection ordering is
        # either the c-order or its reverse, which rank-symmetric
        # per-direction scores cannot distinguish
        rng = np.random.default_rng(seed)
        cs = np.sort(rng.normal(size=n)) * 2.0
        phi = 1.0 + 0.3 * np.cos(2 * np.pi * grid.points)
        b = 0.5 * np.sin(4 * np.pi * grid.points)
        return b[None, :] + cs[:, None] * phi[None, :]

    def test_function_scaling_unprimed(self, grid101):
        a = 1.0 + 0.5 * np.sin(2 * np.pi * grid101.points)
        rng = np.random.default_rng(60)
        generic = rng.normal(size=(16, grid101.m))
        family = self._affine_family(grid101)
        for kind, curves in (("mfhd", generic), ("mbd", generic), ("rp", family)):
            ds = make_ds(curves, grid=grid101)
            scaled = make_ds(curves * a[None, :], grid=grid101)
            spec = DepthSpec(kind=kind, rng_seed=9)
            r1 = depth_ranks(ds, spec)
            r2 = depth_ranks(scaled, spec)
            np.testing.assert_array_equal(r1.ranks, r2.ranks, err_msg=kind)

    # powers of two scale every float exactly, from near underflow to near
    # overflow of the squared norms; a negative c also reflects every curve
    @pytest.mark.parametrize("c", [7.0, 2.0**-480, 2.0**480, -1.0, -(2.0**480)],
                             ids=["7", "2^-480", "2^480", "-1", "-2^480"])
    @pytest.mark.parametrize("primed", [False, True], ids=["plain", "primed"])
    def test_constant_scaling(self, primed, c, grid101):
        rng = np.random.default_rng(61)
        curves = rng.normal(size=(16, grid101.m)).cumsum(axis=1) * 0.1
        for kind in ("mfhd", "mbd", "rp", "ltr", "spatial", "ksd"):
            if kind == "rp" and not primed and c < 0:
                continue  # see test_plain_rp_negation
            ds = make_ds(curves, grid=grid101)
            scaled = make_ds(c * curves, grid=grid101)
            spec = DepthSpec(kind=kind, use_derivatives=primed, rng_seed=13)
            r1 = depth_ranks(ds, spec)
            r2 = depth_ranks(scaled, spec)
            np.testing.assert_array_equal(r1.ranks, r2.ranks, err_msg=kind)

    # t -> 1 - t: the derivative channel of the reversed curves is the
    # negated, reversed channel, bit for bit.  rp is left out: its seeded
    # directions are not reversed, so its ranks keep only in distribution
    @pytest.mark.parametrize("primed", [False, True], ids=["plain", "primed"])
    def test_time_reversal(self, primed, grid101):
        rng = np.random.default_rng(61)
        curves = rng.normal(size=(16, grid101.m)).cumsum(axis=1) * 0.1
        ds = make_ds(curves, grid=grid101)
        reversed_ds = make_ds(curves[:, ::-1], grid=grid101)
        if primed:
            assert reversed_ds.derivatives.tobytes() == (-ds.derivatives[:, ::-1]).tobytes()
        for kind in ("mfhd", "mbd", "ltr", "spatial", "ksd"):
            spec = DepthSpec(kind=kind, use_derivatives=primed, rng_seed=13)
            r1 = depth_ranks(ds, spec)
            r2 = depth_ranks(reversed_ds, spec)
            np.testing.assert_array_equal(r1.ranks, r2.ranks, err_msg=kind)

    @pytest.mark.xfail(strict=True, reason=(
        "plain rp scores F(1 - F), and under -X each direction's F becomes 1 - F "
        "in exact arithmetic but F(1 - F) and (1 - F)F round apart in the last bit, "
        "so two curves whose depths differ by an ulp can swap ranks"))
    def test_plain_rp_negation(self, grid101):
        # on these 40 random walks two ranks swap (depths 5.6e-17 apart)
        rng = np.random.default_rng(5)
        curves = rng.normal(size=(40, grid101.m)).cumsum(axis=1) * 0.1
        spec = DepthSpec(kind="rp", rng_seed=13)
        r1 = depth_ranks(make_ds(curves, grid=grid101), spec)
        r2 = depth_ranks(make_ds(-curves, grid=grid101), spec)
        np.testing.assert_array_equal(r1.ranks, r2.ranks)


class TestPermutationEquivariance:
    @pytest.mark.parametrize("kind", ALL_KINDS)
    def test_depth_vectors_permute(self, kind, grid21):
        rng = np.random.default_rng(70)
        n = 12
        curves = rng.normal(size=(n, grid21.m))
        ds = make_ds(curves, grid=grid21)
        spec = DepthSpec(kind=kind, rng_seed=3)
        vals = compute_depth(ds, spec).values
        perm = rng.permutation(n)
        ds_p = FunctionalDataset(grid21, ds.curves[perm], [1] * n, ds.derivatives[perm])
        vals_p = compute_depth(ds_p, spec).values
        np.testing.assert_allclose(vals_p, vals[perm], rtol=1e-10, atol=1e-12)


class TestValueRanges:
    def test_documented_ranges(self, two_group_dataset):
        ds = two_group_dataset
        ltr_vals = compute_depth(ds, DepthSpec(kind="ltr")).values
        assert np.all((0.0 < ltr_vals) & (ltr_vals <= 1.0))
        rp_vals = compute_depth(ds, DepthSpec(kind="rp", rng_seed=1)).values
        assert np.all((0.0 <= rp_vals) & (rp_vals <= 0.25))
        mbd_vals = compute_depth(ds, DepthSpec(kind="mbd")).values
        assert np.all((0.0 <= mbd_vals) & (mbd_vals <= 1.0))
        for kind in ("mfhd", "spatial", "ksd"):
            vals = compute_depth(ds, DepthSpec(kind=kind)).values
            assert np.all((0.0 <= vals) & (vals <= 1.0)), kind


class TestDerivativeChannel:
    """A primed spec on a dataset built without derivatives gives, at every
    entry point, exactly the result on one given its finite differences."""

    @pytest.mark.parametrize("kind", ALL_KINDS)
    def test_missing_channel_filled_everywhere(self, kind, grid21):
        rng = np.random.default_rng(81)
        curves = rng.normal(size=(18, grid21.m))
        groups = np.repeat([1, 2, 3], 6)
        ds = FunctionalDataset(grid21, curves, groups)
        filled = FunctionalDataset(grid21, curves, groups, differentiate(curves, grid21))
        spec = DepthSpec(kind=kind, use_derivatives=True, rng_seed=5)
        got, want = compute_depth(ds, spec).values, compute_depth(filled, spec).values
        assert got.tobytes() == want.tobytes()
        kernel = DEPTH_KERNELS[kind]
        assert kernel(ds, spec, None).values.tobytes() == want.tobytes()
        queries = FunctionalDataset(grid21, curves[:4], [1] * 4, differentiate(curves[:4], grid21))
        assert kernel(ds, spec, curves[:4]).values.tobytes() == (
            kernel(filled, spec, queries).values.tobytes())
        assert depth_ranks(ds, spec).ranks.tobytes() == depth_ranks(filled, spec).ranks.tobytes()
        config = TestConfig(depth_spec=spec)
        assert fkwc_test(ds, config) == fkwc_test(filled, config)
        mc, mc_filled = steel_mc(ds, spec), steel_mc(filled, spec)
        assert mc.pairwise_raw_p.tobytes() == mc_filled.pairwise_raw_p.tobytes()
        assert mc.pairwise_adjusted_p.tobytes() == mc_filled.pairwise_adjusted_p.tobytes()


CHANNEL_FUNCTIONS = {"mbd": "_mbd_channel", "spatial": "_spatial_channel", "ksd": "_ksd_channel"}


def _cache_dataset():
    curves = np.random.default_rng(47).normal(size=(14, 21)).cumsum(axis=1)
    return make_ds(curves, groups=[1] * 7 + [2] * 7)


def _count_channel(monkeypatch, kind):
    """Record the sample array and the options of each call of ``kind``'s
    channel function."""
    calls = []
    original = getattr(fkwc.depths, CHANNEL_FUNCTIONS[kind])

    def counting(sample, qs, grid, *args, **kwargs):
        calls.append((sample, args))
        return original(sample, qs, grid, *args, **kwargs)

    monkeypatch.setattr(fkwc.depths, CHANNEL_FUNCTIONS[kind], counting)
    return calls


class TestChannelCache:
    """In-sample ``mbd``, ``spatial`` and ``ksd`` keep each channel's values
    on the dataset, so a plain and a primed spec compute their shared curve
    channel once, with the bits of a fresh evaluation."""

    @pytest.mark.parametrize("kind", sorted(CHANNEL_FUNCTIONS))
    @pytest.mark.parametrize("order", [(False, True), (True, False)],
                             ids=["plain-first", "primed-first"])
    def test_same_bits_as_a_fresh_dataset(self, kind, order):
        ds = _cache_dataset()
        for primed in order:
            spec = DepthSpec(kind=kind, use_derivatives=primed)
            fresh = compute_depth(_cache_dataset(), spec).values
            assert compute_depth(ds, spec).values.tobytes() == fresh.tobytes()

    @pytest.mark.parametrize("kind", sorted(CHANNEL_FUNCTIONS))
    def test_each_channel_computed_once(self, kind, monkeypatch):
        calls = _count_channel(monkeypatch, kind)
        ds = _cache_dataset()
        for primed in (False, True, False, True):
            compute_depth(ds, DepthSpec(kind=kind, use_derivatives=primed))
        depth_ranks(ds, DepthSpec(kind=kind, use_derivatives=True, rng_seed=9))
        assert [(sample is ds.curves, sample is ds.derivatives) for sample, _ in calls] == [
            (True, False), (False, True)]

    @pytest.mark.parametrize("kind, option, values", [
        ("mbd", "band_order", [2, 3, 2, 3]),
        ("ksd", "kernel_bandwidth", [MEDIAN_HEURISTIC, 2.0, 0.5, 2.0, MEDIAN_HEURISTIC]),
    ])
    def test_computed_again_for_other_options(self, kind, option, values, monkeypatch):
        calls = _count_channel(monkeypatch, kind)
        ds = _cache_dataset()
        got = {}
        for value in values:
            vals = compute_depth(ds, DepthSpec(kind=kind, **{option: value})).values
            got.setdefault(value, vals.tobytes())
            assert vals.tobytes() == got[value]
        assert [args for _, args in calls] == [(v,) for v in dict.fromkeys(values)]

    @pytest.mark.parametrize("kind", sorted(CHANNEL_FUNCTIONS))
    @pytest.mark.parametrize("as_dataset", [True, False], ids=["dataset", "array"])
    def test_queries_neither_read_nor_fill(self, kind, as_dataset, monkeypatch):
        calls = _count_channel(monkeypatch, kind)
        ds = _cache_dataset()
        curves = ds.curves[:5].copy()
        queries = make_ds(curves, grid=ds.grid) if as_dataset else curves
        spec = DepthSpec(kind=kind, use_derivatives=True)
        compute_depth(ds, spec, queries=queries)
        assert len(calls) == 2 and not ds.__dict__.get("_channel_depths")
        compute_depth(ds, spec)
        assert len(calls) == 4
        compute_depth(ds, spec, queries=queries)
        assert len(calls) == 6

    def test_cached_values_read_only(self):
        ds = _cache_dataset()
        for kind in CHANNEL_FUNCTIONS:
            compute_depth(ds, DepthSpec(kind=kind, use_derivatives=True))
        cached = list(ds._channel_depths.values())
        assert len(cached) == 6
        for vals in cached:
            assert vals.shape == (ds.n_curves,) and not vals.flags.writeable
            with pytest.raises(ValueError):
                vals[0] = 0.0


class TestErrors:
    def test_query_grid_mismatch(self, grid21, grid101, two_group_dataset):
        other = make_ds(np.zeros((2, grid21.m)), groups=[1, 2], grid=grid21)
        with pytest.raises(DataError):
            mbd(two_group_dataset, DepthSpec(kind="mbd"), queries=other)
