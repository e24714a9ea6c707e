"""Depth functions: worked examples, invariances, and brute-force oracles."""

import inspect
import itertools
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

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
    _ksd_channel,
    _pairwise_sq_dists,
    _rp_directions,
    _spatial_channel,
    depth_sort_keys,
)

ALL_KINDS = ("ltr", "rp", "mfhd", "mbd", "spatial", "ksd")


def make_ds(curves, groups=None, grid=None):
    curves = np.atleast_2d(np.asarray(curves, dtype=float))
    grid = grid if grid is not None else Grid.regular(curves.shape[1])
    groups = groups if groups is not None else [1] * curves.shape[0]
    return FunctionalDataset(grid, curves, groups)


def ksd_loop_reference(sample, qs, w, bandwidth) -> np.ndarray:
    """One ksd channel the way it was first written: a fresh (k, k) matrix
    per query, gathered with ``np.ix_`` from the sample Gram matrix.  The
    kernel must reproduce it bit for bit."""
    n = sample.shape[0]
    d2_ss = _pairwise_sq_dists(sample, sample, w)
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
        gram_qs = np.exp(-_pairwise_sq_dists(qs, sample, w) / sigma2)
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


def rp_prime_reference(ds, spec, queries=None) -> np.ndarray:
    """Primed ``rp`` the way it was first written: a bivariate KDE, a
    univariate one in the other coordinate when one has no spread, and 1.0
    when neither has.  The one KDE loop must reproduce it bit for bit."""
    (s0, q0), (s1, q1) = _channels(ds, True, queries)
    w = ds.grid.trapezoid_weights
    dirs = _rp_directions(w, spec.num_projections, fkwc.depths.derive_rng(spec.rng_seed, 0))
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
        dirs = _rp_directions(w, 20, fkwc.depths.derive_rng(9, 0))
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
        grid = Grid.regular(m)
        curves = rng.integers(-3, 4, size=(n, m)).astype(float)  # ties on purpose
        ds = make_ds(curves, grid=grid)
        got = mbd(ds, DepthSpec(kind="mbd", band_order=order)).values
        want = self.brute_force_mbd(curves, grid.trapezoid_weights, order)
        np.testing.assert_allclose(got, want, atol=1e-12)


class TestSpatialAndKsd:
    def test_two_curve_sample_depth_half(self, grid21):
        ds = make_ds(np.vstack([np.ones(grid21.m), -np.ones(grid21.m)]), grid=grid21)
        np.testing.assert_allclose(spatial_depth(ds, DepthSpec(kind="spatial")).values, 0.5)
        np.testing.assert_allclose(ksd_depth(ds, DepthSpec(kind="ksd")).values, 0.5, atol=1e-12)

    def test_far_query_depth_vanishes(self, grid21):
        rng = np.random.default_rng(15)
        ds = make_ds(rng.normal(size=(10, grid21.m)), grid=grid21)
        far = 1e9 * np.ones((1, grid21.m))
        assert _spatial_channel(ds.curves, far, grid21.trapezoid_weights)[0] == pytest.approx(0.0, abs=1e-6)

    def test_spherically_symmetric_center_depth_one(self, grid21):
        t = grid21.points
        f = np.sin(2 * np.pi * t)
        h = np.cos(4 * np.pi * t)
        ds = make_ds(np.vstack([f, -f, h, -h]), grid=grid21)
        got = _spatial_channel(ds.curves, np.zeros((1, grid21.m)), grid21.trapezoid_weights)
        assert got[0] == pytest.approx(1.0, abs=1e-14)

    def test_ksd_bandwidth_must_be_positive(self):
        with pytest.raises(ParameterError):
            DepthSpec(kind="ksd", kernel_bandwidth=0.0)

    def test_ksd_fixed_bandwidth_runs(self, two_group_dataset):
        vals = ksd_depth(two_group_dataset, DepthSpec(kind="ksd", kernel_bandwidth=2.0)).values
        assert np.all((0.0 <= vals) & (vals <= 1.0))

    @pytest.mark.parametrize("primed", [False, True])
    def test_ksd_sample_distances_once_per_channel(self, primed, grid21, monkeypatch):
        calls = []
        original = fkwc.depths._pairwise_sq_dists

        def counting(a, b, w):
            calls.append(a.shape)
            return original(a, b, w)

        monkeypatch.setattr(fkwc.depths, "_pairwise_sq_dists", counting)
        ds = make_ds(np.random.default_rng(12).normal(size=(9, grid21.m)), grid=grid21)
        copy = FunctionalDataset(grid21, ds.curves.copy(), ds.groups, ds.derivatives.copy())
        spec = DepthSpec(kind="ksd", use_derivatives=primed)
        channels = 2 if primed else 1
        own = ksd_depth(ds, spec).values
        assert len(calls) == channels
        outside = ksd_depth(ds, spec, queries=copy).values
        assert len(calls) == 3 * channels
        # the reused matrix is the one the outside queries recompute
        assert own.tobytes() == outside.tobytes()


def _t1_dataset(n):
    curves = generate(ProcessModel(family="t1"), n, seed=(n, 2021))
    return make_ds(curves, grid=Grid(101))


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
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(fkwc.depths, "_ksd_channel", ksd_loop_reference)
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
        w = Grid(sample.shape[1]).trapezoid_weights
        for qs in (sample, queries):
            got = _ksd_channel(sample, qs, w, bandwidth)
            assert got.tobytes() == ksd_loop_reference(sample, qs, w, bandwidth).tobytes()


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


class TestErrors:
    def test_query_grid_mismatch(self, grid21, grid101, two_group_dataset):
        other = make_ds(np.zeros((2, grid21.m)), groups=[1, 2], grid=grid21)
        with pytest.raises(DataError):
            mbd(two_group_dataset, DepthSpec(kind="mbd"), queries=other)
