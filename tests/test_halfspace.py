"""Bivariate Tukey depth: independent halfplane-counting oracle,
degenerate hand-verified configurations, and the per-query sweep that the
batched kernel must reproduce count for count."""

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
    ProcessModel,
    generate,
    halfspace_depth_2d,
    mfhd,
)


def halfspace_oracle(points, query):
    """O(n^2) candidate-direction counting with dot/cross predicates.

    The minimizing closed halfplane has a boundary direction perpendicular
    to some data point offset; each candidate is evaluated just off the
    boundary on both sides, where boundary membership is decided by the
    sign of the cross product.
    """
    pts = np.asarray(points, dtype=float)
    n = pts.shape[0]
    d = pts - np.asarray(query, dtype=float)
    nonzero = (d[:, 0] != 0.0) | (d[:, 1] != 0.0)
    z = n - int(np.count_nonzero(nonzero))
    dd = d[nonzero]
    if dd.shape[0] == 0:
        return 1.0
    best = dd.shape[0]
    for v in dd:
        for u in ((-v[1], v[0]), (v[1], -v[0])):
            # elementwise products: BLAS dots can use FMA, which breaks the
            # exact self-cancellation the boundary predicate relies on
            dots = dd[:, 0] * u[0] + dd[:, 1] * u[1]
            crosses = dd[:, 0] * (-u[1]) + dd[:, 1] * u[0]
            strict = int(np.count_nonzero(dots < 0))
            boundary = dots == 0
            plus = strict + int(np.count_nonzero(boundary & (crosses < 0)))
            minus = strict + int(np.count_nonzero(boundary & (crosses > 0)))
            best = min(best, plus, minus)
    return (z + best) / n


def sweep_reference(points, queries):
    """The rotating-line sweep of Rousseeuw & Ruts (AS 307), one query at a
    time: with the query at the origin, the depth is (#coincident points +
    K - max half-open arc count) / n, the maximum scanned at the 2K arc
    breakpoints of the K sorted nonzero direction angles."""
    pts = np.asarray(points, dtype=float)
    qs = np.atleast_2d(np.asarray(queries, dtype=float))
    n = pts.shape[0]
    out = np.empty(qs.shape[0])
    for i, q in enumerate(qs):
        d = pts - q
        nonzero = (d[:, 0] != 0.0) | (d[:, 1] != 0.0)
        coincident = n - int(np.count_nonzero(nonzero))
        dd = d[nonzero]
        if dd.shape[0] == 0:
            out[i] = 1.0
            continue
        ang = np.sort(np.arctan2(dd[:, 1], dd[:, 0]))
        k = ang.size
        shifted = ang + 2.0 * np.pi
        doubled = np.concatenate([ang, shifted])
        # piece starting at angle a counts the half-open arc (a, a+pi];
        # pieces starting at a-pi are evaluated as (a+pi, a+2pi] against the
        # wrapped copies, whose floats must match `shifted` exactly
        starts = np.concatenate([ang, ang + np.pi])
        ends = np.concatenate([ang + np.pi, shifted])
        hi = np.searchsorted(doubled, ends, side="right")
        lo = np.searchsorted(doubled, starts, side="right")
        out[i] = (coincident + k - int((hi - lo).max())) / n
    return out


def stacked_sweep_reference(points, queries):
    """``sweep_reference`` slice by slice of (k, n, 2) and (k, q, 2) stacks."""
    return np.stack([sweep_reference(p, q) for p, q in zip(points, queries)])


class TestHandCases:
    def test_three_collinear(self):
        pts = np.array([[0.0, 0.0], [1.0, 0.0], [2.0, 0.0]])
        got = halfspace_depth_2d(pts, pts)
        np.testing.assert_allclose(got, [1 / 3, 2 / 3, 1 / 3])

    def test_cross_center(self):
        pts = np.array([[0.0, 0.0], [1.0, 0.0], [-1.0, 0.0], [0.0, 1.0], [0.0, -1.0]])
        assert halfspace_depth_2d(pts, np.array([[0.0, 0.0]]))[0] == pytest.approx(3 / 5)

    def test_all_points_equal(self):
        pts = np.zeros((4, 2))
        assert halfspace_depth_2d(pts, np.array([[0.0, 0.0]]))[0] == 1.0
        assert halfspace_depth_2d(pts, np.array([[1.0, 0.0]]))[0] == 0.0

    def test_duplicated_points(self):
        pts = np.array([[0.0, 0.0], [0.0, 0.0], [1.0, 0.0], [1.0, 0.0]])
        got = halfspace_depth_2d(pts, pts[:2])
        # query coincides with two points; the halfplane away from (1,0)
        # still contains both coincident points
        np.testing.assert_allclose(got, [0.5, 0.5])

    def test_square_corner_vs_center(self):
        pts = np.array([[1.0, 1.0], [1.0, -1.0], [-1.0, 1.0], [-1.0, -1.0]])
        corner = halfspace_depth_2d(pts, np.array([[1.0, 1.0]]))[0]
        center = halfspace_depth_2d(pts, np.array([[0.0, 0.0]]))[0]
        assert corner == pytest.approx(1 / 4)
        assert center == pytest.approx(2 / 4)


class TestOracleEquivalence:
    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    @pytest.mark.parametrize("n", [5, 17, 50])
    def test_matches_oracle_generic(self, seed, n):
        rng = np.random.default_rng((seed, n))
        pts = rng.normal(size=(n, 2)) @ np.array([[1.0, 0.4], [0.0, 0.7]])
        got = halfspace_depth_2d(pts, pts)
        want = np.array([halfspace_oracle(pts, q) for q in pts])
        np.testing.assert_array_equal(got, want)

    def test_matches_oracle_external_queries(self):
        rng = np.random.default_rng(99)
        pts = rng.normal(size=(30, 2))
        qs = rng.normal(size=(20, 2)) * 2.0
        got = halfspace_depth_2d(pts, qs)
        want = np.array([halfspace_oracle(pts, q) for q in qs])
        np.testing.assert_array_equal(got, want)

    def test_matches_oracle_with_ties(self):
        rng = np.random.default_rng(7)
        pts = rng.integers(-2, 3, size=(20, 2)).astype(float)
        got = halfspace_depth_2d(pts, pts)
        want = np.array([halfspace_oracle(pts, q) for q in pts])
        np.testing.assert_array_equal(got, want)


class TestProperties:
    def test_sample_point_depth_at_least_one_over_n(self):
        rng = np.random.default_rng(3)
        pts = rng.normal(size=(25, 2))
        got = halfspace_depth_2d(pts, pts)
        assert np.all(got >= 1 / 25 - 1e-15)
        assert np.all(got <= 1.0)

    def test_affine_invariance(self):
        rng = np.random.default_rng(8)
        pts = rng.normal(size=(30, 2))
        amat = np.array([[2.0, 1.0], [-0.5, 3.0]])
        shift = np.array([4.0, -2.0])
        base = halfspace_depth_2d(pts, pts)
        mapped = halfspace_depth_2d(pts @ amat.T + shift, pts @ amat.T + shift)
        np.testing.assert_allclose(mapped, base, atol=1e-12)


@st.composite
def lattice_cases(draw):
    """Points on a scaled integer lattice (so ties, collinear triples and
    duplicates are common), some zeros signed negative, plus a few whose
    directions from the origin differ by less than an ulp of 2 pi; queried
    at every point and at lattice points outside the sample's range."""
    scale = draw(st.sampled_from([1.0, 0.1, 3.0, 1e-3]))
    spread = draw(st.integers(0, 4))  # 0: every point coincides
    coord = st.integers(-spread, spread)
    pts = np.array(draw(st.lists(st.tuples(coord, coord), min_size=1, max_size=30)),
                   dtype=float) * scale
    negative_zero = np.array(draw(st.lists(st.tuples(st.booleans(), st.booleans()),
                                           min_size=len(pts), max_size=len(pts))))
    pts[negative_zero & (pts == 0.0)] = -0.0
    side = draw(st.sampled_from([1.0, -1.0]))
    tilts = draw(st.lists(st.integers(-4, 4), max_size=3))
    near = np.array([[side, t * 1e-16] for t in tilts]).reshape(-1, 2) * scale
    pts = np.concatenate([pts, near])
    far = st.integers(-6, 6)
    extra = draw(st.lists(st.tuples(far, far), max_size=6))
    qs = np.concatenate([pts, np.array(extra, dtype=float).reshape(-1, 2) * scale])
    return pts, qs


def _t1_dataset(n):
    curves = generate(ProcessModel(family="t1"), n, seed=(n, 2021))
    labels = [1] * (n // 2) + [2] * (n - n // 2)
    return FunctionalDataset(Grid(101), curves, labels)


class TestBatchedKernel:
    @given(lattice_cases())
    @settings(max_examples=300)
    @example((np.array([[1.0, 0.0]]), np.array([[1.0, 0.0], [0.0, 0.0]])))
    @example((np.zeros((4, 2)), np.array([[0.0, 0.0], [1e-3, 0.0]])))
    # angles pi and -pi (the -0.0 offset) about the origin: depth 1/2
    @example((np.array([[2.0, 0.0], [-2.0, 0.0], [2.0, 0.0], [-1.0, -0.0]]),
              np.array([[0.0, 0.0]])))
    # a1 < a2 with fl(a1 + 2 pi) == fl(a2 + 2 pi) but fl(a1 + pi) < fl(a2 + pi)
    @example((np.array([[0.0, -1.0], [1.0, 0.0], [0.0, 1.0], [-2.0, 2.0], [-1.0, 0.0],
                        [0.0, -2.0], [1.0, -4e-16]]), np.array([[0.0, 0.0]])))
    def test_equals_sweep_reference_on_lattices(self, case):
        pts, qs = case
        assert np.array_equal(halfspace_depth_2d(pts, qs), sweep_reference(pts, qs))

    @pytest.mark.parametrize("n", [100, 200])
    def test_primed_mfhd_equals_sweep_on_t1(self, n, monkeypatch):
        ds = _t1_dataset(n)
        spec = DepthSpec(kind="mfhd", use_derivatives=True)
        got = mfhd(ds, spec).values
        monkeypatch.setattr(fkwc.depths, "halfspace_depth_2d", stacked_sweep_reference)
        assert np.array_equal(got, mfhd(ds, spec).values)

    def test_primed_mfhd_calls_once_per_evaluation(self, monkeypatch):
        ds = _t1_dataset(40)
        calls = []

        def counting(points, queries):
            calls.append((points.shape, queries.shape))
            return halfspace_depth_2d(points, queries)

        monkeypatch.setattr(fkwc.depths, "halfspace_depth_2d", counting)
        spec = DepthSpec(kind="mfhd", use_derivatives=True)
        mfhd(ds, spec)
        mfhd(ds, spec, queries=ds.curves[:7])
        m = ds.grid.m
        assert calls == [((m, 40, 2), (m, 40, 2)), ((m, 40, 2), (m, 7, 2))]

    @pytest.mark.parametrize("cells", [1 << 14, 7 * 60])
    def test_stack_equals_slices(self, cells, monkeypatch):
        # t-distributed slices, one on a lattice so that ties are common;
        # with 7 x 60 cells a block holds 7 of the 13 queries, so the
        # shared key buffer is refilled by blocks of different heights
        rng = np.random.default_rng(12)
        pts = rng.standard_t(1, size=(5, 60, 2))
        pts[2] = rng.integers(-2, 3, size=(60, 2))
        qs = np.concatenate([pts[:, :9], rng.standard_t(1, size=(5, 4, 2))], axis=1)
        monkeypatch.setattr(fkwc.depths, "_HALFSPACE_BLOCK_CELLS", cells)
        got = halfspace_depth_2d(pts, qs)
        assert got.shape == (5, 13)
        for t in range(5):
            assert got[t].tobytes() == halfspace_depth_2d(pts[t], qs[t]).tobytes()
        assert np.array_equal(got, stacked_sweep_reference(pts, qs))

    def test_blocks_match_one_block(self, monkeypatch):
        rng = np.random.default_rng(11)
        pts = rng.standard_t(1, size=(60, 2))
        qs = np.concatenate([pts, rng.standard_t(1, size=(13, 2))])
        whole = halfspace_depth_2d(pts, qs)
        monkeypatch.setattr(fkwc.depths, "_HALFSPACE_BLOCK_CELLS", 7 * 60)
        assert np.array_equal(halfspace_depth_2d(pts, qs), whole)
        assert np.array_equal(whole, sweep_reference(pts, qs))

    def test_no_queries(self):
        out = halfspace_depth_2d(np.zeros((3, 2)), np.zeros((0, 2)))
        assert out.shape == (0,)

    @pytest.mark.parametrize("k", [0, 1, 4])
    def test_stacks_without_queries(self, k):
        out = halfspace_depth_2d(np.zeros((k, 3, 2)), np.zeros((k, 0, 2)))
        assert out.shape == (k, 0)


class TestValidation:
    @pytest.mark.parametrize(
        "points, queries",
        [
            (np.zeros((3, 3)), np.zeros((1, 3))),  # a third column
            (np.zeros((3, 2)), np.zeros((1, 3))),
            (np.zeros((3, 3)), np.zeros((1, 2))),
            (np.zeros((0, 2)), np.zeros((1, 2))),  # empty sample
            (np.zeros(2), np.zeros((1, 2))),
            (np.zeros((3, 2)), np.zeros(2)),
            (np.array([[0.0, 0.0], [np.nan, 1.0]]), np.zeros((1, 2))),
            (np.array([[0.0, 0.0], [np.inf, 1.0]]), np.zeros((1, 2))),
            (np.zeros((3, 2)), np.array([[0.0, np.nan]])),
            (np.zeros((3, 2)), np.array([[-np.inf, 0.0]])),
            (np.zeros((2, 3, 2)), np.zeros((3, 1, 2))),  # 2 point slices, 3 query slices
            (np.zeros((2, 3, 2)), np.zeros((1, 2))),
            (np.zeros((3, 2)), np.zeros((2, 1, 2))),
            (np.zeros((2, 0, 2)), np.zeros((2, 1, 2))),
            (np.zeros((1, 2, 3, 2)), np.zeros((1, 2, 1, 2))),
            (np.zeros((2, 3, 2)), np.full((2, 1, 2), np.nan)),
        ],
        ids=["3-col-both", "3-col-queries", "3-col-points", "empty-sample",
             "1d-points", "1d-queries", "nan-point", "inf-point", "nan-query",
             "inf-query", "slice-count", "stack-and-flat", "flat-and-stack",
             "empty-slices", "4d", "nan-stack"],
    )
    def test_bad_input_is_data_error(self, points, queries):
        with pytest.raises(DataError):
            halfspace_depth_2d(points, queries)
