"""Bivariate Tukey depth: an independent halfplane-counting oracle in exact
integer arithmetic, degenerate hand-verified configurations, and the
per-query sweep of AS 307 in floats.  The kernel's counts must equal the
oracle's, from the compiled sweep and from the NumPy fallback alike, on
the points' own depths and on outside queries, and stay the same bytes
under exact maps of the plane and without NumPy's AVX-512 kernels."""

import os
import platform
import re
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import fkwc.depths
import fkwc.compiled
from fkwc import (
    DataError,
    DepthSpec,
    FunctionalDataset,
    Grid,
    ProcessModel,
    compute_depth,
    generate,
    halfspace_depth_2d,
    mfhd,
)


def exact_ints(values) -> np.ndarray:
    """The finite floats ``values`` as Python ints (an object array) over
    one common power-of-two denominator: exact, and any scale."""
    ratios = [float(v).as_integer_ratio() for v in np.ravel(values)]
    den = max((d for _, d in ratios), default=1)
    return np.array([n * (den // d) for n, d in ratios], dtype=object).reshape(np.shape(values))


def halfspace_oracle(points, query):
    """O(n^2) candidate-direction counting with exact dot/cross predicates.

    The minimizing closed halfplane has a boundary direction perpendicular
    to some data point offset; each candidate is evaluated just off the
    boundary on both sides, where boundary membership is decided by the
    sign of the cross product.  The offsets are exact integers (the inputs
    over a common denominator), so every sign is exact.  For the candidate
    normal u = (-v_y, v_x) of offset v, u . w is the cross product
    v x w and the boundary cross product -v . w; u = (v_y, -v_x) negates
    the first and not the second.
    """
    coords = exact_ints(np.vstack([np.asarray(points, dtype=float),
                                   np.asarray(query, dtype=float)[None]]))
    d = coords[:-1] - coords[-1]
    n = d.shape[0]
    dd = d[(d[:, 0] != 0) | (d[:, 1] != 0)]
    z = n - dd.shape[0]
    if dd.shape[0] == 0:
        return 1.0

    def sign(a):
        return (a > 0).astype(int) - (a < 0).astype(int)

    cross = sign(np.multiply.outer(dd[:, 0], dd[:, 1]) - np.multiply.outer(dd[:, 1], dd[:, 0]))
    dot = sign(np.multiply.outer(dd[:, 0], dd[:, 0]) + np.multiply.outer(dd[:, 1], dd[:, 1]))
    best = dd.shape[0]
    for dots, crosses in ((cross, -dot), (-cross, dot)):
        strict = np.count_nonzero(dots < 0, axis=1)
        boundary = dots == 0
        plus = strict + np.count_nonzero(boundary & (crosses < 0), axis=1)
        minus = strict + np.count_nonzero(boundary & (crosses > 0), axis=1)
        best = min(best, int(plus.min()), int(minus.min()))
    return (z + best) / n


def stacked_oracle(points, queries=None):
    """``halfspace_oracle`` at every query of (k, n, 2) and (k, q, 2)
    stacks, or (n, 2) and (q, 2); the points themselves without queries."""
    pts = np.asarray(points, dtype=float)
    qs = pts if queries is None else np.asarray(queries, dtype=float)
    if pts.ndim == 2:
        return stacked_oracle(pts[None], qs[None])[0]
    return np.array([[halfspace_oracle(p, q) for q in qt] for p, qt in zip(pts, qs)])


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


def stacked_sweep_reference(points, queries=None):
    """``sweep_reference`` slice by slice of (k, n, 2) and (k, q, 2) stacks;
    the points themselves without queries."""
    queries = points if queries is None else queries
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

    @pytest.mark.parametrize("compiled", [True, False], ids=["compiled", "numpy"])
    def test_exactly_opposite_offsets(self, compiled):
        # (2, -150) and (-2, 150) from the query: every closed halfplane
        # through it holds a point, and the line through both holds both.
        # In float angles, fl(a + pi) rounds past the other point's angle
        # and the AS 307 sweep counts both in one half-open arc: depth 0
        pts = np.array([[3.0, -100.0], [-1.0, 200.0]])
        query = np.array([[1.0, 50.0]])
        load = fkwc.compiled.load() if compiled else None
        assert counted_by(load, halfspace_depth_2d, pts, query).tolist() == [0.5]
        assert sweep_reference(pts, query).tolist() == [0.0]
        own = counted_by(load, halfspace_depth_2d, np.vstack([pts, query]))
        assert own.tolist() == [1 / 3, 1 / 3, 2 / 3]


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


def _channels(kind, n, seed):
    """Curve and slope channels of n curves on 101 points: t1 draws and
    their finite differences, or both rounded to one decimal."""
    ds = FunctionalDataset(Grid(101), generate(ProcessModel(family="t1"), n, seed=seed), [1] * n)
    if kind == "t1":
        return ds.curves, ds.derivatives
    return np.round(ds.curves, 1), np.round(ds.derivatives, 1)


# the maps of the (value, slope) plane that are exact in floats
EXACT_MAPS = {
    "negate-value": lambda c, d: (-c, d),
    "negate-slope": lambda c, d: (c, -d),
    "swap": lambda c, d: (d, c),
    "scale-2^-7-2^9": lambda c, d: (c * 2.0**-7, d * 2.0**9),
    "scale-2^300-2^-300": lambda c, d: (c * 2.0**300, d * 2.0**-300),
}


class TestExactMaps:
    """``mfhd'`` depths are the same bytes after an exact map of each grid
    point's (value, slope) plane: the counts are exact, and the Tukey depth
    is invariant under the affine maps of the plane."""

    @pytest.mark.parametrize("kind", ["t1", "rounded"])
    @pytest.mark.parametrize("name", list(EXACT_MAPS))
    def test_exact_maps_keep_the_bytes(self, name, kind):
        grid, spec = Grid(101), DepthSpec(kind="mfhd", use_derivatives=True)
        c, d = _channels(kind, 40, 77)
        qc, qd = _channels(kind, 6, 78)

        def depths(c, d, qc, qd):
            ds = FunctionalDataset(grid, c, [1] * len(c), d)
            queries = FunctionalDataset(grid, qc, [1] * len(qc), qd)
            return mfhd(ds, spec).values, mfhd(ds, spec, queries).values

        want = depths(c, d, qc, qd)
        got = depths(*EXACT_MAPS[name](c, d), *EXACT_MAPS[name](qc, qd))
        assert [g.tobytes() for g in got] == [w.tobytes() for w in want]


PORTABLE = """
import sys
import numpy as np
from fkwc import halfspace_depth_2d

stacks = np.load(sys.argv[1])
for name in sorted(stacks.files):
    pts = stacks[name]
    print(name, halfspace_depth_2d(pts).tobytes().hex(),
          halfspace_depth_2d(pts, pts[:, ::3] + 0.5).tobytes().hex())
"""


class TestPortability:
    """No CPU-dependent NumPy kernel reaches a count: the depths are the
    same bytes with NumPy's AVX-512 (X86_V4) kernels, and its AVX2 (X86_V3)
    ones, turned off, which is what a CPU without them runs."""

    @pytest.mark.parametrize("disabled", ["AVX512_SPR AVX512_ICL X86_V4",
                                          "AVX512_SPR AVX512_ICL X86_V4 X86_V3"],
                             ids=["no-x86-v4", "no-x86-v3"])
    def test_same_bytes_without_simd_kernels(self, disabled, tmp_path):
        rng = np.random.default_rng(19)
        c, d = _channels("t1", 60, 79)
        # on this lattice the float-angle sweep of AS 307 gives other bytes
        # with the X86_V4 kernels off: arctan2's bits decide its ties
        stacks = {"t1": np.stack((c.T, d.T), axis=2),
                  "lattice": rng.integers(-30, 31, size=(20, 60, 2)) * 0.1}
        np.savez(tmp_path / "stacks.npz", **stacks)
        want = [f"{name} {halfspace_depth_2d(pts).tobytes().hex()} "
                f"{halfspace_depth_2d(pts, pts[:, ::3] + 0.5).tobytes().hex()}"
                for name, pts in sorted(stacks.items())]
        env = dict(os.environ, NPY_DISABLE_CPU_FEATURES=disabled,
                   PYTHONPATH=str(Path(fkwc.__file__).parents[1]))
        proc = subprocess.run([sys.executable, "-c", PORTABLE, str(tmp_path / "stacks.npz")],
                              env=env, capture_output=True, text=True, timeout=300)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.splitlines() == want


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


def counted_by(kernels, fn, *args):
    """``fn(*args)`` with the compiled ``kernels`` counting the arcs; None
    forces the NumPy fallback."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(fkwc.compiled, "load", lambda: kernels)
        return fn(*args)


@pytest.fixture
def kernels():
    """The compiled kernels; skipped only where no C compiler is found."""
    if shutil.which("cc") is None:
        pytest.skip("no C compiler (cc) on PATH")
    kernels = fkwc.compiled.load()
    assert kernels is not None, "cc is on PATH but the library did not build or load"
    return kernels


def _t1_dataset(n):
    curves = generate(ProcessModel(family="t1"), n, seed=(n, 2021))
    labels = [1] * (n // 2) + [2] * (n - n // 2)
    return FunctionalDataset(Grid(101), curves, labels)


def assert_exact(pts, qs):
    """Both count paths give the oracle's depths at ``qs`` and at the points
    themselves, each point's depth from its own row of events, whether the
    points are passed once or also as the queries."""
    want, want_own = stacked_oracle(pts, qs), stacked_oracle(pts)
    for load in (fkwc.compiled.load(), None):
        got = counted_by(load, halfspace_depth_2d, pts, qs)
        assert got.tolist() == want.tolist()
        own = counted_by(load, halfspace_depth_2d, pts)
        assert own.tobytes() == counted_by(load, halfspace_depth_2d, pts, pts).tobytes()
        assert own.tolist() == want_own.tolist()


@st.composite
def rounded_cases(draw):
    """Points rounded to one decimal, whose differences round in binary, so
    that parallel offsets get keys a few ulp apart; or points at exactly
    opposite and collinear offsets k v, k = +-1, +-2, +-3, from a base point
    on a lattice scaled by a power of two (every sum exact), the offsets'
    slopes up to 1:300.  Some zeros are signed negative.  Queried at every
    point, at the base point and at rounded points outside."""
    if draw(st.booleans()):
        tenths = st.integers(-40, 40).map(lambda v: v / 10)
        pts = np.array(draw(st.lists(st.tuples(tenths, tenths), min_size=1, max_size=24)))
        base = np.array(draw(st.tuples(tenths, tenths)))
    else:
        scale = draw(st.sampled_from([1.0, 0.5, 2.0**-30, 2.0**40]))
        base = np.array(draw(st.tuples(st.integers(-50, 50), st.integers(-50, 50))), dtype=float)
        offsets = draw(st.lists(st.tuples(st.integers(-3, 3), st.integers(-300, 300)),
                                min_size=1, max_size=5))
        ks = draw(st.lists(st.sampled_from([1, -1, 2, -2, 3, -3]), min_size=1, max_size=4))
        pts = np.array([base + k * np.array(o, dtype=float) for o in offsets for k in ks])
        pts, base = pts * scale, base * scale
    negative_zero = np.array(draw(st.lists(st.tuples(st.booleans(), st.booleans()),
                                           min_size=len(pts), max_size=len(pts))))
    pts[negative_zero & (pts == 0.0)] = -0.0
    far = st.integers(-60, 60).map(lambda v: v / 10)
    extra = np.array(draw(st.lists(st.tuples(far, far), max_size=4)), dtype=float)
    return pts, np.concatenate([pts, base[None], extra.reshape(-1, 2)])


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
    def test_equals_exact_oracle_on_lattices(self, case):
        assert_exact(*case)

    @given(rounded_cases())
    @settings(max_examples=200)
    # item 17's minimal case: exactly opposite offsets (2, -150), (-2, 150)
    @example((np.array([[3.0, -100.0], [-1.0, 200.0]]), np.array([[1.0, 50.0]])))
    def test_exact_on_rounded_opposite_and_collinear(self, case):
        assert_exact(*case)

    @pytest.mark.parametrize("n", [100, 200, 300])
    def test_primed_mfhd_equals_sweep_on_t1(self, n, monkeypatch):
        ds = _t1_dataset(n)
        spec = DepthSpec(kind="mfhd", use_derivatives=True)
        got = mfhd(ds, spec).values
        assert got.tobytes() == counted_by(None, mfhd, _t1_dataset(n), spec).values.tobytes()
        monkeypatch.setattr(fkwc.depths, "halfspace_depth_2d", stacked_sweep_reference)
        assert np.array_equal(got, mfhd(ds, spec).values)

    def test_primed_mfhd_calls_once_per_evaluation(self, monkeypatch):
        ds = _t1_dataset(40)
        calls = []

        def counting(points, queries=None):
            calls.append((points.shape, None if queries is None else queries.shape))
            return halfspace_depth_2d(points, queries)

        monkeypatch.setattr(fkwc.depths, "halfspace_depth_2d", counting)
        spec = DepthSpec(kind="mfhd", use_derivatives=True)
        mfhd(ds, spec)
        mfhd(ds, spec, queries=ds.curves[:7])
        m = ds.grid.m
        assert calls == [((m, 40, 2), None), ((m, 40, 2), (m, 7, 2))]

    @pytest.mark.parametrize("name, keys", [
        pytest.param("_HALFSPACE_BLOCK_KEYS", 1 << 14, id="16384"),
        pytest.param("_HALFSPACE_BLOCK_KEYS", 7 * 60, id="420"),
    ])
    def test_stack_equals_slices(self, name, keys, monkeypatch):
        # t-distributed slices, one on a lattice so that ties are common;
        # 1 << 14 block keys hold 273 queries' 60 events, blocks that span
        # slices, 7 x 60 only 7 queries' events
        rng = np.random.default_rng(12)
        pts = rng.standard_t(1, size=(5, 60, 2))
        pts[2] = rng.integers(-2, 3, size=(60, 2))
        qs = np.concatenate([pts[:, :9], rng.standard_t(1, size=(5, 4, 2))], axis=1)
        monkeypatch.setattr(fkwc.depths, name, keys)
        got = halfspace_depth_2d(pts, qs)
        own = halfspace_depth_2d(pts)
        assert got.shape == (5, 13) and own.shape == (5, 60)
        for t in range(5):
            assert got[t].tobytes() == halfspace_depth_2d(pts[t], qs[t]).tobytes()
            assert own[t].tobytes() == halfspace_depth_2d(pts[t]).tobytes()
        assert got.tolist() == stacked_oracle(pts, qs).tolist()
        assert own.tolist() == stacked_oracle(pts).tolist()

    def test_tied_s_in_some_rows(self):
        # about the origin, four angles of the middle slice differ but
        # s = a + 2 pi rounds them to one float, and (-1, 0), at angle pi,
        # lies between their p = a + pi; the pseudo-angle keys of the four
        # lie within 4 units, so the exact step orders them
        rng = np.random.default_rng(4)
        pts = rng.normal(size=(3, 12, 2))
        pts[1, :5] = [[1.0, 1e-17], [1.0, 2e-17], [1.0, -3e-17], [1.0, -4e-16], [-1.0, 0.0]]
        qs = np.concatenate([pts, np.zeros((3, 1, 2))], axis=1)
        a = np.arctan2(pts[1, :4, 1], pts[1, :4, 0])
        assert np.unique(a).size == 4 and np.unique(a + 2.0 * np.pi).size == 1
        assert np.unique(a + np.pi).size == 2
        assert_exact(pts, qs)

    def test_blocks_match_one_block(self):
        # 7 x 60 block keys: 7 queries' events, for outside queries and for
        # the points' own depths alike
        rng = np.random.default_rng(11)
        pts = rng.standard_t(1, size=(60, 2))
        qs = np.concatenate([pts, rng.standard_t(1, size=(13, 2))])
        whole, own = halfspace_depth_2d(pts, qs), halfspace_depth_2d(pts)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(fkwc.depths, "_HALFSPACE_BLOCK_KEYS", 7 * 60)
            assert np.array_equal(halfspace_depth_2d(pts, qs), whole)
            assert halfspace_depth_2d(pts).tobytes() == own.tobytes()
        assert np.array_equal(whole, sweep_reference(pts, qs))
        assert own.tobytes() == whole[:60].tobytes()

    @pytest.mark.parametrize("scale", [2.0**-420, 2.0**520, 2.0**1022],
                             ids=["2^-420", "2^520", "2^1022"])
    def test_outside_the_compiled_range(self, scale):
        # past the compiled predicates' range the NumPy path decides in
        # Fraction arithmetic; near 2^1023 the differences overflow and
        # every event is a near tie
        rng = np.random.default_rng(13)
        pts = rng.integers(-3, 4, size=(2, 15, 2)) * scale
        pts[1] = np.round(rng.uniform(-3.0, 3.0, size=(15, 2)), 1) * scale
        assert not fkwc.depths._in_exact_range(pts)
        want = stacked_oracle(pts / scale)
        with np.errstate(all="raise"):
            assert halfspace_depth_2d(pts).tolist() == want.tolist()

    @pytest.mark.parametrize("n", [400, 1000])
    def test_own_depths_memory_bound(self, n, kernels, traced_peak):
        # a block of events and the sweep's scratch copy of one row, then
        # 32 bytes a point for the stack of points and the depths
        pts = np.random.default_rng(n).standard_t(1, size=(3, n, 2))
        peak = traced_peak(lambda: halfspace_depth_2d(pts))
        assert peak <= 2 * 8 * fkwc.depths._HALFSPACE_BLOCK_KEYS + 32 * 3 * n

    def test_no_queries(self):
        out = halfspace_depth_2d(np.zeros((3, 2)), np.zeros((0, 2)))
        assert out.shape == (0,)

    @pytest.mark.parametrize("k", [0, 1, 4])
    def test_stacks_without_queries(self, k):
        out = halfspace_depth_2d(np.zeros((k, 3, 2)), np.zeros((k, 0, 2)))
        assert out.shape == (k, 0)

    def test_one_point_is_its_own_deepest(self):
        assert halfspace_depth_2d(np.array([[2.0, -1.0]])).tolist() == [1.0]
        assert halfspace_depth_2d(np.zeros((3, 1, 2))).tolist() == [[1.0]] * 3


CONCURRENT_BUILD = """
import os, sys, time
from pathlib import Path
import numpy as np
from fkwc import compiled, halfspace_depth_2d

ready = Path(sys.argv[1])
(ready / str(os.getpid())).touch()
deadline = time.monotonic() + 60
while len(list(ready.iterdir())) < 2 and time.monotonic() < deadline:
    time.sleep(0.001)
assert compiled.load() is not None
pts = np.random.default_rng(5).standard_t(1, size=(101, 40, 2))
sys.stdout.write(halfspace_depth_2d(pts, pts).tobytes().hex())
"""


class TestCompiledSweep:
    """The compiled library (the halfspace keys and sweep, and the ksd and
    spatial loops):
    built on first use into the cache, shared by processes that build at
    once, and replaced by the NumPy loops with the same bytes when it
    cannot be built or loaded, or lacks any of its functions."""

    @pytest.fixture
    def fresh_load(self):
        fkwc.compiled.load.cache_clear()
        yield
        fkwc.compiled.load.cache_clear()

    @staticmethod
    def _t1_slices():
        pts = np.random.default_rng(5).standard_t(1, size=(101, 40, 2))
        return pts, pts

    def test_source_compiles_without_warnings(self, tmp_path):
        cc = shutil.which("cc")
        if cc is None:
            pytest.skip("no C compiler (cc) on PATH")
        proc = subprocess.run(
            [cc, "-std=c99", "-Wall", "-Wextra", "-Werror", *fkwc.compiled.FLAGS, "-x", "c",
             "-", "-o", str(tmp_path / "compiled.so")],
            input=fkwc.compiled.SOURCE, capture_output=True, text=True, timeout=120,
        )
        assert proc.returncode == 0, proc.stderr

    def test_flags_keep_ieee_rounding_on_any_cpu(self):
        # the loops must round as NumPy's do, and the cache name knows only
        # platform.machine(), so no CPU-specific build may land in it: each
        # clone's target names a fixed level, not the building CPU
        flags = fkwc.compiled.FLAGS
        clones = fkwc.compiled.CLONES
        assert "-ffp-contract=off" in flags
        banned = {"-ffast-math", "-Ofast", "-funsafe-math-optimizations",
                  "-fassociative-math", "-march=native", "arch=native"}
        assert not banned & set(flags), flags
        assert not banned & set(clones), clones
        assert "default" in clones
        assert "target_clones(" + ", ".join(f'"{c}"' for c in clones) + ")" in \
            fkwc.compiled.SOURCE

    def test_one_table_of_loops(self):
        # each exported loop is cloned, bound and a field of Kernels: none
        # of the three lists keeps a loop the others dropped
        cloned = set(re.findall(r"^FKWC_CLONES\n[^(]*?(\w+)\(", fkwc.compiled.SOURCE, re.M))
        assert cloned
        assert cloned == set(fkwc.compiled._SIGNATURES)
        assert cloned == {"fkwc_" + f for f in fkwc.compiled.Kernels._fields}

    def test_kernel_takes_the_compiled_counts(self, kernels, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("NumPy counts ran")

        monkeypatch.setattr(fkwc.depths, "_NUMPY_LOOPS",
                            fkwc.compiled.Kernels(*[refuse] * len(fkwc.compiled.Kernels._fields)))
        pts, qs = self._t1_slices()
        assert halfspace_depth_2d(pts, qs).shape == (101, 40)
        assert halfspace_depth_2d(pts).shape == (101, 40)

    def test_library_built_on_first_use_into_the_cache(self, kernels, fresh_load, tmp_path,
                                                       monkeypatch):
        monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path))
        pts, qs = self._t1_slices()
        want = counted_by(None, halfspace_depth_2d, pts, qs).tobytes()
        assert not (tmp_path / "fkwc").exists()
        assert halfspace_depth_2d(pts, qs).tobytes() == want
        names = [f.name for f in (tmp_path / "fkwc").iterdir()]
        assert names == [fkwc.compiled.library_path().name]

    def test_concurrent_builds_share_one_library(self, kernels, tmp_path):
        cache, ready = tmp_path / "cache", tmp_path / "ready"
        ready.mkdir()
        env = dict(os.environ, XDG_CACHE_HOME=str(cache),
                   PYTHONPATH=str(Path(fkwc.__file__).parents[1]))
        procs = [subprocess.Popen([sys.executable, "-c", CONCURRENT_BUILD, str(ready)],
                                  env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                                  text=True) for _ in range(2)]
        outs = [proc.communicate(timeout=300) for proc in procs]
        for proc, (_, err) in zip(procs, outs):
            assert proc.returncode == 0, err
        pts, qs = self._t1_slices()
        want = counted_by(None, halfspace_depth_2d, pts, qs).tobytes().hex()
        assert outs[0][0] == outs[1][0] == want
        files = [f.name for f in (cache / "fkwc").iterdir()]
        assert len(files) == 1 and files[0].startswith("compiled-"), files

    @pytest.mark.parametrize("compiler", [
        "exit 1",
        'for a; do out=$a; done; echo junk > "$out"',
        'for a; do out=$a; done; PATH={path} {cc} -shared -fPIC -x c /dev/null -o "$out"',
        # the source with one function renamed: the library lacks that one
        'PATH={path} exec {cc} -Dfkwc_query_keys=fkwc_renamed "$@"',
        'PATH={path} exec {cc} -Dfkwc_halfspace_sweep=fkwc_renamed "$@"',
        'PATH={path} exec {cc} -Dfkwc_ksd_sums=fkwc_renamed "$@"',
        'PATH={path} exec {cc} -Dfkwc_spatial_sums=fkwc_renamed "$@"',
        'PATH={path} exec {cc} -Dfkwc_sq_diffs=fkwc_renamed "$@"',
    ], ids=["compiler-fails", "library-unloadable", "function-missing", "query-keys-missing",
            "halfspace-sweep-missing", "ksd-sums-missing", "spatial-sums-missing",
            "sq-diffs-missing"])
    def test_failed_build_falls_back(self, compiler, kernels, fresh_load, tmp_path,
                                     monkeypatch):
        bin_dir = tmp_path / "bin"
        bin_dir.mkdir()
        script = compiler.format(path=os.environ["PATH"], cc=shutil.which("cc"))
        (bin_dir / "cc").write_text(f"#!/bin/sh\n{script}\n")
        (bin_dir / "cc").chmod(0o755)
        monkeypatch.setenv("PATH", str(bin_dir))
        monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path / "cache"))
        pts, qs = self._t1_slices()
        assert fkwc.compiled.load() is None
        # only a build that exits 0 puts a library in place, and no build
        # leaves its temporary file behind
        built = compiler != "exit 1"
        assert fkwc.compiled.library_path().exists() == built
        assert len(list((tmp_path / "cache" / "fkwc").iterdir())) == built
        # all or none: each of the three depths runs its NumPy loop
        ran = set()

        def spy(name, fn):
            def run(*args, **kwargs):
                ran.add(name)
                return fn(*args, **kwargs)
            return run

        numpy_loops = fkwc.depths._NUMPY_LOOPS
        monkeypatch.setattr(fkwc.depths, "_NUMPY_LOOPS", numpy_loops._replace(**{
            name: spy(name, getattr(numpy_loops, name))
            for name in ("halfspace_sweep", "ksd_sums", "spatial_sums")}))
        got = halfspace_depth_2d(pts, qs)
        assert got.tobytes() == counted_by(kernels, halfspace_depth_2d, pts, qs).tobytes()
        ds = _t1_dataset(30)
        for kind in ("ksd", "spatial"):
            spec = DepthSpec(kind=kind)
            got = compute_depth(ds, spec, ds.curves).values
            assert got.tobytes() == counted_by(kernels, compute_depth, ds, spec,
                                               ds.curves).values.tobytes()
        assert ran == {"halfspace_sweep", "ksd_sums", "spatial_sums"}

    def test_damaged_cached_library_is_rebuilt(self, kernels, fresh_load, tmp_path,
                                               monkeypatch):
        monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path))
        path = fkwc.compiled.library_path()
        path.parent.mkdir()
        path.write_text("junk")
        pts, qs = self._t1_slices()
        want = counted_by(None, halfspace_depth_2d, pts, qs).tobytes()
        assert fkwc.compiled.load() is not None

        def refuse(*args, **kwargs):
            raise AssertionError("NumPy counts ran")

        monkeypatch.setattr(fkwc.depths, "_NUMPY_LOOPS",
                            fkwc.compiled.Kernels(*[refuse] * len(fkwc.compiled.Kernels._fields)))
        assert halfspace_depth_2d(pts, qs).tobytes() == want
        assert [f.name for f in path.parent.iterdir()] == [path.name]

    def test_unwritable_cache_falls_back(self, kernels, fresh_load, tmp_path, monkeypatch):
        blocker = tmp_path / "file"
        blocker.write_text("")
        monkeypatch.setenv("XDG_CACHE_HOME", str(blocker / "cache"))
        pts, qs = self._t1_slices()
        assert fkwc.compiled.load() is None
        want = counted_by(kernels, halfspace_depth_2d, pts, qs).tobytes()
        assert halfspace_depth_2d(pts, qs).tobytes() == want


def layout_cases(n):
    """One slice of n points on a small lattice, with (0, 0), (1, 0) and
    (-1, 2^-50) first: directions of key 0 (horizontal), of the top key
    (coincident pairs, from n = 1,024) and of a capped key (from (0, 0) to
    (-1, 2^-50)); queries at (0, 0), the top key, at (-1, 0), key 0, and
    at (1, -2^-50), capped.  As (1, 2, n) and (1, 2, 3) stacks, with the
    key width ``bits``."""
    rng = np.random.default_rng(n)
    pts = np.vstack([[(0.0, 0.0), (1.0, 0.0), (-1.0, 2.0**-50)],
                     rng.integers(-3, 4, size=(max(n - 3, 0), 2))])[:n]
    qs = np.array([(0.0, 0.0), (-1.0, 0.0), (1.0, -(2.0**-50))])
    bits = 2 * max(10, (n - 1).bit_length()) + 1
    return pts.T[None].copy(), qs.T[None].copy(), bits


def assert_positive_normal_doubles(events, bits, keys):
    """Each event, read as a double, is positive and normal, and a row
    sorted as doubles is the row sorted as uint64; ``keys`` names the keys
    that must occur: 0, "top" or "capped"."""
    as_float = events.view(np.float64)
    assert np.isfinite(as_float).all()
    assert (as_float >= np.finfo(np.float64).smallest_normal).all()
    assert (np.sort(as_float, axis=1).view(np.uint64) == np.sort(events, axis=1)).all()
    kmax = (1 << (61 - bits)) - 1
    seen = set((events >> np.uint64(bits) & np.uint64(kmax)).ravel().tolist())
    assert {{0: 0, "top": kmax, "capped": kmax - 1}[k] for k in keys} <= seen


class TestEventLayout:
    """The events of ``mfhd'``, from the compiled keys and from the NumPy
    ones, read as doubles, are positive and normal, so that their rows sort
    as doubles in the order of their bits."""

    @pytest.mark.parametrize("n", [1, 2, 1024, 1025])
    def test_compiled_events(self, n, kernels):
        pts, qs, bits = layout_cases(n)
        own = np.empty((n, n), dtype=np.uint64)
        kernels.query_keys(pts, pts, 0, n, bits, own)
        cells = np.empty((qs.shape[2], n), dtype=np.uint64)
        kernels.query_keys(pts, qs, 0, cells.shape[0], bits, cells)
        # each point's own event is coincident, of the top key; two points
        # add a horizontal pair, of key 0
        own_keys = ["top"] if n == 1 else ["top", 0] if n == 2 else [0, "top", "capped"]
        assert_positive_normal_doubles(own, bits, own_keys)
        assert_positive_normal_doubles(cells, bits, [0, "top", "capped"])

    @pytest.mark.parametrize("n", [1, 2, 1024, 1025])
    def test_numpy_events(self, n):
        pts, qs, bits = layout_cases(n)
        cells = np.empty((qs.shape[2], n), dtype=np.uint64)
        fkwc.depths._NUMPY_LOOPS.query_keys(pts, qs, 0, cells.shape[0], bits, cells)
        assert_positive_normal_doubles(cells, bits, [0, "top", "capped"])


# the CPU features of each x86-64 level past the baseline, by their names
# in /proc/cpuinfo (abm is lzcnt)
_V3_FEATURES = ("cx16", "lahf_lm", "popcnt", "sse4_1", "sse4_2", "ssse3", "avx", "avx2", "bmi1",
                "bmi2", "f16c", "fma", "abm", "movbe", "xsave")
LEVEL_FEATURES = {
    "x86-64": (),
    "x86-64-v3": _V3_FEATURES,
    "x86-64-v4": _V3_FEATURES + ("avx512f", "avx512bw", "avx512cd", "avx512dq", "avx512vl"),
}


def _cpu_features() -> set:
    with open("/proc/cpuinfo") as fh:
        for line in fh:
            if line.startswith("flags"):
                return set(line.split(":", 1)[1].split())
    return set()


def level_outputs(kernels) -> dict:
    """The bytes the compiled functions but ``sq_diffs`` write on fixed t1
    and lattice inputs: the keys of the points' own rows and of outside
    queries, their sweeps (the ordered events too), and the ksd and spatial
    sums."""
    rng = np.random.default_rng(31)
    out = {}
    for name, pts, qs in (
            ("t1", rng.standard_t(1, size=(6, 2, 40)), rng.standard_t(1, size=(6, 2, 9))),
            ("lattice", rng.integers(-2, 3, size=(6, 2, 40)).astype(float),
             rng.integers(-2, 3, size=(6, 2, 9)).astype(float))):
        k, _, n = pts.shape
        bits = 2 * max(10, (n - 1).bit_length()) + 1
        own = np.empty((k * n, n), dtype=np.uint64)
        kernels.query_keys(pts, pts, 0, own.shape[0], bits, own)
        cells = np.empty((k * qs.shape[2], n), dtype=np.uint64)
        kernels.query_keys(pts, qs, 0, cells.shape[0], bits, cells)
        out[name, "keys"] = own.tobytes() + cells.tobytes()
        for label, ev, q in (("own", own, pts), ("queries", cells, qs)):
            depths = np.empty((k, q.shape[2]))
            ev.sort(axis=1)
            kernels.halfspace_sweep(ev, pts, q, 0, bits, depths)
            out[name, label] = ev.tobytes() + depths.tobytes()
        grid = Grid(21)
        sample = rng.standard_t(1, size=(30, 21))
        if name == "lattice":
            sample = np.round(sample)
            sample[20:] = sample[:10]  # duplicates: ksd's gather
        queries = np.vstack([sample[:5], rng.standard_t(1, size=(4, 21))])
        gram = fkwc.depths._gaussian_gram(fkwc.depths._pairwise_sq_dists(sample, sample, grid),
                                          7.0)
        d2 = fkwc.depths._pairwise_sq_dists(queries, sample, grid)
        gq = fkwc.depths._gaussian_gram(d2, 7.0)
        out[name, "ksd"] = kernels.ksd_sums(gram, gram).tobytes() + \
            kernels.ksd_sums(gram, gq).tobytes()
        out[name, "spatial"] = kernels.spatial_sums(sample, queries, d2).tobytes()
    return out


class TestCpuLevels:
    """The compiled loops write the same bytes built for each x86-64 level
    the library is cloned for, one level at a time, as the cloned library
    that the loader resolved for this CPU: IEEE operations round alike at
    every vector width, and no flag lets GCC reorder them."""

    @pytest.mark.parametrize("level", list(LEVEL_FEATURES))
    def test_same_bytes_at_every_level(self, level, kernels, tmp_path):
        if platform.machine() != "x86_64":
            pytest.skip(f"x86-64 levels, on {platform.machine()}")
        try:
            features = _cpu_features()
        except OSError:
            pytest.skip("no /proc/cpuinfo to read the CPU's features from")
        missing = [f for f in LEVEL_FEATURES[level] if f not in features]
        if missing:
            pytest.skip(f"this CPU lacks {missing[0]}, which {level} needs")
        path = tmp_path / f"{level}.so"
        proc = subprocess.run(
            [shutil.which("cc"), *fkwc.compiled.FLAGS, f"-march={level}", "-DFKWC_CLONES=",
             "-x", "c", "-", "-o", str(path)],
            input=fkwc.compiled.SOURCE, capture_output=True, text=True, timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        got, want = level_outputs(fkwc.compiled.bind(path)), level_outputs(kernels)
        assert list(got) == list(want)
        for key in want:
            assert got[key] == want[key], key


class TestCpuLevelsOfBlockLoops:
    """The compiled squared differences and the sample's own spatial sums
    (each pair formed once where its two distances agree), which
    ``level_outputs`` does not reach, write the same bytes built for each
    x86-64 level as the cloned library."""

    @pytest.mark.parametrize("level", list(LEVEL_FEATURES))
    def test_same_bytes_at_every_level(self, level, kernels, tmp_path):
        if platform.machine() != "x86_64":
            pytest.skip(f"x86-64 levels, on {platform.machine()}")
        try:
            missing = [f for f in LEVEL_FEATURES[level] if f not in _cpu_features()]
        except OSError:
            pytest.skip("no /proc/cpuinfo to read the CPU's features from")
        if missing:
            pytest.skip(f"this CPU lacks {missing[0]}, which {level} needs")
        path = tmp_path / f"{level}.so"
        proc = subprocess.run(
            [shutil.which("cc"), *fkwc.compiled.FLAGS, f"-march={level}", "-DFKWC_CLONES=",
             "-x", "c", "-", "-o", str(path)],
            input=fkwc.compiled.SOURCE, capture_output=True, text=True, timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        rng = np.random.default_rng(35)
        t1 = rng.standard_t(1, size=(35, 21))
        for sample in (t1, np.round(t1)):
            d2 = fkwc.depths._pairwise_sq_dists(sample, sample, Grid(21))
            outs = []
            for lib in (fkwc.compiled.bind(path), kernels):
                diffs = np.empty((35, 35, 21))
                lib.sq_diffs(sample, sample, 0, 35, diffs)
                outs.append(diffs.tobytes() + lib.spatial_sums(sample, sample, d2).tobytes())
            assert outs[0] == outs[1]


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
