"""Functional data depths and depth-based ranking of pooled samples.

Six depth families are provided, each with a derivative-augmented variant:

* ``ltr``      L2-root depth; its ranks reduce to ranks of squared norms
* ``rp``       random projection depth (mid-rank CDF score per direction)
* ``mfhd``     integrated halfspace depth (bivariate Tukey when primed)
* ``mbd``      modified band depth over curve pairs
* ``spatial``  functional spatial depth
* ``ksd``      kernelized spatial depth (Gaussian kernel, median heuristic)

Every computation is a pure function of (dataset, spec); randomness
(projection directions, tie-breaking) is drawn from generators derived
deterministically from the spec seed, so results do not depend on
evaluation order or thread count.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .exceptions import DataError, ParameterError
from .fdata import FunctionalDataset

MEDIAN_HEURISTIC = "median-heuristic"


def derive_rng(seed: int, *key: int) -> np.random.Generator:
    """Deterministic child generator for (seed, key...) streams."""
    return np.random.default_rng(np.random.SeedSequence([int(seed) & (2**64 - 1), *key]))


def derive_seed(seed: int, *key: int) -> int:
    """Deterministic 63-bit child seed for (seed, key...)."""
    ss = np.random.SeedSequence([int(seed) & (2**64 - 1), *key])
    return int(ss.generate_state(1, np.uint64)[0] >> 1)


@dataclass(frozen=True)
class DepthSpec:
    """Which depth to compute and its options.

    ``kernel_bandwidth`` is the squared bandwidth sigma^2 of the Gaussian
    kernel exp(-||x-z||^2 / sigma^2) used by ``ksd``; the default estimates
    it as the median of pairwise squared distances.
    """

    kind: str = "ltr"
    use_derivatives: bool = False
    num_projections: int = 20
    band_order: int = 2
    channel_weights: tuple = (0.5, 0.5)
    kernel_bandwidth: object = MEDIAN_HEURISTIC
    rng_seed: int = 0

    def __post_init__(self):
        if self.kind not in DEPTH_KERNELS:
            raise ParameterError(
                f"unknown depth kind {self.kind!r}; expected one of {tuple(DEPTH_KERNELS)}"
            )
        if self.num_projections < 1:
            raise ParameterError("num_projections must be >= 1")
        if self.band_order < 2:
            raise ParameterError("band_order must be >= 2")
        w = np.asarray(self.channel_weights, dtype=float)
        if w.ndim != 1 or w.size != 2 or not np.all((w >= 0) & np.isfinite(w)):
            raise ParameterError("channel_weights must be two finite nonnegative reals")
        if abs(w.sum() - 1.0) > 1e-12:
            raise ParameterError(f"channel_weights must sum to 1, got {w.sum()!r}")
        object.__setattr__(self, "channel_weights", (float(w[0]), float(w[1])))
        bw = self.kernel_bandwidth
        if isinstance(bw, str):
            if bw != MEDIAN_HEURISTIC:
                raise ParameterError(
                    f"kernel_bandwidth must be positive or {MEDIAN_HEURISTIC!r}, got {bw!r}"
                )
        elif not (isinstance(bw, (int, float)) and 0 < bw < math.inf):
            raise ParameterError(f"kernel_bandwidth must be positive and finite, got {bw!r}")

    @property
    def label(self) -> str:
        return self.kind + ("'" if self.use_derivatives else "")


@dataclass(frozen=True)
class DepthVector:
    """Depth values for the curves they were evaluated on."""

    values: np.ndarray
    spec: DepthSpec

    def __post_init__(self):
        vals = np.asarray(self.values, dtype=float)
        if not np.all(np.isfinite(vals)):
            raise DataError("depth values must be finite")
        vals = vals.copy()
        vals.setflags(write=False)
        object.__setattr__(self, "values", vals)


@dataclass(frozen=True)
class RankVector:
    """A permutation of 1..N obtained by ranking depths ascending
    (rank N = deepest), random ties broken."""

    ranks: np.ndarray
    tie_breaks_applied: int

    def __post_init__(self):
        ranks = np.asarray(self.ranks, dtype=int)
        n = ranks.size
        if not np.array_equal(np.sort(ranks), np.arange(1, n + 1)):
            raise DataError("ranks must form a permutation of 1..N")
        ranks = ranks.copy()
        ranks.setflags(write=False)
        object.__setattr__(self, "ranks", ranks)


# ---------------------------------------------------------------------------
# channel plumbing
# ---------------------------------------------------------------------------

def _channels(ds: FunctionalDataset, use_derivatives: bool, queries):
    """Sample/query value matrices per channel (curves, then derivatives).

    ``queries`` may be None (evaluate the sample curves themselves), another
    dataset on the same grid, or a raw array of curve values, which becomes
    a one-group dataset on the sample's grid.
    """
    if queries is None:
        queries = ds
    elif not isinstance(queries, FunctionalDataset):
        q_curves = np.atleast_2d(np.asarray(queries, dtype=float))
        queries = FunctionalDataset(ds.grid, q_curves, np.ones(q_curves.shape[0], dtype=int))
    if queries.grid != ds.grid:
        raise DataError("query grid does not match sample grid")
    chans = [(ds.curves, queries.curves)]
    if use_derivatives:
        chans.append((ds.derivatives, queries.derivatives))
    return chans


def _channel_depth(ds, spec, queries, channel_fn, *args) -> DepthVector:
    """``channel_fn(sample, queries, w, *args)`` on the curves; primed, the
    average w0 * (curve depth) + w1 * (derivative depth) with the spec's
    channel weights."""
    chans = _channels(ds, spec.use_derivatives, queries)
    w = ds.grid.trapezoid_weights
    vals = channel_fn(*chans[0], w, *args)
    if spec.use_derivatives:
        w0, w1 = spec.channel_weights
        vals = w0 * vals
        vals += w1 * channel_fn(*chans[1], w, *args)
    return DepthVector(vals, spec)


def _strict_counts(sample, qs):
    """Per column (grid point or direction), the numbers of sample values
    strictly below and strictly above each query value."""
    n, m = sample.shape
    below = np.empty((qs.shape[0], m))
    above = np.empty((qs.shape[0], m))
    for t in range(m):
        col = np.sort(sample[:, t])
        below[:, t] = np.searchsorted(col, qs[:, t], side="left")
        above[:, t] = n - np.searchsorted(col, qs[:, t], side="right")
    return below, above


# ---------------------------------------------------------------------------
# L2-root depth
# ---------------------------------------------------------------------------

def _mean_sq_distance(sample, queries, w):
    """mean_j ||q - X_j||^2 for every query q, via the expanded form."""
    sq_s = (sample * sample) @ w
    sq_q = (queries * queries) @ w
    xbar = sample.mean(axis=0)
    cross = queries @ (w * xbar)
    out = sq_q - 2.0 * cross + sq_s.mean()
    return np.maximum(out, 0.0)


def ltr_depth(ds: FunctionalDataset, spec: DepthSpec | None = None, queries=None) -> DepthVector:
    """L2-root depth against the pooled empirical sample (``spec`` defaults
    to ``DepthSpec()``).

    Primed, the per-channel root mean squared distances are averaged:
    D = (1 + (1/c) sum_k sqrt(mean_j ||x^(k)-X_j^(k)||^2))^-1 over the c
    channels, values in (0, 1].
    """
    spec = spec or DepthSpec()
    chans = _channels(ds, spec.use_derivatives, queries)
    w = ds.grid.trapezoid_weights
    total = np.zeros(chans[0][1].shape[0])
    for sample, qs in chans:
        total += np.sqrt(_mean_sq_distance(sample, qs, w))
    return DepthVector(1.0 / (1.0 + total / len(chans)), spec)


# ---------------------------------------------------------------------------
# random projection depth
# ---------------------------------------------------------------------------

def _rp_directions(w: np.ndarray, count: int, rng) -> np.ndarray:
    """Random unit-norm direction curves: white noise smoothed with a
    5-point moving average, then normalized in L2 under the quadrature
    weights ``w``."""
    m = w.size
    raw = rng.standard_normal((count, m))
    kernel = np.full(5, 0.2)
    smooth = np.empty_like(raw)
    for i in range(count):
        # the centred m values of the full convolution; mode="same" returns
        # max(m, 5) values, too many on a 3- or 4-point grid
        smooth[i] = np.convolve(raw[i], kernel)[2:2 + m]
    norms = np.sqrt((smooth * smooth) @ w)
    norms[norms == 0.0] = 1.0
    return smooth / norms[:, None]


def rp_depth(ds: FunctionalDataset, spec: DepthSpec, queries=None) -> DepthVector:
    """Random projection depth: F_u(z)(1 - F_u(z)) averaged over seeded
    unit-norm directions u, with the mid-rank empirical CDF.

    Primed, each direction scores the (curve, derivative) projections with
    a product-Gaussian kernel density estimate over the d coordinates with
    spread (Scott bandwidths, n^(-1/(4+d)) per coordinate); none left
    scores 1.  Only the ranks of the resulting values are meaningful.
    """
    chans = _channels(ds, spec.use_derivatives, queries)
    w = ds.grid.trapezoid_weights
    dirs = _rp_directions(w, spec.num_projections, derive_rng(spec.rng_seed, 0))
    if not spec.use_derivatives:
        sample, qs = chans[0]
        n = sample.shape[0]
        below, above = _strict_counts(sample @ (dirs * w).T, qs @ (dirs * w).T)
        f = (below + 0.5 * (n - above - below)) / n  # mid-rank CDF per direction
        depth = np.zeros(qs.shape[0])
        for k in range(spec.num_projections):
            depth += f[:, k] * (1.0 - f[:, k])
        return DepthVector(depth / spec.num_projections, spec)
    n = ds.n_curves
    depth = np.zeros(chans[0][1].shape[0])
    # identical sample rows (a single row too) leave a channel without spread
    # in every direction; the per-direction test below also drops projections
    # whose spread is at rounding level (blocked matmuls perturb identical
    # rows by ulps)
    varying = [(s, q) for s, q in chans if not np.all(s == s[0])]
    for k in range(spec.num_projections):
        u = dirs[k] * w
        live = [(s @ u, q @ u) for s, q in varying]
        live = [(zs, zq) for zs, zq in live if np.ptp(zs) > 1e-12 * max(np.abs(zs).max(), 1e-300)]
        if not live:
            depth += 1.0
            continue
        # (2 pi)^(d/2) h_1 ... h_d, the d-variate product-Gaussian normaliser
        norm = math.sqrt(2.0 * math.pi) if len(live) == 1 else 2.0 * math.pi
        sq = None
        for zs, zq in live:
            h = zs.std(ddof=1) * n ** (-1.0 / (4 + len(live)))
            diff = zq[:, None] - zs[None, :]
            diff /= h
            diff *= diff
            sq = diff if sq is None else np.add(sq, diff, out=sq)
            norm *= h
        sq *= -0.5
        np.exp(sq, out=sq)
        depth += sq.mean(axis=1) / norm
    return DepthVector(depth / spec.num_projections, spec)


# ---------------------------------------------------------------------------
# integrated (multivariate functional) halfspace depth
# ---------------------------------------------------------------------------

# queries x points per block of halfspace_depth_2d.  Its temporaries peak at
# about 120 bytes a cell (2 MB a block); blocks of 65,536 cells ran about
# 1.7x slower per cell at n = 200 and 400.  A 100 x 100 slice is one block.
_HALFSPACE_BLOCK_CELLS = 1 << 14


def halfspace_depth_2d(points: np.ndarray, queries: np.ndarray) -> np.ndarray:
    """Exact bivariate Tukey depth of each query against ``points``.

    ``points`` (n, 2) and ``queries`` (q, 2) give the q depths; stacks of
    k such slices, (k, n, 2) and (k, q, 2), give (k, q), slice t of the
    queries against slice t of the points.

    Rotating-line formulation (Rousseeuw & Ruts, AS 307, 1996): with the
    query at the origin, the minimal closed-halfplane count is n minus the
    largest number of the K nonzero direction angles in a half-open arc
    (b, b + pi], scanned at the 2K arcs that start or end at an angle.
    All queries of a block are swept at once.  Per query, with a the
    sorted angles, p = fl(a + pi) and s = fl(a + 2 pi):

    * X_j = #{a <= p_j} + #{s <= p_j};
    * Y_j = #{a <= a_j} + #{s <= a_j}, the end of a_j's run of ties (plus
      the s that equal pi when a_j = pi, possible only when some a = -pi);
      X_j - Y_j is only needed at those run ends, where Y_j = j + 1;
    * Z_j = K + #{s <= s_j}, K plus the end of s_j's run of ties;

    and the depth is (n - max_j max(X_j - Y_j, Z_j - X_j)) / n.  These
    compare the same floats as the per-query sweep, so the counts are
    identical to it.  X is a batched right-sided search: every comparison
    behind it is between non-negative floats (a negative a is below every
    p), whose bit patterns sort like their values, so one row-wise sort of
    ``bits << 1 | tag`` keys, the tag putting a sample angle before a p it
    equals, places each p after exactly X of them.

    Cost: O(k q n log n) time in a fixed number of NumPy calls per block of
    at most ``_HALFSPACE_BLOCK_CELLS`` query-point pairs of one slice (one
    block for q = n = 100), against about 15 calls per query for a sweep
    one query at a time; O(block) memory.  Shapes and finiteness are
    checked once per call, and every block sorts its keys in one buffer
    allocated once per call.
    """
    pts = np.asarray(points, dtype=float)
    qs = np.asarray(queries, dtype=float)
    if pts.ndim == qs.ndim == 2:
        return halfspace_depth_2d(pts[None], qs[None])[0]
    if (pts.ndim != 3 or qs.ndim != 3 or pts.shape[::2] != qs.shape[::2]
            or pts.shape[1] < 1 or pts.shape[2] != 2):
        raise DataError(f"points and queries must have shapes ([k,] n >= 1, 2) and "
                        f"([k,] q, 2), got {pts.shape} and {qs.shape}")
    if not (np.isfinite(pts).all() and np.isfinite(qs).all()):
        raise DataError("points and queries must be finite")
    k, n, _ = pts.shape
    q = qs.shape[1]
    # (k, 2, n) and (k, 2, q): a block's differences then come from
    # contiguous rows, about 5x faster than from the interleaved pairs
    pts, qs = (np.ascontiguousarray(a.transpose(0, 2, 1)) for a in (pts, qs))
    rows = max(1, min(q, _HALFSPACE_BLOCK_CELLS // n))
    keys = np.empty((rows, 3 * n))
    out = np.empty((k, q))
    for t in range(k):
        for lo in range(0, q, rows):
            out[t, lo:lo + rows] = _halfspace_block(pts[t], qs[t, :, lo:lo + rows], keys)
    return out


def _halfspace_block(pts: np.ndarray, qs: np.ndarray, buf: np.ndarray) -> np.ndarray:
    """Depths of the q queries ``qs`` (2, q) against the points ``pts``
    (2, n); the first q rows of ``buf``, (rows >= q, 3 n) floats, hold the
    keys."""
    dx, dy = pts[:, None, :] - qs[:, :, None]
    q, n = dx.shape
    coincident = (dx == 0.0) & (dy == 0.0)
    a = np.arctan2(dy, dx)
    a[coincident] = np.inf  # no angle: sorts after the K real ones
    a.sort(axis=1)
    # s is written where the keys are sorted below, so Z is taken first
    keys = buf[:q]
    s = np.add(a, 2.0 * np.pi, out=keys[:, n:2 * n])
    counts = np.arange(1, n + 1)
    # Z_j = K + #{s <= s_j}, carried back from the end of s_j's run of ties
    run_end = np.empty((q, n), dtype=bool)
    np.not_equal(s[:, 1:], s[:, :-1], out=run_end[:, :-1])
    run_end[:, -1] = True
    z = np.minimum.accumulate(np.where(run_end, counts, n)[:, ::-1], axis=1)[:, ::-1]
    z += n - np.count_nonzero(coincident, axis=1)[:, None]
    # X: a clipped at 0 stays below every p; the shift drops the sign bit,
    # so a -0.0 keys as 0, and tag 1 marks the p
    np.maximum(a, 0.0, out=keys[:, :n])
    np.add(a, np.pi, out=keys[:, 2 * n:])
    bits = keys.view(np.uint64)
    bits <<= np.uint64(1)
    bits[:, 2 * n:] |= np.uint64(1)
    bits.sort(axis=1)
    bits &= np.uint64(1)
    # flatnonzero of a bool array: about 4x faster than of the uint64 one
    tagged = np.flatnonzero(bits.astype(bool)).reshape(q, n)
    x = tagged - (3 * n * np.arange(q)[:, None] + np.arange(n))
    # ties of a_j share X_j, so X_j - Y_j peaks at the end of their run,
    # where Y_j = j + 1; the +inf padding ends no run
    np.not_equal(a[:, 1:], a[:, :-1], out=run_end[:, :-1])
    run_end[:, -1] = a[:, -1] < np.inf
    first = np.where(run_end, x - counts, 0)
    # s_i = pi exactly when a_i = -pi, and then s_i <= a_j for a_j = pi
    if (a[:, 0] == -np.pi).any():
        first -= (a == np.pi) * np.count_nonzero(a == -np.pi, axis=1)[:, None]
    return (n - np.maximum(first, z - x).max(axis=1)) / n


def mfhd(ds: FunctionalDataset, spec: DepthSpec, queries=None) -> DepthVector:
    """Halfspace depth at each grid point, integrated over [0, 1].

    Unprimed: univariate depth min(#below, #above)/N per point.  Primed:
    exact bivariate Tukey depth of the (value, derivative) pairs, all m
    grid points in one :func:`halfspace_depth_2d` call on (m, N, 2) and
    (m, q, 2) stacks.
    """
    chans = _channels(ds, spec.use_derivatives, queries)
    sample, qs = chans[0]
    w = ds.grid.trapezoid_weights
    if not spec.use_derivatives:
        n = sample.shape[0]
        below, above = _strict_counts(sample, qs)
        return DepthVector((np.minimum(n - above, n - below) / n) @ w, spec)
    # the (value, derivative) pairs of each grid point: (m, N, 2) and (m, q, 2)
    pts, qpts = (np.stack((c.T, d.T), axis=2) for c, d in zip(*chans))
    hd = halfspace_depth_2d(pts, qpts)
    # a C-contiguous (q, m) copy: a transposed view takes another gemv path
    return DepthVector(np.ascontiguousarray(hd.T) @ w, spec)


# ---------------------------------------------------------------------------
# modified band depth
# ---------------------------------------------------------------------------

def _falling_comb(a: np.ndarray, k: int) -> np.ndarray:
    """C(a, k) elementwise for integer arrays, as floats (0 where a < k)."""
    out = np.ones_like(a, dtype=float)
    for i in range(k):
        out *= np.maximum(a - i, 0)
    return out / math.factorial(k)


def _mbd_channel(sample, qs, w, order: int) -> np.ndarray:
    """Sum over k=2..order of the expected in-band time fraction, where
    bands are delimited by k-subsets of sample curves (weak inequalities,
    own pairings included when the query is in the sample)."""
    n = sample.shape[0]
    strictly_below, strictly_above = _strict_counts(sample, qs)
    depth = np.zeros(qs.shape[0])
    for k in range(2, order + 1):
        total = math.comb(n, k)
        if total == 0:
            continue
        outside = _falling_comb(strictly_below, k) + _falling_comb(strictly_above, k)
        depth += (1.0 - outside / total) @ w
    return depth


def mbd(ds: FunctionalDataset, spec: DepthSpec, queries=None) -> DepthVector:
    """Modified band depth; the primed variant averages the curve and
    derivative channel depths with the spec's channel weights."""
    return _channel_depth(ds, spec, queries, _mbd_channel, spec.band_order)


# ---------------------------------------------------------------------------
# spatial and kernelized spatial depth
# ---------------------------------------------------------------------------

def _spatial_channel(sample, qs, w) -> np.ndarray:
    """1 - || mean_j s(q - X_j) || with s the unit map, s(0) = 0."""
    n = sample.shape[0]
    out = np.empty(qs.shape[0])
    for i in range(qs.shape[0]):
        diff = qs[i][None, :] - sample
        norms = np.sqrt((diff * diff) @ w)
        keep = norms > 0.0
        mean_vec = (diff[keep] / norms[keep, None]).sum(axis=0) / n
        out[i] = 1.0 - math.sqrt(max(float((mean_vec * mean_vec) @ w), 0.0))
    return out


def spatial_depth(ds: FunctionalDataset, spec: DepthSpec, queries=None) -> DepthVector:
    """Functional spatial depth; primed variant is the weighted average of
    the per-channel depths."""
    return _channel_depth(ds, spec, queries, _spatial_channel)


def _pairwise_sq_dists(a, b, w) -> np.ndarray:
    # direct differences: identical curves yield exactly zero, which the
    # s(0) = 0 convention relies on
    out = np.empty((a.shape[0], b.shape[0]))
    for i in range(a.shape[0]):
        diff = a[i][None, :] - b
        out[i] = (diff * diff) @ w
    return out


def _ksd_channel(sample, qs, w, bandwidth) -> np.ndarray:
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
    dist = np.sqrt(np.maximum(2.0 - 2.0 * gram_qs, 0.0))
    keep = dist > 0.0
    kept = np.count_nonzero(keep, axis=1)
    # Each query's (k, k) matrix is built in two reused buffers: a fancy-index
    # gather of gram_ss costs about 8x its slice copies at N = 300.  The
    # query drops the sample curves at distance 0: none for an outside
    # query, one (itself) for a sample curve, more only for duplicates,
    # which keep the gather.  Every element takes the same float operations
    # as ((1 - g_j) - g_l + G_jl) / (d_j d_l), and the sum runs over a
    # contiguous (k, k) view, so NumPy's pairwise summation, and with it
    # every bit of the depth, is that of a freshly allocated matrix.
    inner_buf = np.empty(n * n)
    tmp_buf = np.empty(n * n)
    out = np.empty(qs.shape[0])
    for i in range(qs.shape[0]):
        k = int(kept[i])
        if k == 0:
            out[i] = 1.0
            continue
        ki = keep[i]
        inner = inner_buf[:k * k].reshape(k, k)
        if k >= n - 1:
            # the one dropped curve, or none: then j = n and the first
            # slice is all of gram_ss, the other three empty
            j = int(np.argmin(ki)) if k < n else n
            inner[:j, :j] = gram_ss[:j, :j]
            inner[:j, j:] = gram_ss[:j, j + 1:]
            inner[j:, :j] = gram_ss[j + 1:, :j]
            inner[j:, j:] = gram_ss[j + 1:, j + 1:]
        else:
            inner[...] = gram_ss[np.ix_(ki, ki)]
        g = gram_qs[i][ki]
        dk = dist[i][ki]
        tmp = tmp_buf[:k * k].reshape(k, k)
        np.subtract(1.0 - g[:, None], g[None, :], out=tmp)
        inner += tmp
        np.multiply(dk[:, None], dk[None, :], out=tmp)
        inner /= tmp
        out[i] = 1.0 - math.sqrt(max(inner.sum(), 0.0)) / n
    return out


def ksd_depth(ds: FunctionalDataset, spec: DepthSpec, queries=None) -> DepthVector:
    """Kernelized spatial depth with the Gaussian kernel, evaluated through
    the kernel trick; primed variant averages per-channel depths."""
    return _channel_depth(ds, spec, queries, _ksd_channel, spec.kernel_bandwidth)


# ---------------------------------------------------------------------------
# dispatch and ranking
# ---------------------------------------------------------------------------

# kind -> fn(ds, spec, queries); the order is the one --help and errors show
DEPTH_KERNELS = {
    "ltr": ltr_depth,
    "rp": rp_depth,
    "mfhd": mfhd,
    "mbd": mbd,
    "spatial": spatial_depth,
    "ksd": ksd_depth,
}


def compute_depth(ds: FunctionalDataset, spec: DepthSpec, queries=None) -> DepthVector:
    """Evaluate the depth described by ``spec`` for every curve of
    ``queries`` (default: the dataset itself) against the pooled sample."""
    return DEPTH_KERNELS[spec.kind](ds, spec, queries)


def depth_sort_keys(ds: FunctionalDataset, spec: DepthSpec) -> np.ndarray:
    """Values whose ascending order is the depth-rank order (rank N =
    deepest).

    ``ltr`` ranks by norms instead of estimating depths: its keys are the
    negated squared L2 norms, whose ascending order matches ascending
    unprimed ``ltr_depth`` ranks on centered data, or, primed, the negated
    sums of the curve and derivative channel norms.  The primed keys are
    not order-equivalent to primed ``ltr_depth``, even on centered data:
    that depth sums sqrt(a + c0) + sqrt(b + c1) over the squared channel
    norms a, b with centering constants c0, c1.  With c0 = c1 = 1,
    (a, b) = (1, 4) and (2.25, 2.25) tie here (3 = 3) but give 3.650 and
    3.606 under the depth.  :func:`fkwc.power.mc_rank_prob` ranks its
    draws with these keys, so pairwise power predictions describe them.
    """
    if spec.kind != "ltr":
        return compute_depth(ds, spec).values
    w = ds.grid.trapezoid_weights
    sq = [(c * c) @ w for c, _ in _channels(ds, spec.use_derivatives, None)]
    if not spec.use_derivatives:
        return -sq[0]
    return -(np.sqrt(sq[0]) + np.sqrt(sq[1]))


def ranks_with_tiebreak(keys, seed: int) -> RankVector:
    """Ranks 1..N of ``keys`` ascending; exact ties are ordered by a seeded
    uniform shuffle, so every tied entry is equally likely to come first.
    NaN keys have no place in the order and are refused; +-inf keys rank
    and tie like any other value."""
    keys = np.asarray(keys, dtype=float)
    if np.isnan(keys).any():
        raise DataError("depth sort keys must not be NaN")
    n = keys.size
    order = np.argsort(keys, kind="stable")
    # equal keys sit next to each other in sorted order: each equal
    # neighbour is one curve placed by the tie-break
    ordered = keys[order]
    ties = int(np.count_nonzero(ordered[1:] == ordered[:-1]))
    if ties:  # untied keys order themselves: the shuffle is drawn only for ties
        order = np.lexsort((derive_rng(seed, 1).permutation(n), keys))
    ranks = np.empty(n, dtype=int)
    ranks[order] = np.arange(1, n + 1)
    return RankVector(ranks, ties)


def depth_ranks(ds: FunctionalDataset, spec: DepthSpec) -> RankVector:
    """Ranks 1..N of the pooled sample by ascending depth (rank N =
    deepest), exact ties broken by a seeded uniform shuffle."""
    return ranks_with_tiebreak(depth_sort_keys(ds, spec), spec.rng_seed)
