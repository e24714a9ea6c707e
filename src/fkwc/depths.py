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

import functools
import math
from dataclasses import dataclass

import numpy as np

from . import compiled
from .exceptions import DataError, ParameterError
from .fdata import FunctionalDataset, Grid

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
            raise ParameterError(f"channel_weights must sum to 1, got {float(w.sum())!r}")
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


def _channel_depth(ds, spec, queries, channel_fn, *args, shared=None) -> DepthVector:
    """``channel_fn(sample, queries, grid, *args)`` on the curves; primed, the
    average w0 * (curve depth) + w1 * (derivative depth) with the spec's
    channel weights.

    Without ``queries`` each channel's values are kept on the dataset, keyed
    by (channel_fn, channel index, args), so a primed spec reads the curve
    channel its plain spec computed: the same array, so the same bits.
    With ``shared``, a (keyword, fn, *fn_args) tuple, ``channel_fn`` also
    takes that keyword: a function that returns fn(sample, sample,
    *fn_args) of the channel, kept on the dataset by :func:`_sample_table`
    whether or not ``queries`` is given.
    """
    chans = _channels(ds, spec.use_derivatives, queries)
    cache = ds._channel_depths if queries is None else {}
    vals = []
    for c, chan in enumerate(chans):
        key = (channel_fn, c, args)
        if key not in cache:
            kw = {}
            if shared is not None:
                name, fn, *fn_args = shared
                kw[name] = functools.partial(_sample_table, ds, c, fn, chan[0], chan[0], *fn_args)
            cache[key] = channel_fn(*chan, ds.grid, *args, **kw)
            cache[key].setflags(write=False)
        vals.append(cache[key])
    if spec.use_derivatives:
        w0, w1 = spec.channel_weights
        return DepthVector(w0 * vals[0] + w1 * vals[1], spec)
    return DepthVector(vals[0], spec)


def _strict_counts(sample, qs):
    """Per column (grid point or direction), the numbers of sample values
    strictly below and strictly above each query value: a (2, q, m) array,
    which unpacks as (below, above).

    One argsort per column orders the pooled values: the sample alone when
    ``qs`` is the sample, else the sample followed by the queries.  Equal
    values (0.0 and -0.0 among them) sit in one run of the sorted row; a
    value's counts are the sample values before its run starts and after
    it ends.  They read the values alone, not the order within a run, so
    the sort need not be stable, and every sort gives the same counts."""
    n, m = sample.shape
    own = qs is sample
    # (m, p): a row of pooled values per column, the sample first
    pool = np.ascontiguousarray((sample if own else np.concatenate((sample, qs))).T)
    p = pool.shape[1]
    order = np.argsort(pool, axis=1)
    vals = np.take_along_axis(pool, order, axis=1)
    new = vals[:, 1:] != vals[:, :-1]
    del pool, vals
    # the first and one past the last sorted position of each run
    succ = np.broadcast_to(np.arange(1, p), (m, p - 1))
    start = np.zeros((m, p), dtype=np.intp)
    np.copyto(start[:, 1:], succ, where=new)
    np.maximum.accumulate(start, axis=1, out=start)
    end = np.full((m, p), p, dtype=np.intp)
    np.copyto(end[:, :-1], succ, where=new)
    del new
    np.minimum.accumulate(end[:, ::-1], axis=1, out=end[:, ::-1])
    if not own:  # positions to the numbers of sample values before them
        before = np.zeros((m, p + 1), dtype=np.intp)
        np.cumsum(order < n, axis=1, out=before[:, 1:])
        start = np.take_along_axis(before, start, axis=1)
        end = np.take_along_axis(before, end, axis=1)
        del before
    np.subtract(n, end, out=end)
    # scattered back to the pooled order, as (2, p, m)
    counts = np.empty((2, p, m))
    np.put_along_axis(counts[0].T, order, start, axis=1)
    np.put_along_axis(counts[1].T, order, end, axis=1)
    return counts[:, p - qs.shape[0]:]


def _sample_table(ds, c, fn, *args) -> np.ndarray:
    """``fn(*args)`` on channel ``c``'s sample curves, computed once and
    kept on the dataset, read-only: the N x N :func:`_pairwise_sq_dists`
    that ``spatial`` and ``ksd`` read, and the :func:`_strict_counts` that
    ``mfhd`` and ``mbd`` read."""
    cache = ds._channel_tables
    if (fn, c) not in cache:
        cache[fn, c] = fn(*args)
        cache[fn, c].setflags(write=False)
    return cache[fn, c]


# ---------------------------------------------------------------------------
# L2-root depth
# ---------------------------------------------------------------------------

def _mean_sq_distance(sample, queries, grid):
    """mean_j ||q - X_j||^2 for every query q, via the expanded form."""
    sq_s = grid.integrate(sample * sample)
    sq_q = grid.integrate(queries * queries)
    cross = grid.inner(queries, sample.mean(axis=0))
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
    total = np.zeros(chans[0][1].shape[0])
    for sample, qs in chans:
        total += np.sqrt(_mean_sq_distance(sample, qs, ds.grid))
    return DepthVector(1.0 / (1.0 + total / len(chans)), spec)


# ---------------------------------------------------------------------------
# random projection depth
# ---------------------------------------------------------------------------

def _rp_directions(grid: Grid, count: int, rng) -> np.ndarray:
    """Random unit-norm direction curves: white noise smoothed with a
    5-point moving average, then normalized in L2 over ``grid``."""
    m = grid.m
    raw = rng.standard_normal((count, m))
    kernel = np.full(5, 0.2)
    smooth = np.empty_like(raw)
    for i in range(count):
        # the centred m values of the full convolution; mode="same" returns
        # max(m, 5) values, too many on a 3- or 4-point grid
        smooth[i] = np.convolve(raw[i], kernel)[2:2 + m]
    norms = np.sqrt(grid.integrate(smooth * smooth))
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
    dirs = _rp_directions(ds.grid, spec.num_projections, derive_rng(spec.rng_seed, 0))
    if not spec.use_derivatives:
        sample, qs = chans[0]
        n = sample.shape[0]
        zs = ds.grid.inner(sample, dirs)
        below, above = _strict_counts(zs, zs if qs is sample else ds.grid.inner(qs, dirs))
        f = (below + 0.5 * (n - above - below)) / n  # mid-rank CDF per direction
        depth = np.zeros(qs.shape[0])
        for k in range(spec.num_projections):
            depth += f[:, k] * (1.0 - f[:, k])
        return DepthVector(depth / spec.num_projections, spec)
    n = ds.n_curves
    depth = np.zeros(chans[0][1].shape[0])
    # per channel, the (P, N) and (P, q) projections on all directions, which
    # of them have spread, and their standard deviations; identical sample
    # rows (a single row too) leave a channel without spread in every
    # direction, and a spread at rounding level counts as none (blocked
    # matmuls perturb identical rows by ulps)
    stats = []
    for s, q in chans:
        if np.all(s == s[0]):
            continue
        zs = ds.grid.inner_rows(s, dirs)
        zq = zs if q is s else ds.grid.inner_rows(q, dirs)
        spread = np.ptp(zs, axis=1) > 1e-12 * np.maximum(np.abs(zs).max(axis=1), 1e-300)
        stats.append((zs, zq, spread, zs.std(axis=1, ddof=1)))
    for k in range(spec.num_projections):
        live = [(zs[k], zq[k], sd[k]) for zs, zq, spread, sd in stats if spread[k]]
        if not live:
            depth += 1.0
            continue
        # (2 pi)^(d/2) h_1 ... h_d, the d-variate product-Gaussian normaliser
        norm = math.sqrt(2.0 * math.pi) if len(live) == 1 else 2.0 * math.pi
        sq = None
        for zs, zq, sd in live:
            h = sd * n ** (-1.0 / (4 + len(live)))
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

# events a halfspace_depth_2d call holds at a time, 8 bytes each: blocks of
# queries, n events each (past n = 65,536, one query's n)
_HALFSPACE_BLOCK_KEYS = 1 << 16

# the compiled predicates are exact on coordinates of magnitude 0 or within
# these bounds, where no error-free product under- or overflows; other
# inputs take the NumPy path, which decides near ties with Fraction
_EXACT_RANGE = (2.0**-400, 2.0**500)


def halfspace_depth_2d(points: np.ndarray, queries: np.ndarray | None = None) -> np.ndarray:
    """Exact bivariate Tukey depth of each query against ``points``.

    ``points`` (n, 2) and ``queries`` (q, 2) give the q depths; stacks of
    k such slices, (k, n, 2) and (k, q, 2), give (k, q), slice t of the
    queries against slice t of the points.  Without ``queries`` the points
    are their own queries.

    The depth of q is (n - the most points an open halfplane through q
    holds) / n.  A line turning about q carries a point from one side to
    the other as it passes the point's direction; Rousseeuw & Ruts (AS 307,
    1996) sort those directions for each query and sweep them, as here:
    each pair of query and point is one event, the direction of the line
    through both, keyed by a division-only pseudo-angle in [0, 2) and
    packed with the point's index into a uint64, so that one row sort
    orders a query's events and one pass over the row counts.
    Bit 61 is set and bits 62 and 63 clear, so that an event read as a
    double is positive and normal: the rows sort as doubles (faster in
    NumPy than as uint64), in the order of their bits, with or without
    flush-to-zero.
    Keys within 4 units of each other, which the roundings of the
    differences, the division and the packing could misorder, are ordered
    and grouped by the exact sign of the cross product of their
    directions.  The counts are exact, so both paths that :func:`_loops`
    chooses between, the compiled one of :mod:`fkwc.compiled` and the NumPy
    one, give the same bytes.

    Cost: O(k q n log n) time for q queries (q = n for the points' own
    depths), in blocks of at most ``_HALFSPACE_BLOCK_KEYS`` events, or one
    query's n where those exceed it; shapes and finiteness are checked
    once per call and distinct array.
    """
    pts = np.asarray(points, dtype=float)
    qs = pts if queries is None else np.asarray(queries, dtype=float)
    if pts.ndim == qs.ndim == 2:
        return halfspace_depth_2d(pts[None], None if qs is pts else qs[None])[0]
    if (pts.ndim != 3 or qs.ndim != 3 or pts.shape[::2] != qs.shape[::2]
            or pts.shape[1] < 1 or pts.shape[2] != 2):
        raise DataError(f"points and queries must have shapes ([k,] n >= 1, 2) and "
                        f"([k,] q, 2), got {pts.shape} and {qs.shape}")
    k, n, _ = pts.shape
    q = qs.shape[1]
    # (k, 2, n) and (k, 2, q): each slice's x and y as contiguous rows, made
    # and checked once per distinct array
    coords = [np.ascontiguousarray(a.transpose(0, 2, 1))
              for a in ((pts,) if qs is pts else (pts, qs))]
    if not all(np.isfinite(a).all() for a in coords):
        raise DataError("points and queries must be finite")
    pts, qs = coords[0], coords[-1]
    loops = _loops(*coords)
    # two indices of at least 10 bits and a flip bit below the 61 - bits of key
    bits = 2 * max(10, (n - 1).bit_length()) + 1
    step = max(1, _HALFSPACE_BLOCK_KEYS // n)
    events = np.empty(min(step, k * q) * n, dtype=np.uint64)
    out = np.empty((k, q))
    for c0 in range(0, k * q, step):
        ev = events[:min(step, k * q - c0) * n].reshape(-1, n)
        loops.query_keys(pts, qs, c0, c0 + ev.shape[0], bits, ev)
        ev.view(np.float64).sort(axis=1)
        loops.halfspace_sweep(ev, pts, qs, c0, bits, out)
    return out


def _in_exact_range(*arrays) -> bool:
    """Whether every coordinate is 0 or of a magnitude within ``_EXACT_RANGE``."""
    lo, hi = _EXACT_RANGE
    for a in arrays:
        mag = np.abs(a)
        if mag.max(initial=0.0) > hi or mag.min(initial=lo, where=mag > 0.0) < lo:
            return False
    return True


def _loops(*coords) -> compiled.Kernels:
    """The compiled loops of :mod:`fkwc.compiled`, or ``_NUMPY_LOOPS``, their
    NumPy forms, where the library cannot be had or an array of halfspace
    ``coords`` leaves ``_EXACT_RANGE``: the one place the path is chosen."""
    loops = compiled.load()
    if loops is None or not _in_exact_range(*coords):
        return _NUMPY_LOOPS
    return loops


def _query_keys(pts, qs, c0, c1, bits, out):
    """The NumPy form of the compiled ``query_keys``: the events of the
    (query, point) pairs of cells c0 <= c < c1, f = 0, into the rows of
    ``out``.  Where some |dx| + |dy| of the block reaches 2^1020 (a
    difference may have overflowed), every event of the block is one near
    tie."""
    t, r = np.divmod(np.arange(c0, c1), qs.shape[2])
    kmax = (1 << (61 - bits)) - 1
    with np.errstate(over="ignore", invalid="ignore"):  # a huge block; 0 / 0
        dx = pts[t, 0] - qs[t, 0, r][:, None]
        dy = pts[t, 1] - qs[t, 1, r][:, None]
        flip = (dy < 0.0) | ((dy == 0.0) & (dx < 0.0))
        # w = +-(dx, dy) has |dx| and |dy| as |wx| and wy, and wx > 0
        # where dx and dy have opposite signs but for dy = 0, dx < 0
        right = ((dx > 0.0) & (dy >= 0.0)) | ((dx < 0.0) & (dy <= 0.0))
        total = np.abs(dx) + np.abs(dy)
        # the numerator: wy, or |wx|
        key = np.minimum((np.abs(np.where(right, dy, dx)) / total + ~right) * 2.0 ** (60 - bits),
                         kmax - 1)
    if total.max(initial=0.0) >= 2.0**1020:
        key[...] = 0.0
    key[total == 0.0] = kmax
    out[...] = (key.astype(np.uint64) << np.uint64(bits) | np.uint64(1 << 61)
                | np.arange(out.shape[1], dtype=np.uint64) << np.uint64(1) | flip)


def _halfspace_sweep(ev, pts, qs, c0, bits, out):
    """The NumPy form of the compiled ``halfspace_sweep`` on outside
    queries: the depths of the queries of cells c0, c0 + 1, ... from their
    sorted rows of events, a row's sweep a cumulative sum along it.  Near
    ties are decided in Fraction arithmetic, so any finite input is
    exact."""
    rows, n = ev.shape
    q = qs.shape[2]
    kint = ev >> np.uint64(bits)
    valid = kint != (1 << (62 - bits)) - 1  # bit 61 and KMAX: a coincident pair
    # joined: in the group of the event before, by the exact order of the
    # runs of near-equal keys
    joined = np.zeros((rows, n + 1), dtype=bool)
    near = np.zeros((rows, n + 1), dtype=np.int8)
    near[:, 1:n] = (np.diff(kint, axis=1) < 4) & valid[:, 1:]
    edges = np.diff(near, axis=1)
    for r, lo, hi in zip(*np.nonzero(edges == 1), np.nonzero(edges == -1)[1] + 1):
        t, i = divmod(c0 + r, q)
        ev[r, lo:hi], starts = _exact_order(ev[r, lo:hi], qs[t, :, i:i + 1], pts[t],
                                            (bits - 1) // 2)
        joined[r, lo:hi] = ~np.array(starts)
    # D = 2 L - K, L counting the points left of the line through the
    # query, moves by -2 as a point above passes and +2 below; read where
    # each group of events ends
    step = ((ev & np.uint64(1)).astype(np.int64) * 4 - 2) * valid
    count = np.count_nonzero(valid, axis=1)
    d0 = count - np.count_nonzero(step > 0, axis=1) * 2
    run = np.abs(np.cumsum(step, axis=1) + d0[:, None]) * (valid & ~joined[:, 1:])
    best = np.maximum(np.abs(d0), run.max(axis=1, initial=0))
    out.reshape(-1)[c0:c0 + rows] = (n - (count + best) // 2) / n


def _exact_order(events, first, second, ib):
    """A run of events with near-equal keys in the exact order of their
    directions, and True where a direction starts: ``first`` and ``second``
    are the (2, .) coordinates that the events' f and s index."""
    from fractions import Fraction  # here, not at import: it loads decimal, ≈ 0.5 MB

    mask = (1 << ib) - 1

    def direction(e):
        f, s = e >> (ib + 1) & mask, e >> 1 & mask
        w = [Fraction(second[c, s]) - Fraction(first[c, f]) for c in (0, 1)]
        return (-w[0], -w[1]) if e & 1 else (w[0], w[1])

    dirs = {int(e): direction(int(e)) for e in events}

    def cross(a, b):
        return dirs[a][0] * dirs[b][1] - dirs[a][1] * dirs[b][0]

    # a comes first where a x b > 0: the angles of a and b lie in [0, pi)
    order = sorted(dirs, key=functools.cmp_to_key(lambda a, b: -np.sign(cross(a, b))))
    starts = [True] + [cross(a, b) != 0 for a, b in zip(order, order[1:])]
    return np.array(order, dtype=np.uint64), starts


def mfhd(ds: FunctionalDataset, spec: DepthSpec, queries=None) -> DepthVector:
    """Halfspace depth at each grid point, integrated over [0, 1].

    Unprimed: univariate depth min(#below, #above)/N per point.  Primed:
    exact bivariate Tukey depth of the (value, derivative) pairs, all m
    grid points in one :func:`halfspace_depth_2d` call on an (m, N, 2)
    stack, and an (m, q, 2) one for outside queries.
    """
    chans = _channels(ds, spec.use_derivatives, queries)
    sample, qs = chans[0]
    if not spec.use_derivatives:
        n = sample.shape[0]
        if queries is None:
            below, above = _sample_table(ds, 0, _strict_counts, sample, sample)
        else:
            below, above = _strict_counts(sample, qs)
        return DepthVector(ds.grid.integrate(np.minimum(n - above, n - below) / n), spec)
    # the (value, derivative) pairs of each grid point, as an (m, N, 2) view
    # of a contiguous (m, 2, N) stack, and for outside queries (m, q, 2)
    d_sample, d_qs = chans[1]
    pts = np.stack((sample.T, d_sample.T), axis=1).transpose(0, 2, 1)
    qpts = None if queries is None else np.stack((qs.T, d_qs.T), axis=1).transpose(0, 2, 1)
    depths = halfspace_depth_2d(pts, qpts)
    return DepthVector(ds.grid.integrate(depths.T), spec)


# ---------------------------------------------------------------------------
# modified band depth
# ---------------------------------------------------------------------------

def _falling_comb(a: np.ndarray, k: int) -> np.ndarray:
    """C(a, k) elementwise for integer arrays, as floats (0 where a < k)."""
    out = np.ones_like(a, dtype=float)
    for i in range(k):
        out *= np.maximum(a - i, 0)
    return out / math.factorial(k)


def _mbd_channel(sample, qs, grid, order: int, sample_counts=None) -> np.ndarray:
    """Sum over k=2..order of the expected in-band time fraction, where
    bands are delimited by k-subsets of sample curves (weak inequalities,
    own pairings included when the query is in the sample).  No band has
    more than the n sample curves, so k stops at n.  The sample's own
    counts are those ``sample_counts`` returns, when given."""
    n = sample.shape[0]
    if qs is sample and sample_counts is not None:
        strictly_below, strictly_above = sample_counts()
    else:
        strictly_below, strictly_above = _strict_counts(sample, qs)
    depth = np.zeros(qs.shape[0])
    for k in range(2, min(order, n) + 1):
        total = math.comb(n, k)
        outside = _falling_comb(strictly_below, k) + _falling_comb(strictly_above, k)
        depth += grid.integrate(1.0 - outside / total)
    return depth


def mbd(ds: FunctionalDataset, spec: DepthSpec, queries=None) -> DepthVector:
    """Modified band depth; the primed variant averages the curve and
    derivative channel depths with the spec's channel weights."""
    return _channel_depth(ds, spec, queries, _mbd_channel, spec.band_order,
                          shared=("sample_counts", _strict_counts))


# ---------------------------------------------------------------------------
# spatial and kernelized spatial depth
# ---------------------------------------------------------------------------

def _spatial_channel(sample, qs, grid, sample_d2=None) -> np.ndarray:
    """1 - || mean_j s(q - X_j) || with s the unit map, s(0) = 0.

    The sums over j run in the ``spatial_sums`` loop :func:`_loops` picks,
    on the squared distances of one :func:`_pairwise_sq_dists` call (for
    the sample's own curves, those ``sample_d2`` returns when given)."""
    n = sample.shape[0]
    if qs is sample and sample_d2 is not None:
        d2 = sample_d2()
    else:
        d2 = _pairwise_sq_dists(qs, sample, grid)
    mean = _loops().spatial_sums(sample, qs, d2) / n
    # a sum of squares: never negative
    return 1.0 - np.sqrt(grid.integrate_rows(mean * mean))


def _spatial_sums(sample, queries, d2) -> np.ndarray:
    """The NumPy form of the compiled ``spatial_sums``: per query i, the
    sum of (q_i - X_j) / sqrt(d2[i, j]) over the sample curves at a
    positive distance, added in sample order; (q, m)."""
    sums = np.empty(queries.shape)
    for i, q in enumerate(queries):
        norms = np.sqrt(d2[i])
        keep = norms > 0.0
        sums[i] = ((q - sample[keep]) / norms[keep, None]).sum(axis=0)
    return sums


def spatial_depth(ds: FunctionalDataset, spec: DepthSpec, queries=None) -> DepthVector:
    """Functional spatial depth; primed variant is the weighted average of
    the per-channel depths."""
    return _channel_depth(ds, spec, queries, _spatial_channel,
                          shared=("sample_d2", _pairwise_sq_dists, ds.grid))


# doubles of squared differences _pairwise_sq_dists holds at a time: a block
# of rows of (a_i - b_j)^2, one row (nb x m) at least
_DIFF_BLOCK = 1 << 15


def _pairwise_sq_dists(a, b, grid) -> np.ndarray:
    """The squared L2 distances of each row of ``a`` to each row of ``b``.

    Direct differences: identical curves give exactly zero, which the s(0) =
    0 convention relies on.  They are squared a block of rows at a time by
    the ``sq_diffs`` loop :func:`_loops` picks, and each block is integrated
    in one stacked matmul: a gemv per row of ``a``, the bits of that row on
    its own."""
    a, b = (np.ascontiguousarray(x, dtype=float) for x in (a, b))
    (na, m), nb = a.shape, b.shape[0]
    rows = max(1, _DIFF_BLOCK // max(nb * m, 1))
    loops = _loops()
    out = np.empty((na, nb))
    diff = np.empty((min(rows, na), nb, m))
    for i0 in range(0, na, rows):
        block = diff[:min(rows, na - i0)]
        loops.sq_diffs(a, b, i0, i0 + block.shape[0], block)
        out[i0:i0 + rows] = grid.integrate(block)
    return out


def _sq_diffs(a, b, i0, i1, out) -> None:
    """The NumPy form of the compiled ``sq_diffs``: the squared differences
    of rows i0 <= i < i1 of ``a`` against every row of ``b`` into ``out``,
    NumPy's subtract and then its multiply."""
    np.subtract(a[i0:i1, None], b, out=out)
    out *= out


def _gaussian_gram(d2, sigma2, out=None) -> np.ndarray:
    """exp(-d2 / sigma2) into ``out`` (``d2`` itself, or a new array when
    None): the same operations in the same order as the expression,
    without its two temporaries."""
    out = np.negative(d2, out=out)
    out /= sigma2
    return np.exp(out, out=out)


def _ksd_channel(sample, qs, grid, bandwidth, sample_d2=None) -> np.ndarray:
    """1 - || mean_j s(phi(q) - phi(X_j)) || with phi the Gaussian kernel's
    feature map and s the unit map, s(0) = 0, by the kernel trick.

    The sample distances are those ``sample_d2`` returns, read-only, or, when
    it is None, a matrix of the channel's own, over which the Gram matrix is
    then written.  Each query's sum of terms runs in the ``ksd_sums`` loop
    :func:`_loops` picks."""
    n = sample.shape[0]
    d2 = _pairwise_sq_dists(sample, sample, grid) if sample_d2 is None else sample_d2()
    if bandwidth == MEDIAN_HEURISTIC:
        # the pairs above the diagonal, in triu_indices' row-major order,
        # gathered by rows: no N x N mask
        pair = np.concatenate([d2[i, i + 1:] for i in range(n)])
        sigma2 = float(np.median(pair, overwrite_input=True)) if pair.size else 1.0
        del pair
        if sigma2 <= 0.0:
            sigma2 = 1.0
    else:
        sigma2 = float(bandwidth)
    gram_ss = _gaussian_gram(d2, sigma2, out=d2 if sample_d2 is None else None)
    if qs is sample:  # the sample's own curves: the same matrix, bit for bit
        gram_qs = gram_ss
    else:
        d2_qs = _pairwise_sq_dists(qs, sample, grid)
        gram_qs = _gaussian_gram(d2_qs, sigma2, out=d2_qs)
    sums = _loops().ksd_sums(gram_ss, gram_qs)
    return 1.0 - np.sqrt(np.maximum(sums, 0.0)) / n


def _ksd_sums(gram_ss, gram_qs) -> np.ndarray:
    """The NumPy form of the compiled ``ksd_sums``: per query (row g of
    ``gram_qs``), the sum of its (k, k) matrix ((1 - g_a) - g_b + G_ab) /
    (d_a d_b) over the k sample curves a, b at a positive feature distance
    d.  The matrix is a fresh contiguous array, so ``.sum()`` adds it in
    NumPy's pairwise order, the order the compiled loop copies."""
    sums = np.empty(gram_qs.shape[0])
    for i, row in enumerate(gram_qs):
        d = np.sqrt(np.maximum(2.0 - 2.0 * row, 0.0))
        keep = d > 0.0
        g, d = row[keep], d[keep]
        inner = gram_ss[np.ix_(keep, keep)]
        inner += (1.0 - g)[:, None] - g[None, :]
        inner /= d[:, None] * d[None, :]
        sums[i] = inner.sum()
    return sums


def ksd_depth(ds: FunctionalDataset, spec: DepthSpec, queries=None) -> DepthVector:
    """Kernelized spatial depth with the Gaussian kernel, evaluated through
    the kernel trick; primed variant averages per-channel depths."""
    return _channel_depth(ds, spec, queries, _ksd_channel, spec.kernel_bandwidth,
                          shared=("sample_d2", _pairwise_sq_dists, ds.grid))


# the NumPy forms of the compiled loops, which _loops hands out where those
# cannot run
_NUMPY_LOOPS = compiled.Kernels(query_keys=_query_keys, halfspace_sweep=_halfspace_sweep,
                                ksd_sums=_ksd_sums, spatial_sums=_spatial_sums,
                                sq_diffs=_sq_diffs)


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
    sq = [ds.grid.integrate(c * c) for c, _ in _channels(ds, spec.use_derivatives, None)]
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
