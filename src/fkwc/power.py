"""Noncentral chi-square power approximation, local-alternative analysis,
and Monte Carlo sample-size computation for the depth-rank tests."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .depths import DepthSpec, depth_sort_keys, derive_rng
from .exceptions import InfeasibleError, NumericalError, ParameterError
from .fdata import FunctionalDataset
from .sim import generate

_POISSON_TAIL = 1e-12
# noncentral_chisq_sf sums about 80 sqrt(tau / 2) Poisson terms, 5.7e5 at
# this bound; the largest pairwise noncentrality is under 3N = 3e7
_MAX_TAU = 1e8
_MAX_SAMPLE_SIZE = 10**7
_MAX_BINS = 10**6
# curves per draw in mc_rank_prob, which keeps its memory flat in reps
_RANK_PROB_CHUNK = 8192


@dataclass(frozen=True)
class SupportDensity:
    """A univariate density tabulated at increasing support points, with
    the quadrature weights that integrate over its support: the trapezoid
    weights of the points (:func:`density_from_callable`), or the bin widths
    of a histogram tabulated at its bin midpoints
    (:func:`density_from_histogram`)."""

    points: np.ndarray
    values: np.ndarray
    weights: np.ndarray

    def __post_init__(self):
        arrays = [np.asarray(a, dtype=float) for a in (self.points, self.values, self.weights)]
        pts, vals, wts = arrays
        if pts.ndim != 1 or pts.size < 2 or vals.shape != pts.shape or wts.shape != pts.shape:
            raise ParameterError("density needs matching 1-d points, values and weights")
        if not all(np.isfinite(a).all() for a in arrays):
            raise ParameterError("density points, values and weights must be finite")
        if np.any(np.diff(pts) <= 0):
            raise ParameterError("density support points must be increasing")
        if np.any(vals < 0):
            raise ParameterError("density values must be nonnegative")
        if np.any(wts <= 0):
            raise ParameterError("density quadrature weights must be positive")
        for name, array in zip(("points", "values", "weights"), arrays):
            object.__setattr__(self, name, array)

    def integral(self) -> float:
        return float((self.values * self.weights).sum())

    def delta_g(self) -> float:
        """Integral of z g(z)^2 dz over the tabulated support."""
        return float((self.points * self.values**2 * self.weights).sum())


def density_from_callable(
    fn: Callable[[np.ndarray], np.ndarray], support: tuple
) -> SupportDensity:
    """``fn`` evaluated at 4097 equispaced points of ``support`` and
    integrated by the trapezoid rule."""
    lo, hi = support
    if not hi > lo:
        raise ParameterError(f"bad support interval {support!r}")
    pts = np.linspace(lo, hi, 4097)
    half = 0.5 * np.diff(pts)
    return SupportDensity(pts, fn(pts), np.r_[half, 0.0] + np.r_[0.0, half])


def density_from_histogram(edges, densities) -> SupportDensity:
    """Histogram density tabulated at its bin midpoints and integrated by
    its bin widths; ``edges`` has one entry more than ``densities``."""
    edges = np.asarray(edges, dtype=float)
    if edges.ndim != 1 or edges.size != np.size(densities) + 1:
        raise ParameterError("histogram needs len(edges) == len(densities) + 1")
    mids = 0.5 * (edges[:-1] + edges[1:])
    return SupportDensity(mids, densities, np.diff(edges))


def _fd_bin_count(draws: np.ndarray) -> int:
    """NumPy's Freedman-Diaconis bin count (width 2*IQR*n^(-1/3)), refusing
    an IQR of 0 (one bin, no density) and counts above ``_MAX_BINS``."""
    width = 2.0 * np.subtract(*np.percentile(draws, [75, 25])) * draws.size ** (-1.0 / 3.0)
    if not width:
        raise ParameterError(
            "the draws have an interquartile range of 0, so the Freedman-Diaconis "
            "rule gives 1 histogram bin; a density needs at least 2"
        )
    count = (draws.max() - draws.min()) / width
    if count > _MAX_BINS:
        raise NumericalError(
            f"the Freedman-Diaconis rule asks for {count:.3g} histogram bins, "
            f"more than {_MAX_BINS:.0e}; the draws are too heavy-tailed"
        )
    return int(np.ceil(count))


def density_from_samples(draws) -> SupportDensity:
    """Histogram density with Freedman-Diaconis bins, evaluated at bin
    midpoints, for Monte Carlo draws of a squared-norm statistic.

    Raises ``NumericalError`` when the rule needs more than 10^6 bins, as
    heavy-tailed draws such as t1 squared norms do, and ``ParameterError``
    when a draw is not finite or the draws have an interquartile range of
    0."""
    draws = _floats(draws, "draws")
    if draws.size < 10:
        raise ParameterError("need at least 10 draws to build a histogram density")
    dens, edges = np.histogram(draws, bins=_fd_bin_count(draws), density=True)
    return density_from_histogram(edges, dens)


@dataclass(frozen=True)
class LocalAlternativeSpec:
    """Relative scale perturbations delta_j with group weights theta_j
    around a base squared-norm density g."""

    deltas: tuple
    thetas: tuple
    density: SupportDensity

    def __post_init__(self):
        deltas = tuple(float(d) for d in _floats(self.deltas, "deltas"))
        thetas = tuple(float(t) for t in _floats(self.thetas, "thetas"))
        if len(deltas) != len(thetas) or len(deltas) < 2:
            raise ParameterError("need matching deltas and thetas for J >= 2 groups")
        if any(t <= 0 for t in thetas) or abs(sum(thetas) - 1.0) > 1e-9:
            raise ParameterError("thetas must be positive and sum to 1")
        total = self.density.integral()
        if abs(total - 1.0) > 1e-3:
            raise ParameterError(
                f"density integrates to {total:.6f} over its support; expected 1 within 1e-3"
            )
        object.__setattr__(self, "deltas", deltas)
        object.__setattr__(self, "thetas", thetas)


@dataclass(frozen=True)
class PowerResult:
    tau: float
    predicted_power: float
    alpha: float
    j_groups: int
    n_total: Optional[int] = None

    def to_dict(self) -> dict:
        return {
            "tau": self.tau,
            "predicted_power": self.predicted_power,
            "alpha": self.alpha,
            "J": self.j_groups,
            "N": self.n_total,
        }


@dataclass(frozen=True)
class RankProbability:
    """Monte Carlo estimate of Pr(D(X_j) <= D(X_k)) with its standard error."""

    estimate: float
    std_error: float
    reps: int


def _floats(values, name: str) -> np.ndarray:
    try:
        out = np.asarray(values, dtype=float)
    except (TypeError, ValueError):
        out = None
    if out is None or not np.isfinite(out).all():  # None converts to nan
        raise ParameterError(f"{name} must be finite numbers, got {values!r}")
    return out


def _validate_probs(probs, j: int) -> np.ndarray:
    probs = _floats(probs, "probs")
    if probs.shape != (j, j):
        raise ParameterError(f"probs must be a {j}x{j} matrix")
    if np.any(probs < 0) or np.any(probs > 1):
        raise ParameterError("probs entries must lie in [0, 1]")
    if np.any(np.abs(np.diag(probs) - 0.5) > 1e-9):
        raise ParameterError("probs diagonal must equal 1/2")
    return probs


def tau_from_pairwise(probs, thetas, group_sizes, n_total: float) -> float:
    """Noncentrality 12/(N(N+1)) sum_j N_j [N sum_{k!=j} theta_k
    (Pr(D(X_j) <= D(X_k)) - 1/2)]^2."""
    thetas = _floats(thetas, "thetas")
    sizes = _floats(group_sizes, "group_sizes")
    j = thetas.size
    if sizes.size != j:
        raise ParameterError("thetas and group_sizes must have equal length")
    probs = _validate_probs(probs, j)
    total = 0.0
    for a in range(j):
        inner = sum(thetas[k] * (probs[a, k] - 0.5) for k in range(j) if k != a)
        total += sizes[a] * (n_total * inner) ** 2
    return 12.0 / (n_total * (n_total + 1.0)) * total


def mc_rank_prob(model_j, model_k, p: int = 0, reps: int = 10_000, seed: int = 0) -> RankProbability:
    """Monte Carlo Pr(D(X_j) <= D(X_k)) for the ``ltr`` ranks (``ltr'`` when
    p = 1): the share of draws whose :func:`~fkwc.depths.depth_sort_keys`
    key, computed on a dataset of the draws as the test computes it, is no
    smaller for X_k than for X_j.  Drawn in chunks: memory is flat in reps."""
    if reps < 1:
        raise ParameterError("reps must be >= 1")
    if p not in (0, 1):
        raise ParameterError("p must be 0 or 1")
    if model_j.grid != model_k.grid:
        raise ParameterError(
            f"models must share one grid, got {model_j.grid!r} and {model_k.grid!r}"
        )
    spec = DepthSpec(kind="ltr", use_derivatives=p == 1)
    rng_j = derive_rng(seed, 11)
    rng_k = derive_rng(seed, 13)

    def keys(model, size, rng):
        ds = FunctionalDataset(model.grid, generate(model, size, rng), np.ones(size, dtype=int))
        return depth_sort_keys(ds, spec)

    hits = 0
    for start in range(0, reps, _RANK_PROB_CHUNK):
        size = min(_RANK_PROB_CHUNK, reps - start)
        k_j = keys(model_j, size, rng_j)
        hits += int(np.count_nonzero(keys(model_k, size, rng_k) >= k_j))
    prob = hits / reps
    se = math.sqrt(max(prob * (1 - prob), 1e-12) / reps)
    return RankProbability(prob, se, reps)


def local_tau(spec: LocalAlternativeSpec) -> float:
    """Limit noncentrality 12 (int z g(z)^2 dz)^2 sum_j theta_j
    (delta_j - delta_bar)^2 under relative scale perturbations."""
    dg = spec.density.delta_g()
    deltas = np.asarray(spec.deltas)
    thetas = np.asarray(spec.thetas)
    dbar = float((thetas * deltas).sum())
    spread = float((thetas * (deltas - dbar) ** 2).sum())
    return 12.0 * dg * dg * spread


def noncentral_chisq_sf(x: float, df: int, tau: float) -> float:
    """Survival function of the noncentral chi-square: the Poisson mixture
    of central chi-square tails, truncated at 1e-12 Poisson tail mass and
    clipped to [0, 1] (at tau = 0 it is ``chi2.sf(x, df)``).  The Poisson
    weights' own error grows with tau: the result differs from
    ``scipy.stats.ncx2.sf`` by 1.9e-11 at tau = 1e5 and 5.2e-10 at 1e6."""
    if x < 0:
        raise ParameterError("x must be >= 0")
    if df < 1:
        raise ParameterError("df must be >= 1")
    if not (math.isfinite(tau) and 0 <= tau <= _MAX_TAU):
        raise ParameterError(f"tau must be finite and in [0, {_MAX_TAU:g}], got {tau!r}")
    lam = tau / 2.0
    spread = 40.0 * math.sqrt(lam + 1.0) + 60.0
    kmax = int(lam + spread)
    # the Poisson weights below lam - spread are below e^-800 and so are 0.0
    # in floating point; the sum starts there, over O(sqrt(lam)) terms
    kmin = max(int(lam - spread), 0)
    ks = np.arange(kmin, kmax + 1)
    from scipy import special

    # poisson.pmf(ks, lam) as scipy.stats evaluates it, bit for bit
    weights = np.exp(special.xlogy(ks, lam) - special.gammaln(ks + 1) - lam)
    keep = np.cumsum(weights) <= 1.0 - _POISSON_TAIL
    cutoff = int(keep.sum()) + 1
    ks = ks[:cutoff]
    weights = weights[:cutoff]
    tails = special.chdtrc(df + 2 * ks, x)  # chi2.sf(x, df + 2 * ks), bit for bit
    return float(np.clip(np.sum(weights * tails), 0.0, 1.0))


def predicted_power(tau: float, j_groups: int, alpha: float = 0.05,
                    n_total: Optional[int] = None) -> PowerResult:
    """Approximate rejection probability at level alpha from the
    noncentral chi-square law with J-1 degrees of freedom."""
    if j_groups < 2:
        raise ParameterError("need at least two groups")
    if not 0.0 < alpha < 1.0:
        raise ParameterError("alpha must lie in (0, 1)")
    df = j_groups - 1
    from scipy import special

    crit = float(2.0 * special.gammaincinv(df / 2, 1.0 - alpha))  # chi2.ppf, bit for bit
    power = noncentral_chisq_sf(crit, df, tau)
    return PowerResult(float(tau), power, alpha, j_groups, n_total)


def _sample_size(n_total, j: int) -> int:
    n = n_total
    if isinstance(n, (float, np.floating)) and float(n).is_integer():
        n = int(n)
    lo = max(j, 1)  # at least one curve per group
    valid = isinstance(n, (int, np.integer)) and not isinstance(n, bool)
    if not (valid and lo <= n <= _MAX_SAMPLE_SIZE):
        raise ParameterError(
            f"N must be an integer in [{lo}, {_MAX_SAMPLE_SIZE}], got {n_total!r}"
        )
    return int(n)


def power_from_pairwise(probs, thetas, n_total: int, alpha: float = 0.05) -> PowerResult:
    """Power at combined sample size N with group sizes theta_j N; N must
    be an integer in [J, 1e7] (an integral float is taken as one)."""
    thetas = _floats(thetas, "thetas")
    n_total = _sample_size(n_total, thetas.size)
    sizes = thetas * n_total
    tau = tau_from_pairwise(probs, thetas, sizes, n_total)
    return predicted_power(tau, thetas.size, alpha, n_total=n_total)


def power_from_local(spec: LocalAlternativeSpec, alpha: float = 0.05) -> PowerResult:
    return predicted_power(local_tau(spec), len(spec.thetas), alpha)


def required_sample_size(probs, thetas, target_power: float, alpha: float = 0.05) -> int:
    """Smallest combined N whose predicted power reaches the target.

    Bisection over N in [4J, 1e7] on the noncentrality path, which is
    monotone in N; raises :class:`InfeasibleError` when even the upper
    bound cannot reach the target.
    """
    thetas = _floats(thetas, "thetas")
    j = thetas.size
    if not alpha < target_power < 1.0:
        raise ParameterError(
            f"target_power must lie in (alpha, 1), got {target_power} at alpha={alpha}"
        )

    def power_at(n):
        return power_from_pairwise(probs, thetas, n, alpha).predicted_power

    lo = 4 * j
    hi = _MAX_SAMPLE_SIZE
    if power_at(lo) >= target_power:
        return lo
    if power_at(hi) < target_power:
        raise InfeasibleError(
            f"target power {target_power} unreachable at N <= {hi} "
            "(noncentrality too small; are all rank probabilities 1/2?)"
        )
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if power_at(mid) >= target_power:
            hi = mid
        else:
            lo = mid
    return hi
