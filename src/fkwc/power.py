"""Noncentral chi-square power approximation, local-alternative analysis,
and Monte Carlo sample-size computation for the depth-rank tests."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np
from scipy.stats import chi2, poisson

from .exceptions import InfeasibleError, NumericalError, ParameterError
from .fdata import differentiate

_POISSON_TAIL = 1e-12
_MAX_BINS = 10**6


@dataclass(frozen=True)
class SupportDensity:
    """A univariate density tabulated on a support grid.

    ``points`` must be increasing; the density is treated as exact at the
    points and integrated by the trapezoid rule (histogram constructors
    use midpoint boxes instead).
    """

    points: np.ndarray
    values: np.ndarray
    box_widths: Optional[np.ndarray] = None

    def __post_init__(self):
        pts = np.asarray(self.points, dtype=float)
        vals = np.asarray(self.values, dtype=float)
        if pts.ndim != 1 or pts.size < 2 or vals.shape != pts.shape:
            raise ParameterError("density needs matching 1-d points and values")
        if np.any(np.diff(pts) <= 0):
            raise ParameterError("density support points must be increasing")
        if np.any(vals < 0):
            raise ParameterError("density values must be nonnegative")
        object.__setattr__(self, "points", pts)
        object.__setattr__(self, "values", vals)
        if self.box_widths is not None:
            bw = np.asarray(self.box_widths, dtype=float)
            if bw.shape != pts.shape or np.any(bw <= 0):
                raise ParameterError("box widths must be positive and match points")
            object.__setattr__(self, "box_widths", bw)

    def integral(self) -> float:
        if self.box_widths is not None:
            return float((self.values * self.box_widths).sum())
        return float(np.trapezoid(self.values, self.points))

    def delta_g(self) -> float:
        """Integral of z g(z)^2 dz over the tabulated support."""
        zg2 = self.points * self.values**2
        if self.box_widths is not None:
            return float((zg2 * self.box_widths).sum())
        return float(np.trapezoid(zg2, self.points))


def density_from_callable(
    fn: Callable[[np.ndarray], np.ndarray], support: tuple, n: int = 4097
) -> SupportDensity:
    lo, hi = support
    if not hi > lo:
        raise ParameterError(f"bad support interval {support!r}")
    pts = np.linspace(lo, hi, n)
    return SupportDensity(pts, np.asarray(fn(pts), dtype=float))


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


def density_from_samples(draws, bins="fd") -> SupportDensity:
    """Histogram density (Freedman-Diaconis bins by default) evaluated at
    bin midpoints, for Monte Carlo draws of a squared-norm statistic.

    Raises ``NumericalError`` when the default rule needs more than 10^6
    bins, as heavy-tailed draws such as t1 squared norms do, and
    ``ParameterError`` when the draws have an interquartile range of 0."""
    draws = np.asarray(draws, dtype=float)
    if draws.size < 10:
        raise ParameterError("need at least 10 draws to build a histogram density")
    if isinstance(bins, str) and bins == "fd":
        bins = _fd_bin_count(draws)
    dens, edges = np.histogram(draws, bins=bins, density=True)
    mids = 0.5 * (edges[:-1] + edges[1:])
    widths = np.diff(edges)
    return SupportDensity(mids, dens, box_widths=widths)


@dataclass(frozen=True)
class LocalAlternativeSpec:
    """Relative scale perturbations delta_j with group weights theta_j
    around a base squared-norm density g."""

    deltas: tuple
    thetas: tuple
    density: SupportDensity

    def __post_init__(self):
        deltas = tuple(float(d) for d in self.deltas)
        thetas = tuple(float(t) for t in self.thetas)
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


def _validate_probs(probs, j: int) -> np.ndarray:
    probs = np.asarray(probs, dtype=float)
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
    thetas = np.asarray(thetas, dtype=float)
    sizes = np.asarray(group_sizes, dtype=float)
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
    """Monte Carlo Pr(D(X_j) <= D(X_k)) under L2-root ranking, i.e. the
    probability that the summed channel norms of X_k fall below those of
    X_j; channels are the curve plus p finite-difference derivatives."""
    from .sim import generate  # local import to avoid a module cycle

    if reps < 1:
        raise ParameterError("reps must be >= 1")
    if p not in (0, 1):
        raise ParameterError("p must be 0 or 1")
    grid = model_j.grid
    w = grid.trapezoid_weights

    def scores(model, rng_seed):
        x = generate(model, reps, rng_seed)
        s = np.sqrt((x * x) @ w)
        if p == 1:
            d = differentiate(x, grid)
            s = s + np.sqrt((d * d) @ w)
        return s

    s_j = scores(model_j, (seed, 11))
    s_k = scores(model_k, (seed, 13))
    hits = np.mean(s_k <= s_j)
    se = math.sqrt(max(hits * (1 - hits), 1e-12) / reps)
    return RankProbability(float(hits), se, reps)


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
    """Survival function of the noncentral chi-square via the Poisson
    mixture of central chi-square tails, truncated at 1e-12 tail mass."""
    if x < 0:
        raise ParameterError("x must be >= 0")
    if df < 1:
        raise ParameterError("df must be >= 1")
    if tau < 0:
        raise ParameterError("tau must be >= 0")
    if tau == 0.0:
        return float(chi2.sf(x, df))
    lam = tau / 2.0
    kmax = int(lam + 40.0 * math.sqrt(lam + 1.0) + 60.0)
    ks = np.arange(kmax + 1)
    weights = poisson.pmf(ks, lam)
    keep = np.cumsum(weights) <= 1.0 - _POISSON_TAIL
    cutoff = int(keep.sum()) + 1
    ks = ks[:cutoff]
    weights = weights[:cutoff]
    return float(np.sum(weights * chi2.sf(x, df + 2 * ks)))


def predicted_power(tau: float, j_groups: int, alpha: float = 0.05,
                    n_total: Optional[int] = None) -> PowerResult:
    """Approximate rejection probability at level alpha from the
    noncentral chi-square law with J-1 degrees of freedom."""
    if j_groups < 2:
        raise ParameterError("need at least two groups")
    if not 0.0 < alpha < 1.0:
        raise ParameterError("alpha must lie in (0, 1)")
    df = j_groups - 1
    crit = float(chi2.ppf(1.0 - alpha, df))
    power = noncentral_chisq_sf(crit, df, tau)
    return PowerResult(float(tau), power, alpha, j_groups, n_total)


def power_from_pairwise(probs, thetas, n_total: int, alpha: float = 0.05) -> PowerResult:
    """Power at combined sample size N with group sizes theta_j N."""
    thetas = np.asarray(thetas, dtype=float)
    sizes = thetas * n_total
    tau = tau_from_pairwise(probs, thetas, sizes, n_total)
    return predicted_power(tau, thetas.size, alpha, n_total=int(n_total))


def power_from_local(spec: LocalAlternativeSpec, alpha: float = 0.05) -> PowerResult:
    return predicted_power(local_tau(spec), len(spec.thetas), alpha)


_MAX_SAMPLE_SIZE = 10**7


def required_sample_size(probs, thetas, target_power: float, alpha: float = 0.05) -> int:
    """Smallest combined N whose predicted power reaches the target.

    Bisection over N in [4J, 1e7] on the noncentrality path, which is
    monotone in N; raises :class:`InfeasibleError` when even the upper
    bound cannot reach the target.
    """
    thetas = np.asarray(thetas, dtype=float)
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
