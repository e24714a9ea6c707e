"""Rank statistics on depth orderings, chi-square calibration, and
depth-based pairwise multiple comparisons."""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, replace
from typing import Optional

import numpy as np
from scipy import special

from .depths import DepthSpec, RankVector, depth_ranks, depth_sort_keys, derive_seed
from .exceptions import ParameterError
from .fdata import FunctionalDataset, integer_labels

_CORRECTIONS = ("sidak", "bonferroni", "holm")


@dataclass(frozen=True)
class TestConfig:
    """Configuration of a k-sample covariance rank test."""

    depth_spec: DepthSpec = DepthSpec()
    alpha: float = 0.05
    percentile_r: Optional[float] = None

    def __post_init__(self):
        if not 0.0 < self.alpha < 1.0:
            raise ParameterError(f"alpha must lie in (0, 1), got {self.alpha}")
        r = self.percentile_r
        if r is not None and not 0.0 < r <= 1.0:
            raise ParameterError(f"percentile_r must lie in (0, 1], got {r}")


@dataclass(frozen=True)
class TestResult:
    statistic: float
    df: int
    p_value: float
    group_mean_ranks: tuple
    group_deviations: tuple
    statistic_kind: str
    alpha: float
    reject: bool
    tie_breaks_applied: int = 0

    def to_dict(self) -> dict:
        return {
            "statistic": self.statistic,
            "statistic_kind": self.statistic_kind,
            "df": self.df,
            "p_value": self.p_value,
            "alpha": self.alpha,
            "reject": self.reject,
            "group_mean_ranks": list(self.group_mean_ranks),
            "group_deviations": list(self.group_deviations),
            "tie_breaks_applied": self.tie_breaks_applied,
        }


@dataclass(frozen=True)
class MCResult:
    """Pairwise comparison p-values, raw and family-wise adjusted."""

    pairwise_raw_p: np.ndarray
    pairwise_adjusted_p: np.ndarray
    num_comparisons: int
    correction: str

    def to_dict(self) -> dict:
        return {
            "correction": self.correction,
            "num_comparisons": self.num_comparisons,
            "pairwise_raw_p": self.pairwise_raw_p.tolist(),
            "pairwise_adjusted_p": self.pairwise_adjusted_p.tolist(),
        }


def _validate_ranks_groups(ranks, groups):
    """Ranks, integer group labels and group sizes N_1..N_J.  The ranks of
    a ``RankVector`` were checked to be a permutation when it was built;
    raw ranks are checked here."""
    checked = isinstance(ranks, RankVector)
    ranks = np.asarray(ranks.ranks if checked else ranks)
    groups = integer_labels(groups, ParameterError)
    n = ranks.size
    if n == 0:
        raise ParameterError("need at least one rank")
    if groups.size != n:
        raise ParameterError(f"{groups.size} group labels for {n} ranks")
    if not checked and not np.array_equal(np.sort(ranks), np.arange(1, n + 1)):
        raise ParameterError("ranks must form a permutation of 1..N (break ties first)")
    if groups.min() < 1:
        raise ParameterError("every group label in 1..J must appear at least once")
    sizes = np.bincount(groups)[1:]
    if np.any(sizes == 0):
        raise ParameterError("every group label in 1..J must appear at least once")
    if sizes.size < 2:
        raise ParameterError("need at least two groups")
    return ranks, groups, sizes


def _group_mean_ranks(ranks, groups, sizes) -> np.ndarray:
    """Mean rank of each group 1..J.  The rank sums are integers below
    2**53, so they are exact in any summation order."""
    return np.bincount(groups, weights=ranks)[1:] / sizes


def kw_statistic(ranks, groups) -> float:
    """Rank dispersion statistic 12/(N(N+1)) * sum_j N_j (Rbar_j - (N+1)/2)^2."""
    ranks, groups, sizes = _validate_ranks_groups(ranks, groups)
    n = ranks.size
    center = (n + 1) / 2.0
    total = 0.0
    for nj, mean in zip(sizes, _group_mean_ranks(ranks, groups, sizes)):
        total += nj * (mean - center) ** 2
    return 12.0 / (n * (n + 1)) * total


def percentile_statistic(ranks, groups, r: float) -> float:
    """Percentile-modified statistic using only the N' = floor(rN) lowest
    (least deep) ranks, weighted (N'-s+1) for rank s."""
    ranks, groups, sizes = _validate_ranks_groups(ranks, groups)
    if not 0.0 < r <= 1.0:
        raise ParameterError(f"r must lie in (0, 1], got {r}")
    n = ranks.size
    j_count = sizes.size
    n_prime = int(math.floor(r * n))
    if n_prime < 1:
        raise ParameterError(f"floor(r*N) = {n_prime}; need at least one retained rank")
    if n_prime < j_count:
        warnings.warn(
            f"floor(r*N) = {n_prime} < J = {j_count}: percentile statistic is degenerate",
            stacklevel=2,
        )
    group_of_rank = np.empty(n + 1, dtype=int)
    group_of_rank[ranks.astype(int)] = groups
    s = np.arange(1, n_prime + 1)
    weights = n_prime - s + 1
    total = 0.0
    for j, nj in enumerate(sizes, start=1):
        delta = group_of_rank[s] == j
        ssum = float((weights * delta).sum())
        rho = nj * n_prime * (n_prime + 1) / (2.0 * n)
        sigma2 = (
            nj
            * (n - nj)
            * n_prime
            * (n_prime + 1)
            * (2.0 * n * (2 * n_prime + 1) - 3.0 * n_prime * (n_prime + 1))
            / (12.0 * n * n * (n - 1))
        )
        if sigma2 <= 0.0:
            raise ParameterError("degenerate configuration: zero variance term")
        total += (1.0 - nj / n) * (ssum - rho) ** 2 / sigma2
    return total


def fkwc_test(ds: FunctionalDataset, config: TestConfig = TestConfig()) -> TestResult:
    """Depth-rank k-sample test for equality of covariance operators.

    Ranks the pooled sample with the configured depth, forms the rank
    statistic (percentile-modified when ``percentile_r`` is set), and
    calibrates it against chi-square with J-1 degrees of freedom.
    """
    if ds.n_groups < 2:
        raise ParameterError("need at least two groups")
    rv = depth_ranks(ds, config.depth_spec)
    groups = ds.groups
    if config.percentile_r is None:
        stat = kw_statistic(rv, groups)
        kind = "W"
    else:
        stat = percentile_statistic(rv, groups, config.percentile_r)
        kind = "M_r"
    df = ds.n_groups - 1
    # the chi-square tail chi2.sf(stat, df) evaluates, without its
    # argument handling: the same bits at a fiftieth of the cost
    p = float(special.chdtrc(df, stat))
    center = (groups.size + 1) / 2.0
    means = tuple(_group_mean_ranks(rv.ranks, groups, ds.group_sizes).tolist())
    devs = tuple((mu - center) ** 2 for mu in means)
    return TestResult(
        statistic=float(stat),
        df=df,
        p_value=p,
        group_mean_ranks=means,
        group_deviations=devs,
        statistic_kind=kind,
        alpha=config.alpha,
        reject=bool(p < config.alpha),
        tie_breaks_applied=rv.tie_breaks_applied,
    )


# ---------------------------------------------------------------------------
# Wilcoxon rank-sum and Steel-type multiple comparisons
# ---------------------------------------------------------------------------

def _mid_ranks(values: np.ndarray):
    """Mid-ranks of ``values`` (ties share the mean of their ranks) and the
    size of each tie run, from one stable sort.  Mid-ranks are
    half-integers, so these are the floats any exact method gives
    (``scipy.stats.rankdata``'s, for one)."""
    order = np.argsort(values, kind="stable")
    ordered = values[order]
    edges = np.flatnonzero(np.r_[True, ordered[1:] != ordered[:-1], True])
    counts = np.diff(edges)
    ranks = np.empty(values.size)
    ranks[order] = np.repeat(0.5 * (edges[:-1] + edges[1:] + 1), counts)
    return ranks, counts


def wilcoxon_rank_sum(x, y, method: str = "normal") -> float:
    """Two-sided Wilcoxon rank-sum p-value.

    ``normal`` uses the tie-corrected normal approximation (no continuity
    correction).  ``exact`` counts the permutation null of the observed
    mid-ranks (the shift algorithm of Streitberg & Roehmel over doubled
    mid-ranks).  With N = n1 + n2 it does about N*(n1+1)*(N*(N+1)+1)
    operations and accepts inputs where that is at most 1e9: up to about
    100 vs 100 (150 vs 150 raises ``ParameterError``).  NaN samples are
    refused; +-inf samples rank like any other value.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    n1, n2 = x.size, y.size
    if n1 == 0 or n2 == 0:
        raise ParameterError("both samples must be non-empty")
    if np.isnan(x).any() or np.isnan(y).any():
        raise ParameterError("samples must not contain NaN")
    pooled = np.concatenate([x, y])
    n = n1 + n2
    ranks, runs = _mid_ranks(pooled)
    t_obs = ranks[:n1].sum()
    mu = n1 * (n + 1) / 2.0
    if method == "exact":
        if n * (n1 + 1) * (n * (n + 1) + 1) > 10**9:
            raise ParameterError(
                f"exact rank-sum null for {n1} vs {n2} is too large to count; use method='normal'"
            )
        doubled = np.round(2.0 * ranks).astype(int)  # mid-ranks doubled are integers
        mu2 = doubled.sum() * n1 / n  # = 2*mu, exact as a float of integers
        dev_obs = abs(int(round(2.0 * t_obs)) - mu2)
        # counts[k, s] = number of k-subsets with doubled-rank sum s (NumPy buffers the overlap)
        counts = np.zeros((n1 + 1, doubled.sum() + 1))
        counts[0, 0] = 1.0
        for r in doubled:
            counts[1:, r:] += counts[:-1, :-r]
        splits = counts[n1]
        hit = np.abs(np.arange(splits.size) - mu2) >= dev_obs - 1e-9
        return float(splits[hit].sum() / splits.sum())
    if method != "normal":
        raise ParameterError(f"unknown method {method!r}; expected 'normal' or 'exact'")
    ties = float(((runs**3) - runs).sum())
    var = n1 * n2 / 12.0 * ((n + 1) - ties / (n * (n - 1)))
    if var <= 0.0:
        return 1.0  # all observations identical
    z = (t_obs - mu) / math.sqrt(var)
    return float(2.0 * special.ndtr(-abs(z)))  # norm.sf(|z|) is ndtr(-|z|)


def adjust_pvalues(raw: np.ndarray, m: int, correction: str) -> np.ndarray:
    """Family-wise adjustment of a vector of raw p-values for m tests."""
    raw = np.asarray(raw, dtype=float)
    if correction == "sidak":
        return np.clip(1.0 - (1.0 - raw) ** m, 0.0, 1.0)
    if correction == "bonferroni":
        return np.clip(raw * m, 0.0, 1.0)
    if correction == "holm":
        order = np.argsort(raw, kind="stable")
        pos = np.arange(raw.size)
        adj = np.empty_like(raw)
        adj[order] = np.maximum.accumulate(np.minimum(1.0, np.maximum(m - pos, 1) * raw[order]))
        return adj
    raise ParameterError(f"unknown correction {correction!r}; expected one of {_CORRECTIONS}")


def steel_mc(
    ds: FunctionalDataset,
    spec: DepthSpec,
    correction_count: Optional[int] = None,
    correction: str = "sidak",
    method: str = "normal",
) -> MCResult:
    """Pairwise covariance comparisons via two-group depth recomputation.

    For every group pair the dataset is restricted to those two groups,
    depths are recomputed against that two-group mixture, and a two-sided
    Wilcoxon rank-sum test compares the group depth values.  P-values are
    adjusted over ``correction_count`` simultaneous tests (default
    J(J-1)/2).
    """
    if correction not in _CORRECTIONS:
        raise ParameterError(f"unknown correction {correction!r}; expected one of {_CORRECTIONS}")
    j = ds.n_groups
    if j < 2:
        raise ParameterError("need at least two groups")
    if method == "normal" and np.any(ds.group_sizes < 4):
        warnings.warn(
            "group sizes below 4: the normal approximation to the rank-sum "
            "null is poor; consider method='exact'",
            stacklevel=2,
        )
    rows, cols = np.triu_indices(j, 1)  # the group pairs in combinations order
    m = correction_count if correction_count is not None else rows.size
    if m < 1:
        raise ParameterError("correction_count must be >= 1")
    if spec.use_derivatives:
        ds.derivatives  # derived once here, so that each pair's subset slices it
    raw_list = []
    for pair_index, (a, b) in enumerate(zip(rows + 1, cols + 1)):
        sub = ds.subset([a, b])
        pair_spec = replace(spec, rng_seed=derive_seed(spec.rng_seed, 2, pair_index))
        keys = depth_sort_keys(sub, pair_spec)
        p = wilcoxon_rank_sum(keys[sub.groups == 1], keys[sub.groups == 2], method=method)
        raw_list.append(p)
    raw = np.ones((j, j))
    raw[rows, cols] = raw[cols, rows] = raw_list
    adjusted = np.ones((j, j))
    adjusted[rows, cols] = adjusted[cols, rows] = adjust_pvalues(raw_list, m, correction)
    return MCResult(
        pairwise_raw_p=raw,
        pairwise_adjusted_p=adjusted,
        num_comparisons=m,
        correction=correction,
    )
