"""Rank statistics, chi-square calibration, Wilcoxon, and multiple
comparisons."""

import itertools
import math
import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.stats import chi2, norm, rankdata

import fkwc.fdata
from fkwc import (
    DepthSpec,
    FunctionalDataset,
    Grid,
    ParameterError,
    TestConfig,
    depth_ranks,
    fkwc_test,
    kw_statistic,
    percentile_statistic,
    steel_mc,
    wilcoxon_rank_sum,
)
from fkwc.depths import depth_sort_keys, derive_seed
from fkwc.testing import _mid_ranks, adjust_pvalues

CHI2_1_CRIT = 3.84145882069413  # 0.95 quantile, frozen from an mpmath solve
RANK_STATISTICS = {"W": kw_statistic, "M_r": lambda r, g: percentile_statistic(r, g, 1.0)}


def random_partition(rng, n, j):
    while True:
        groups = rng.integers(1, j + 1, size=n)
        if np.unique(groups).size == j:
            return groups


def masked_mean_ranks(ranks, groups):
    """Group mean ranks written as one boolean mask and mean per group."""
    ranks = np.asarray(ranks).astype(float)
    return tuple(float(ranks[groups == g].mean()) for g in range(1, groups.max() + 1))


def holm_loop_reference(raw, m):
    """Holm's step-down adjustment the way it was first written: a running
    maximum over the p-values in ascending order."""
    raw = np.asarray(raw, dtype=float)
    order = np.argsort(raw, kind="stable")
    adj = np.empty_like(raw)
    running = 0.0
    for pos, idx in enumerate(order):
        mult = max(m - pos, 1)
        running = max(running, min(1.0, mult * raw[idx]))
        adj[idx] = running
    return adj


def steel_mc_loop_reference(ds, spec, m, correction):
    """``steel_mc``'s raw and adjusted matrices filled pair by pair in
    ``itertools.combinations`` order, the way they were first written."""
    j = ds.n_groups
    pairs = list(itertools.combinations(range(1, j + 1), 2))
    raw = np.ones((j, j))
    raw_list = []
    for pair_index, (a, b) in enumerate(pairs):
        sub = ds.subset([a, b])
        pair_spec = replace(spec, rng_seed=derive_seed(spec.rng_seed, 2, pair_index))
        keys = depth_sort_keys(sub, pair_spec)
        p = wilcoxon_rank_sum(keys[sub.groups == 1], keys[sub.groups == 2])
        raw[a - 1, b - 1] = raw[b - 1, a - 1] = p
        raw_list.append(p)
    adjusted = np.ones((j, j))
    for (a, b), padj in zip(pairs, adjust_pvalues(np.array(raw_list), m, correction)):
        adjusted[a - 1, b - 1] = adjusted[b - 1, a - 1] = padj
    return raw, adjusted


def masked_kw(ranks, groups):
    """W written as a loop over groups of masked means, summed in group order."""
    ranks = np.asarray(ranks).astype(float)
    n = ranks.size
    center = (n + 1) / 2.0
    total = 0.0
    for j, nj in enumerate(np.bincount(groups)[1:], start=1):
        total += nj * (ranks[groups == j].mean() - center) ** 2
    return 12.0 / (n * (n + 1)) * total


class TestKwStatistic:
    def test_hand_example_two_vs_two(self):
        got = kw_statistic(np.array([1, 2, 3, 4]), np.array([1, 1, 2, 2]))
        assert got == pytest.approx(2.4, abs=1e-12)

    def test_centered_mean_ranks_give_zero(self):
        # ranks alternating so both groups average (N+1)/2
        ranks = np.array([1, 4, 5, 8, 2, 3, 6, 7])
        groups = np.array([1, 1, 1, 1, 2, 2, 2, 2])
        assert kw_statistic(ranks, groups) == pytest.approx(0.0, abs=1e-12)

    def test_full_separation_maximizes_over_assignments(self):
        ranks = np.array([1, 2, 3, 4])
        best = None
        best_w = -1.0
        for labels in itertools.permutations([1, 1, 2, 2]):
            w = kw_statistic(ranks, np.array(labels))
            if w > best_w:
                best_w, best = w, labels
        assert best in ((1, 1, 2, 2), (2, 2, 1, 1))
        assert best_w == pytest.approx(2.4, abs=1e-12)

    def test_bounds_brute_force(self):
        rng = np.random.default_rng(12)
        for n in range(4, 9):
            ranks = np.arange(1, n + 1)
            # exhaustive over 2- and 3-group label assignments
            for j in (2, 3):
                for labels in itertools.product(range(1, j + 1), repeat=n):
                    labels = np.array(labels)
                    if np.unique(labels).size < j:
                        continue
                    w = kw_statistic(ranks, labels)
                    assert -1e-12 <= w <= n - 1 + 1e-12
            # all-singleton assignment attains the upper bound N-1
            singleton = kw_statistic(rng.permutation(n) + 1, np.arange(1, n + 1))
            assert singleton == pytest.approx(n - 1, abs=1e-12)

    def test_rejects_empty_group_encoding(self):
        with pytest.raises(ParameterError):
            kw_statistic(np.array([1, 2, 3]), np.array([1, 1, 3]))

    def test_rejects_non_permutation(self):
        with pytest.raises(ParameterError):
            kw_statistic(np.array([1, 1, 2]), np.array([1, 2, 2]))

    @pytest.mark.parametrize("kind", RANK_STATISTICS)
    def test_rejects_negative_label(self, kind):
        with pytest.raises(ParameterError, match="group label"):
            RANK_STATISTICS[kind](np.array([1, 2, 3]), [1, 2, -1])

    @pytest.mark.parametrize("labels", [[1, 1.5, 2, 2], [1, 1, 2, np.nan], [1, np.inf, 2, 2],
                                        ["a", "a", "b", "b"]],
                             ids=["fraction", "nan", "inf", "text"])
    @pytest.mark.parametrize("kind", RANK_STATISTICS)
    def test_rejects_non_integer_label(self, kind, labels):
        # 1.5 was once truncated to 1: W of labels [1, 1, 2, 2]
        with pytest.raises(ParameterError, match="must be integers"):
            RANK_STATISTICS[kind](np.array([1, 2, 3, 4]), labels)

    def test_integral_float_labels_accepted(self):
        assert kw_statistic([1, 2, 3, 4], [1.0, 1.0, 2.0, 2.0]) == kw_statistic(
            [1, 2, 3, 4], [1, 1, 2, 2]
        )

    @pytest.mark.parametrize("kind", RANK_STATISTICS)
    def test_rejects_empty_ranks(self, kind):
        with pytest.raises(ParameterError, match="at least one rank"):
            RANK_STATISTICS[kind](np.array([], dtype=int), np.array([], dtype=int))

    @given(st.integers(6, 30), st.integers(2, 4), st.integers(0, 10_000))
    @settings(max_examples=60, deadline=None)
    def test_bound_random(self, n, j, seed):
        rng = np.random.default_rng(seed)
        groups = random_partition(rng, n, j)
        w = kw_statistic(rng.permutation(n) + 1, groups)
        assert -1e-12 <= w <= n - 1 + 1e-12


class TestPercentileStatistic:
    def test_hand_example(self):
        got = percentile_statistic(np.array([1, 2, 3, 4]), np.array([1, 1, 2, 2]), 0.5)
        assert got == pytest.approx(27 / 11, abs=1e-12)

    def test_equals_kw_at_r_one(self):
        rng = np.random.default_rng(5)
        for _ in range(300):
            n = int(rng.integers(6, 40))
            j = int(rng.integers(2, 5))
            ranks = rng.permutation(n) + 1
            groups = random_partition(rng, n, j)
            assert percentile_statistic(ranks, groups, 1.0) == pytest.approx(
                kw_statistic(ranks, groups), abs=1e-10
            )

    def test_invariant_under_group_relabeling(self):
        rng = np.random.default_rng(8)
        ranks = rng.permutation(12) + 1
        groups = np.array([1, 1, 1, 1, 2, 2, 2, 2, 3, 3, 3, 3])
        swapped = np.array([{1: 2, 2: 3, 3: 1}[g] for g in groups])
        a = percentile_statistic(ranks, groups, 0.6)
        b = percentile_statistic(ranks, swapped, 0.6)
        assert a == pytest.approx(b, abs=1e-12)

    def test_degenerate_warns(self):
        with pytest.warns(UserWarning, match="degenerate"):
            percentile_statistic(np.arange(1, 9), np.array([1, 1, 2, 2, 3, 3, 4, 4]), 0.3)

    def test_r_out_of_range(self):
        with pytest.raises(ParameterError):
            percentile_statistic(np.arange(1, 5), np.array([1, 1, 2, 2]), 1.5)


class TestFkwcTest:
    def test_duplicated_groups_accept(self, grid101):
        rng = np.random.default_rng(17)
        base = rng.normal(size=(50, grid101.m))
        ds = FunctionalDataset(grid101, np.vstack([base, base]), [1] * 50 + [2] * 50)
        res = fkwc_test(ds, TestConfig(depth_spec=DepthSpec(kind="ltr", rng_seed=4)))
        assert res.statistic < 0.03
        assert res.p_value > 0.85
        assert not res.reject
        assert res.tie_breaks_applied == 50

    def test_chi2_critical_value(self):
        assert chi2.ppf(0.95, 1) == pytest.approx(CHI2_1_CRIT, abs=1e-3)

    def test_permutation_null_matches_chi2(self, grid101):
        # fixed ranks, permuted labels: W should follow chi2 with J-1 dof
        rng = np.random.default_rng(23)
        n, j = 90, 3
        ranks = rng.permutation(n) + 1
        groups = np.repeat([1, 2, 3], n // 3)
        stats = []
        for _ in range(800):
            stats.append(kw_statistic(ranks, rng.permutation(groups)))
        stats = np.sort(stats)
        ecdf = np.arange(1, len(stats) + 1) / len(stats)
        model = chi2.cdf(stats, j - 1)
        ks = max(np.abs(ecdf - model).max(), np.abs(ecdf - 1 / len(stats) - model).max())
        assert ks < 0.06

    def test_result_bookkeeping(self, two_group_dataset):
        res = fkwc_test(two_group_dataset, TestConfig(depth_spec=DepthSpec(kind="mbd")))
        n = two_group_dataset.n_curves
        sizes = two_group_dataset.group_sizes
        total = sum(s * mu for s, mu in zip(sizes, res.group_mean_ranks))
        assert total == pytest.approx(n * (n + 1) / 2, abs=1e-9)
        assert res.df == 1
        assert res.p_value == pytest.approx(float(chi2.sf(res.statistic, 1)), abs=1e-15)

    def test_p_value_is_chi2_sf_bit_for_bit(self, grid21):
        rng = np.random.default_rng(11)
        for df in range(1, 12):
            groups = np.repeat(np.arange(1, df + 2), 4)
            scales = rng.uniform(0.5, 2.0, size=(groups.size, 1))
            ds = FunctionalDataset(grid21, scales * rng.normal(size=(groups.size, grid21.m)), groups)
            for r in (None, 0.7):
                res = fkwc_test(ds, TestConfig(depth_spec=DepthSpec(kind="ltr", rng_seed=df),
                                               percentile_r=r))
                assert res.df == df
                assert res.p_value == float(chi2.sf(res.statistic, df))

    @given(
        sizes=st.lists(st.integers(1, 7), min_size=2, max_size=6),
        seed=st.integers(0, 2**16),
        r=st.sampled_from([None, 0.6, 1.0]),
    )
    @example(sizes=[1, 1], seed=0, r=None)
    @example(sizes=[1, 5, 1, 1, 2, 1], seed=3, r=0.6)
    @settings(max_examples=80, deadline=None)
    def test_mean_ranks_and_w_equal_masked_loop(self, sizes, seed, r):
        grid = Grid.regular(21)
        rng = np.random.default_rng(seed)
        groups = np.repeat(np.arange(1, len(sizes) + 1), sizes)
        ds = FunctionalDataset(grid, rng.normal(size=(groups.size, grid.m)), groups)
        spec = DepthSpec(kind="ltr", rng_seed=seed)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # floor(rN) < J is degenerate but computed
            res = fkwc_test(ds, TestConfig(depth_spec=spec, percentile_r=r))
        ranks = depth_ranks(ds, spec).ranks
        assert res.group_mean_ranks == masked_mean_ranks(ranks, groups)
        center = (groups.size + 1) / 2.0
        assert res.group_deviations == tuple((mu - center) ** 2 for mu in res.group_mean_ranks)
        assert kw_statistic(ranks, groups) == masked_kw(ranks, groups)
        if r is None:
            assert res.statistic == masked_kw(ranks, groups)

    def test_percentile_config_used(self, two_group_dataset):
        spec = DepthSpec(kind="ltr", rng_seed=3)
        rw = fkwc_test(two_group_dataset, TestConfig(depth_spec=spec))
        rm = fkwc_test(two_group_dataset, TestConfig(depth_spec=spec, percentile_r=1.0))
        assert rm.statistic_kind == "M_r"
        assert rm.statistic == pytest.approx(rw.statistic, abs=1e-10)

    def test_depth_monotone_transform_leaves_result_unchanged(self, two_group_dataset):
        # same ordering, different depth values: ranks are all that matter
        spec_a = DepthSpec(kind="ksd", rng_seed=5)
        spec_b = DepthSpec(kind="ksd", kernel_bandwidth=17.0, rng_seed=5)
        # not a monotone transform pair in general; use ltr vs scaled curves instead
        rng = np.random.default_rng(2)
        base = rng.normal(size=(24, two_group_dataset.grid.m))
        ds1 = FunctionalDataset(two_group_dataset.grid, base, [1] * 12 + [2] * 12)
        ds2 = FunctionalDataset(two_group_dataset.grid, 5.0 * base, [1] * 12 + [2] * 12)
        r1 = fkwc_test(ds1, TestConfig(depth_spec=DepthSpec(kind="ltr", rng_seed=6)))
        r2 = fkwc_test(ds2, TestConfig(depth_spec=DepthSpec(kind="ltr", rng_seed=6)))
        assert r1.statistic == pytest.approx(r2.statistic, abs=1e-12)
        assert r1.p_value == pytest.approx(r2.p_value, abs=1e-12)


def enumerated_exact_p(x, y):
    """Two-sided exact rank-sum p-value by enumerating all C(n, n1) splits
    of the doubled mid-ranks (test oracle for the counting path)."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    n1, n = x.size, x.size + y.size
    ranks = rankdata(np.concatenate([x, y]))
    doubled = np.round(2.0 * ranks).astype(int)
    obs = int(round(2.0 * ranks[:n1].sum()))
    mu2 = doubled.sum() * n1 / n
    dev_obs = abs(obs - mu2)
    hits = 0
    total = 0
    for comb_idx in itertools.combinations(range(n), n1):
        t2 = sum(doubled[i] for i in comb_idx)
        if abs(t2 - mu2) >= dev_obs - 1e-9:
            hits += 1
        total += 1
    return hits / total


small_tied_sample = st.lists(st.integers(0, 3), min_size=1, max_size=8)

# integer values tie often; the infinities tie among themselves, and -0.0
# ties with 0.0
tied_values = st.lists(
    st.one_of(st.integers(-4, 4).map(float), st.sampled_from([np.inf, -np.inf, 0.0, -0.0])),
    min_size=1, max_size=40,
)


@given(tied_values)
@example([0.0, -0.0, 0.0])
@example([np.inf, -np.inf, np.inf, 1.0])
@settings(max_examples=200, deadline=None)
def test_mid_ranks_equal_rankdata_and_unique_counts(values):
    values = np.array(values)
    ranks, runs = _mid_ranks(values)
    assert ranks.tobytes() == rankdata(values).tobytes()
    np.testing.assert_array_equal(runs, np.unique(values, return_counts=True)[1])


class TestWilcoxon:
    def test_matches_exact_on_small_sample(self):
        rng = np.random.default_rng(31)
        x = rng.normal(size=8)
        y = rng.normal(size=7) + 1.0
        p_norm = wilcoxon_rank_sum(x, y, method="normal")
        p_exact = wilcoxon_rank_sum(x, y, method="exact")
        assert abs(p_norm - p_exact) < 0.05
        assert 0.0 <= p_exact <= 1.0

    def test_tie_correction_reduces_variance(self):
        x = np.array([1.0, 1.0, 2.0, 2.0, 3.0])
        y = np.array([1.0, 2.0, 2.0, 3.0, 3.0])
        p = wilcoxon_rank_sum(x, y)
        assert 0.0 <= p <= 1.0

    def test_identical_samples_p_one(self):
        x = np.ones(6)
        assert wilcoxon_rank_sum(x, x) == 1.0

    def test_shifted_sample_small_p(self):
        rng = np.random.default_rng(4)
        x = rng.normal(size=60)
        y = rng.normal(size=60) + 2.0
        assert wilcoxon_rank_sum(x, y) < 1e-6

    @given(small_tied_sample, small_tied_sample)
    @example([2], [0, 1, 2, 3, 3])
    @example([0, 1, 1, 3, 3, 0, 2], [3, 0, 1])
    @example([1, 1, 1, 1], [1, 1, 1, 1, 1, 1])
    @example([3], [3])
    @settings(max_examples=100, deadline=None)
    def test_exact_counts_equal_enumeration(self, x, y):
        assert wilcoxon_rank_sum(x, y, method="exact") == enumerated_exact_p(x, y)

    def test_exact_near_normal_at_40_vs_40(self):
        rng = np.random.default_rng(40)
        x = rng.normal(size=40)
        y = rng.normal(size=40) + 0.4
        p_exact = wilcoxon_rank_sum(x, y, method="exact")
        assert abs(p_exact - wilcoxon_rank_sum(x, y, method="normal")) < 0.01

    @given(st.lists(st.integers(0, 6), min_size=1, max_size=30),
           st.lists(st.integers(0, 6), min_size=1, max_size=30),
           st.floats(0.0, 1.0))
    @example([0, 1], [2], 0.0)
    @settings(max_examples=100, deadline=None)
    def test_normal_path_is_norm_sf_bit_for_bit(self, x, y, jitter):
        x = np.array(x) + jitter * np.arange(len(x)) / 7.0
        y = np.array(y, dtype=float)
        pooled = np.concatenate([x, y])
        n1, n = x.size, pooled.size
        _, counts = np.unique(pooled, return_counts=True)
        ties = float(((counts**3) - counts).sum())
        var = n1 * (n - n1) / 12.0 * ((n + 1) - ties / (n * (n - 1)))
        if var <= 0.0:
            assert wilcoxon_rank_sum(x, y) == 1.0
            return
        z = (rankdata(pooled)[:n1].sum() - n1 * (n + 1) / 2.0) / math.sqrt(var)
        assert wilcoxon_rank_sum(x, y) == float(2.0 * norm.sf(abs(z)))

    @pytest.mark.parametrize("method", ["normal", "exact"])
    def test_nan_sample_refused(self, method):
        with pytest.raises(ParameterError, match="NaN"):
            wilcoxon_rank_sum([np.nan, 1.0], [2.0], method=method)
        with pytest.raises(ParameterError, match="NaN"):
            wilcoxon_rank_sum([1.0, 3.0], [2.0, np.nan], method=method)

    @pytest.mark.parametrize("method", ["normal", "exact"])
    def test_infinite_samples_rank_as_extremes(self, method):
        # overflowing ltr norms give -inf sort keys; they rank below every finite key
        got = wilcoxon_rank_sum([-np.inf, -np.inf, 1.0], [np.inf, 2.0, 0.5], method=method)
        assert got == wilcoxon_rank_sum([-9.0, -9.0, 1.0], [9.0, 2.0, 0.5], method=method)

    def test_exact_guard(self):
        with pytest.raises(ParameterError):
            wilcoxon_rank_sum(np.arange(150), np.arange(150), method="exact")


class TestAdjustments:
    def test_sidak_closed_form(self):
        got = adjust_pvalues(np.array([0.05]), 10, "sidak")[0]
        assert got == pytest.approx(0.4012630607616213, abs=1e-14)

    def test_bonferroni_clips(self):
        np.testing.assert_allclose(
            adjust_pvalues(np.array([0.3, 0.001]), 5, "bonferroni"), [1.0, 0.005]
        )

    def test_holm_monotone(self):
        raw = np.array([0.01, 0.04, 0.03, 0.005])
        adj = adjust_pvalues(raw, 4, "holm")
        order = np.argsort(raw)
        assert np.all(np.diff(adj[order]) >= -1e-15)
        assert np.all(adj >= raw - 1e-15)

    def test_unknown_correction(self):
        with pytest.raises(ParameterError):
            adjust_pvalues(np.array([0.5]), 2, "fdr")

    @given(
        st.lists(st.sampled_from([0.0, 1e-300, 0.004, 0.01, 0.25, 0.3, 0.5, 1.0])
                 | st.floats(0.0, 1.0), min_size=1, max_size=12),
        st.integers(1, 30),
    )
    @settings(max_examples=300)
    @example([0.01, 0.04, 0.03, 0.005], 2)
    def test_holm_equals_loop(self, raw, m):
        # m below len(raw) clamps the multiplier at 1 for the largest p-values
        got = adjust_pvalues(np.array(raw), m, "holm")
        assert got.tobytes() == holm_loop_reference(raw, m).tobytes()


class TestSteelMc:
    def test_two_groups_single_pair(self, two_group_dataset):
        res = steel_mc(two_group_dataset, DepthSpec(kind="ltr", rng_seed=2))
        assert res.num_comparisons == 1
        assert res.pairwise_adjusted_p[0, 1] == res.pairwise_raw_p[0, 1]
        # raw p equals a direct rank-sum on the depth ordering keys
        keys = depth_sort_keys(two_group_dataset, DepthSpec(kind="ltr"))
        direct = wilcoxon_rank_sum(
            keys[two_group_dataset.groups == 1], keys[two_group_dataset.groups == 2]
        )
        assert res.pairwise_raw_p[0, 1] == pytest.approx(direct, abs=1e-12)

    def test_matrix_symmetric_unit_diagonal(self, grid101):
        rng = np.random.default_rng(40)
        ds = FunctionalDataset(
            grid101, rng.normal(size=(36, grid101.m)), [1] * 12 + [2] * 12 + [3] * 12
        )
        res = steel_mc(ds, DepthSpec(kind="mbd", rng_seed=3))
        np.testing.assert_array_equal(res.pairwise_raw_p, res.pairwise_raw_p.T)
        np.testing.assert_array_equal(np.diag(res.pairwise_raw_p), np.ones(3))
        np.testing.assert_array_equal(np.diag(res.pairwise_adjusted_p), np.ones(3))
        assert np.all(res.pairwise_adjusted_p >= res.pairwise_raw_p - 1e-15)

    def test_third_group_does_not_affect_pair(self, grid101):
        rng = np.random.default_rng(41)
        a = rng.normal(size=(15, grid101.m))
        b = 2.0 * rng.normal(size=(15, grid101.m))
        c = 10.0 * rng.normal(size=(15, grid101.m))
        two = FunctionalDataset(grid101, np.vstack([a, b]), [1] * 15 + [2] * 15)
        three = FunctionalDataset(grid101, np.vstack([a, b, c]), [1] * 15 + [2] * 15 + [3] * 15)
        spec = DepthSpec(kind="mbd", rng_seed=7)
        p_two = steel_mc(two, spec).pairwise_raw_p[0, 1]
        p_three = steel_mc(three, spec).pairwise_raw_p[0, 1]
        assert p_two == p_three

    def test_correction_count_override(self, two_group_dataset):
        res = steel_mc(two_group_dataset, DepthSpec(kind="ltr"), correction_count=22)
        raw = res.pairwise_raw_p[0, 1]
        assert res.pairwise_adjusted_p[0, 1] == pytest.approx(
            1.0 - (1.0 - raw) ** 22, abs=1e-12
        )
        assert res.num_comparisons == 22

    @pytest.mark.parametrize("correction", ["sidak", "bonferroni", "holm"])
    @pytest.mark.parametrize("correction_count", [None, 2, 9])
    def test_matrices_equal_loop_fill(self, correction, correction_count, grid21):
        rng = np.random.default_rng(43)
        scales = np.repeat([1.0, 1.2, 2.0, 3.0], 8)
        ds = FunctionalDataset(grid21, scales[:, None] * rng.normal(size=(32, grid21.m)),
                               np.repeat([1, 2, 3, 4], 8))
        spec = DepthSpec(kind="rp", rng_seed=5)
        res = steel_mc(ds, spec, correction_count=correction_count, correction=correction)
        m = 6 if correction_count is None else correction_count  # 2 is below the 6 pairs
        raw, adjusted = steel_mc_loop_reference(ds, spec, m, correction)
        assert res.pairwise_raw_p.tobytes() == raw.tobytes()
        assert res.pairwise_adjusted_p.tobytes() == adjusted.tobytes()

    @pytest.mark.parametrize("kind", ["spatial", "mfhd"])
    def test_primed_derives_the_channel_once(self, kind, grid21, monkeypatch):
        # the pairs' subsets slice one channel derived for the whole dataset;
        # differentiate works row by row, so the p-values are those of
        # subsets that each derive their own
        rng = np.random.default_rng(44)
        scales = np.repeat([1.0, 1.5, 2.5], 10)
        curves = scales[:, None] * rng.normal(size=(30, grid21.m)).cumsum(axis=1)
        groups = np.repeat([1, 2, 3], 10)
        spec = DepthSpec(kind=kind, use_derivatives=True, rng_seed=8)
        raw, adjusted = steel_mc_loop_reference(
            FunctionalDataset(grid21, curves, groups), spec, 3, "sidak"
        )
        calls = []
        original = fkwc.fdata.differentiate

        def counting(curves, grid):
            calls.append(curves.shape)
            return original(curves, grid)

        monkeypatch.setattr(fkwc.fdata, "differentiate", counting)
        res = steel_mc(FunctionalDataset(grid21, curves, groups), spec)
        assert calls == [(30, grid21.m)]
        assert res.pairwise_raw_p.tobytes() == raw.tobytes()
        assert res.pairwise_adjusted_p.tobytes() == adjusted.tobytes()

    def test_exact_does_not_warn(self, grid101):
        rng = np.random.default_rng(42)
        ds = FunctionalDataset(grid101, rng.normal(size=(6, grid101.m)), [1] * 3 + [2] * 3)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            steel_mc(ds, DepthSpec(kind="ltr"), method="exact")

    def test_small_groups_warn(self, grid101):
        rng = np.random.default_rng(42)
        ds = FunctionalDataset(grid101, rng.normal(size=(6, grid101.m)), [1] * 3 + [2] * 3)
        with pytest.warns(UserWarning, match="normal approximation"):
            steel_mc(ds, DepthSpec(kind="ltr"))
