"""Grid geometry, dataset validation, quadrature, differentiation, IO."""

import copy
import os
import pickle
import platform
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import fkwc.fdata
from fkwc import (
    DataError,
    DepthSpec,
    FunctionalDataset,
    Grid,
    ParameterError,
    TestConfig,
    differentiate,
    fkwc_test,
    load_csv,
    save_csv,
    steel_mc,
)
from fkwc.depths import depth_sort_keys
from fkwc.fdata import group_labels


def curve_arrays(m=11, n=1):
    return st.lists(
        st.lists(st.floats(-50, 50, allow_nan=False), min_size=m, max_size=m),
        min_size=n,
        max_size=n,
    ).map(lambda rows: np.array(rows))


class TestGrid:
    def test_regular(self):
        g = Grid.regular(5)
        assert g.m == 5
        assert g.step == 0.25
        np.testing.assert_allclose(g.points, [0, 0.25, 0.5, 0.75, 1.0])

    def test_too_small(self):
        with pytest.raises(DataError):
            Grid.regular(2)

    def test_not_equispaced(self, tmp_path):
        path = tmp_path / "uneven.csv"
        path.write_text("group,0,0.3,1\n1,1,2,3\n")
        with pytest.raises(DataError, match="uneven.csv"):
            load_csv(path)

    def test_bad_endpoints(self, tmp_path):
        path = tmp_path / "ends.csv"
        path.write_text("group,0.1,0.5,1\n1,1,2,3\n")
        with pytest.raises(DataError, match="ends.csv"):
            load_csv(path)

    def test_weights_sum_to_one(self, grid101):
        assert abs(grid101.trapezoid_weights.sum() - 1.0) < 1e-12

    def test_equal_to_regular_with_equal_hash(self):
        assert Grid(101) == Grid.regular(101)
        assert hash(Grid(101)) == hash(Grid.regular(101))
        assert Grid(101) != Grid(102)

    def test_repr(self):
        assert repr(Grid(101)) == "Grid(m=101)"

    @pytest.mark.parametrize("m", [3, 21, 101, 1000])
    def test_points_are_linspace_bit_for_bit(self, m):
        pts = Grid(m).points
        assert pts.tobytes() == np.linspace(0, 1, m).tobytes()

    @pytest.mark.parametrize("m", [2, 3.5, np.linspace(0, 1, 5)], ids=["two", "float", "array"])
    def test_refuses_non_integer_or_small_counts(self, m):
        with pytest.raises(DataError):
            Grid(m)

    def test_numpy_integer_accepted(self):
        g = Grid(np.int64(5))
        assert g == Grid(5)
        assert repr(g) == "Grid(m=5)"


class TestInnerProduct:
    """The trapezoid-rule integral and L2 inner product the kernels use,
    ``Grid.integrate`` and ``Grid.inner``."""

    def test_constant_one(self, grid101):
        one = np.ones(grid101.m)
        assert grid101.integrate(one * one) == pytest.approx(1.0, abs=1e-12)

    def test_linear_times_one_is_half(self, grid101):
        t = grid101.points
        assert grid101.integrate(t) == pytest.approx(0.5, abs=1e-12)

    def test_fourier_orthogonality(self):
        g = Grid(201)
        t = g.points
        val = g.integrate(np.sin(2 * np.pi * t) * np.cos(2 * np.pi * t))
        assert abs(val) < 1e-8

    def test_inner_products_of_rows(self, grid21):
        rng = np.random.default_rng(8)
        f, h = rng.normal(size=(4, grid21.m)), rng.normal(size=(3, grid21.m))
        want = [[grid21.integrate(fi * hj) for hj in h] for fi in f]
        np.testing.assert_allclose(grid21.inner(f, h), want, rtol=1e-13, atol=1e-13)
        assert grid21.inner(f, h[0]).tobytes() == (f @ (h[0] * grid21.trapezoid_weights)).tobytes()

    @pytest.mark.parametrize("m, q", [(5, 7), (31, 50), (101, 100), (101, 300)])
    def test_integrate_transposed_view_as_its_contiguous_copy(self, m, q):
        # such a view, times the weights, sums in another order: on these
        # shapes 1 to 177 of the q integrals differ in their last bits
        values = np.random.default_rng(m + q).random((m, q))
        got = Grid(m).integrate(values.T)
        assert got.tobytes() == Grid(m).integrate(values.T.copy()).tobytes()

    @pytest.mark.parametrize("n, m", [(1, 3), (1, 101), (7, 21), (30, 101), (101, 101)])
    def test_row_forms_are_the_per_row_calls(self, n, m):
        # the one-call forms give the bits of a call per row, which a gemv
        # over all rows (``integrate``) or a gemm (``inner``) need not give
        rng = np.random.default_rng(n * m)
        grid, f, dirs = Grid(m), rng.standard_t(1, size=(n, m)), rng.normal(size=(20, m))
        want = np.array([grid.integrate(row.copy()) for row in f])
        assert grid.integrate_rows(f).tobytes() == want.tobytes()
        want = np.array([grid.inner(f, d) for d in dirs])
        assert grid.inner_rows(f, dirs).tobytes() == want.tobytes()
        stack = rng.standard_t(1, size=(3, n, m))
        want = np.array([grid.integrate(s.copy()) for s in stack])
        assert grid.integrate(stack).tobytes() == want.tobytes()

    def test_weights_cached_read_only_and_kept_out_of_equality_and_pickles(self):
        g = Grid(21)
        w = g.trapezoid_weights
        assert g.trapezoid_weights is w and not w.flags.writeable
        with pytest.raises(ValueError):
            w[0] = 1.0
        assert g == Grid(21) and hash(g) == hash(Grid(21)) and g != Grid(22)
        for back in (pickle.loads(pickle.dumps(g)), copy.deepcopy(g)):
            assert back == g and hash(back) == hash(g) and repr(back) == "Grid(m=21)"
            assert "trapezoid_weights" not in vars(back)
            assert not back.trapezoid_weights.flags.writeable
            assert back.trapezoid_weights.tobytes() == w.tobytes()


BLOCK_FORMS = """
import numpy as np
from fkwc import Grid

rng = np.random.default_rng(23)
for n in (1, 3, 7, 30, 101):
    for m in (3, 21, 101):
        grid = Grid(m)
        f, dirs = rng.standard_t(1, size=(n, m)), rng.normal(size=(20, m))
        stack = rng.standard_t(1, size=(3, n, m)) ** 2
        z = grid.inner_rows(f, dirs)
        # the loops call BLAS on fresh arrays, as the loops the block forms
        # replace did: some kernels sum by where an operand starts
        pairs = {
            "stacked matmul": (grid.integrate(stack), [grid.integrate(s.copy()) for s in stack]),
            "vecdot": (grid.integrate_rows(f), [grid.integrate(row.copy()) for row in f]),
            "stacked gemv": (z, [grid.inner(f, d) for d in dirs]),
            "ptp": (np.ptp(z, axis=1), [np.ptp(row) for row in z]),
            "max": (np.abs(z).max(axis=1), [np.abs(row).max() for row in z]),
        }
        if n > 1:
            pairs["std"] = (z.std(axis=1, ddof=1), [row.std(ddof=1) for row in z])
        for name, (block, rows) in pairs.items():
            if block.tobytes() != np.array(rows).tobytes():
                print(name, n, m)
print("done")
"""

# OpenBLAS kernel sets and the /proc/cpuinfo flag each needs
CORETYPES = {"Prescott": "pni", "Haswell": "avx2", "Zen": "avx2", "SkylakeX": "avx512f"}


def _blas_name() -> str:
    try:
        return str(np.show_config(mode="dicts")["Build Dependencies"]["blas"]["name"])
    except (KeyError, TypeError, ValueError):
        return "unknown"


class TestBlockFormsPortability:
    """The one-call forms the depths use equal their per-row loops on the
    kernels another CPU would run: each OpenBLAS core type, and NumPy
    without its AVX-512 (X86_V4) loops.  Three NumPy facts carry them: a
    stacked matmul makes one gemv per matrix, ``np.vecdot`` one dot per
    row, and ``std``, ``ptp`` and ``max`` along axis 1 reduce each row as
    the 1-d call does.  A NumPy or BLAS that breaks one fails here, rather
    than moving the bits of a depth."""

    @staticmethod
    def run(**env):
        env = dict(os.environ, PYTHONPATH=str(Path(fkwc.fdata.__file__).parents[1]), **env)
        proc = subprocess.run([sys.executable, "-c", BLOCK_FORMS], env=env,
                              capture_output=True, text=True, timeout=300)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.splitlines() == ["done"]

    @pytest.mark.parametrize("coretype", list(CORETYPES))
    def test_openblas_core_types(self, coretype):
        blas = _blas_name()
        if "openblas" not in blas.lower():
            pytest.skip(f"NumPy's BLAS is {blas!r}, not OpenBLAS: no OPENBLAS_CORETYPE")
        if platform.machine() not in ("x86_64", "AMD64"):
            pytest.skip(f"x86-64 core types, on {platform.machine()}")
        try:
            with open("/proc/cpuinfo") as fh:
                flags = next((line for line in fh if line.startswith("flags")), "").split()
        except OSError:
            pytest.skip("no /proc/cpuinfo to read the CPU's features from")
        if CORETYPES[coretype] not in flags:
            pytest.skip(f"this CPU lacks {CORETYPES[coretype]}, which {coretype} needs")
        self.run(OPENBLAS_CORETYPE=coretype)

    def test_without_numpy_avx512_loops(self):
        self.run(NPY_DISABLE_CPU_FEATURES="AVX512_SPR AVX512_ICL X86_V4")


def ltr_norms(curves, grid):
    """Root of the squared L2 norms that ``ltr`` ranks."""
    curves = np.atleast_2d(curves)
    ds = FunctionalDataset(grid, curves, np.ones(curves.shape[0], dtype=int))
    return np.sqrt(-depth_sort_keys(ds, DepthSpec(kind="ltr")))


class TestNorm:
    def test_zero(self, grid101):
        assert ltr_norms(np.zeros(grid101.m), grid101)[0] == 0.0

    def test_constant(self, grid101):
        assert ltr_norms(-3.0 * np.ones(grid101.m), grid101)[0] == pytest.approx(3.0, abs=1e-12)

    def test_unit_sine(self):
        g = Grid(201)
        f = np.sqrt(2.0) * np.sin(2 * np.pi * g.points)
        assert ltr_norms(f, g)[0] == pytest.approx(1.0, abs=1e-6)

    @given(curve_arrays(m=11, n=2))
    @settings(max_examples=50, deadline=None)
    def test_triangle_inequality(self, pair):
        g = Grid(11)
        f, h = ltr_norms(pair, g)
        assert ltr_norms(pair[0] + pair[1], g)[0] <= f + h + 1e-12


class TestDifferentiate:
    def test_constant(self, grid101):
        d = differentiate(np.full(grid101.m, 7.0), grid101)
        np.testing.assert_allclose(d, 0.0, atol=1e-10)

    def test_linear(self, grid101):
        d = differentiate(grid101.points, grid101)
        np.testing.assert_allclose(d, 1.0, atol=1e-10)

    def test_quadratic_exact_everywhere(self, grid101):
        t = grid101.points
        d = differentiate(t * t, grid101)
        np.testing.assert_allclose(d, 2 * t, atol=1e-10)

    @given(curve_arrays(m=11, n=2), st.floats(-4, 4), st.floats(-4, 4))
    @settings(max_examples=50, deadline=None)
    def test_linearity(self, pair, a, b):
        g = Grid(11)
        f, h = pair
        lhs = differentiate(a * f + b * h, g)
        rhs = a * differentiate(f, g) + b * differentiate(h, g)
        np.testing.assert_allclose(lhs, rhs, atol=1e-9 * (1 + np.abs(rhs).max()))


class TestDataset:
    def test_group_label_gap_rejected(self, grid21):
        with pytest.raises(DataError):
            FunctionalDataset(grid21, np.zeros((2, grid21.m)), [1, 3])

    def test_labels_must_start_at_one(self, grid21):
        with pytest.raises(DataError):
            FunctionalDataset(grid21, np.zeros((2, grid21.m)), [0, 1])

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("labels", [[1.0, np.inf], [1.0, np.nan], [1.0, 2.5], ["a", "b"]],
                             ids=["inf", "nan", "fraction", "text"])
    def test_non_integer_labels_rejected(self, grid21, labels):
        # +-inf must be refused before the integer cast, which warns and wraps it
        with pytest.raises(DataError, match="group labels must be integers"):
            FunctionalDataset(grid21, np.zeros((2, grid21.m)), labels)

    def test_complex_labels_rejected(self):
        # the cast to float once dropped the imaginary parts, giving groups [1, 2]
        with pytest.raises(DataError, match="group labels must be integers"):
            FunctionalDataset(Grid(5), np.zeros((2, 5)), [1 + 1j, 2 + 5j])

    @pytest.mark.parametrize("labels", [[1.0, 2.0], ["1", "2"], np.array([1, 2], dtype=np.uint8),
                                        np.array([True, True])],
                             ids=["float", "text", "uint8", "bool"])
    def test_integral_labels_read_as_integers(self, grid21, labels):
        ds = FunctionalDataset(grid21, np.zeros((2, grid21.m)), labels)
        np.testing.assert_array_equal(ds.groups, np.asarray(labels, dtype=float).astype(int))
        assert ds.groups.dtype == int

    def test_no_curves_rejected(self, grid21):
        with pytest.raises(DataError):
            FunctionalDataset(grid21, np.zeros((0, grid21.m)), [])

    def test_derivative_shape_checked(self, grid21):
        with pytest.raises(DataError):
            FunctionalDataset(
                grid21, np.zeros((2, grid21.m)), [1, 2], derivatives=np.zeros((3, grid21.m))
            )

    def test_group_sizes(self, two_group_dataset):
        ds = two_group_dataset
        assert ds.n_groups == 2
        np.testing.assert_array_equal(ds.group_sizes, [15, 15])
        # counted once, when the dataset was built
        assert ds.group_sizes is ds.group_sizes
        assert not ds.group_sizes.flags.writeable and not ds.groups.flags.writeable

    @pytest.mark.parametrize("derived", [False, True], ids=["channel-unread", "channel-derived"])
    def test_copies_keep_arrays_read_only(self, two_group_dataset, derived):
        ds = two_group_dataset
        if derived:
            ds.derivatives
        for back in (pickle.loads(pickle.dumps(ds)), copy.deepcopy(ds), copy.copy(ds)):
            for name in ("curves", "groups", "group_sizes", "derivatives"):
                assert not getattr(back, name).flags.writeable, name
                assert getattr(back, name).tobytes() == getattr(ds, name).tobytes(), name

    def test_subset_relabels(self, grid21):
        ds = FunctionalDataset(grid21, np.random.default_rng(0).normal(size=(9, grid21.m)),
                               [1, 1, 1, 2, 2, 2, 3, 3, 3])
        sub = ds.subset([3, 1])
        assert sub.n_curves == 6
        np.testing.assert_array_equal(sub.groups, [2, 2, 2, 1, 1, 1])


class TestGroupLabels:
    def test_labels_and_sizes(self):
        given = np.array([2, 1, 2, 3], dtype=np.int32)
        labels, sizes = group_labels(given)
        assert labels.dtype == int and labels is not given and given.flags.writeable
        np.testing.assert_array_equal(labels, [2, 1, 2, 3])
        np.testing.assert_array_equal(sizes, [1, 2, 1])

    @pytest.mark.parametrize("labels", [[], [0, 1], [1, 3],
                                        np.array([1, 2**64 - 1], dtype=np.uint64)],
                             ids=["empty", "zero", "gap", "uint64-above-int64"])
    def test_labels_not_covering_one_to_j_rejected(self, labels):
        with pytest.raises(ParameterError, match="cover 1..J"):
            group_labels(labels, ParameterError)

    @pytest.mark.parametrize("labels", [5, [[1, 2]], np.ones((2, 2, 1))], ids=["0-d", "2-d", "3-d"])
    def test_labels_not_one_dimensional_rejected(self, labels):
        with pytest.raises(DataError, match="1-d"):
            group_labels(labels)


class TestDerivativeChannel:
    def test_derived_by_differentiate_when_read(self, two_group_dataset):
        ds = two_group_dataset
        want = differentiate(ds.curves, ds.grid)
        assert ds.derivatives.tobytes() == want.tobytes()
        assert not ds.derivatives.flags.writeable

    def test_derived_once_and_only_when_read(self, grid21, monkeypatch):
        calls = []
        original = fkwc.fdata.differentiate

        def counting(curves, grid):
            calls.append(curves.shape)
            return original(curves, grid)

        monkeypatch.setattr(fkwc.fdata, "differentiate", counting)
        curves = np.random.default_rng(5).normal(size=(12, grid21.m))
        ds = FunctionalDataset(grid21, curves, np.repeat([1, 2, 3], 4))
        ds.subset([3, 1])
        for kind in ("ltr", "rp", "mfhd", "mbd", "spatial", "ksd"):
            spec = DepthSpec(kind=kind)
            fkwc_test(ds, TestConfig(depth_spec=spec))
            steel_mc(ds, spec)
        depth_sort_keys(ds, DepthSpec(kind="ltr"))
        assert calls == []
        first = ds.derivatives
        assert ds.derivatives is first
        primed = DepthSpec(kind="mfhd", use_derivatives=True)
        fkwc_test(ds, TestConfig(depth_spec=primed))
        steel_mc(ds, primed)  # its subsets slice the channel ds now holds
        assert calls == [(12, grid21.m)]

    def test_given_channel_kept(self, grid21):
        rng = np.random.default_rng(3)
        given = rng.normal(size=(4, grid21.m))
        ds = FunctionalDataset(grid21, rng.normal(size=(4, grid21.m)), [1, 1, 2, 2], given)
        assert ds.derivatives.tobytes() == given.tobytes()

    @pytest.mark.parametrize("given", [False, True])
    def test_subset_slices_channel(self, grid21, given):
        rng = np.random.default_rng(4)
        deriv = rng.normal(size=(6, grid21.m)) if given else None
        ds = FunctionalDataset(grid21, rng.normal(size=(6, grid21.m)), [1, 2, 3, 1, 2, 3], deriv)
        sub = ds.subset([3, 1])
        assert sub.derivatives.tobytes() == ds.derivatives[[0, 2, 3, 5]].tobytes()

    def test_overflowing_differences_refused_only_when_primed(self, grid21):
        # alternating signs near the largest float: the endpoint stencils overflow
        sign = np.where(np.arange(grid21.m) % 2 == 0, 1.0, -1.0)
        scale = np.linspace(1.0, 1.5, 10)[:, None]
        curves = 1e308 * scale * sign
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            ds = FunctionalDataset(grid21, curves, [1] * 5 + [2] * 5)
            with pytest.raises(DataError, match="derivative values must be finite"):
                ds.derivatives
            spec = DepthSpec(kind="mfhd")
            assert 0.0 <= fkwc_test(ds, TestConfig(depth_spec=spec)).p_value <= 1.0
            assert steel_mc(ds, spec).pairwise_raw_p.shape == (2, 2)
        # a primed analysis reads the channel, so it refuses it
        for kind in ("ltr", "rp", "mfhd", "mbd", "spatial", "ksd"):
            primed = DepthSpec(kind=kind, use_derivatives=True)
            with pytest.raises(DataError, match="derivative values must be finite"):
                fkwc_test(ds, TestConfig(depth_spec=primed))
            with pytest.raises(DataError, match="derivative values must be finite"):
                steel_mc(ds, primed)

    def test_overflowing_channel_not_saved(self, grid21, tmp_path):
        sign = np.where(np.arange(grid21.m) % 2 == 0, 1.0, -1.0)
        ds = FunctionalDataset(grid21, 1e308 * sign * np.ones((4, 1)), [1, 1, 2, 2])
        with pytest.raises(DataError, match="derivative values must be finite"):
            save_csv(ds, tmp_path / "c.csv", derivatives_path=tmp_path / "d.csv")
        assert list(tmp_path.iterdir()) == []


class TestCsvJson:
    def test_small_example(self, tmp_path):
        path = tmp_path / "tiny.csv"
        path.write_text("group,0,0.5,1\n1,1.0,2.0,3.0\n2,4.0,5.0,6.0\n")
        ds = load_csv(path)
        assert ds.n_curves == 2
        assert ds.n_groups == 2
        assert ds.grid.m == 3

    def test_header_grid_not_equispaced_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("group,0,0.4,1\n1,1,2,3\n2,1,2,3\n")
        with pytest.raises(DataError):
            load_csv(path)

    def test_non_numeric_cell_names_row_and_column(self, tmp_path):
        path = tmp_path / "cell.csv"
        path.write_text("group,0,0.5,1\n1,1.0,oops,3.0\n2,1,2,3\n")
        with pytest.raises(DataError, match=r"row 2, column 3"):
            load_csv(path)

    @pytest.mark.parametrize("text, message", [
        ("", "empty file"),
        ("group,0,0.5,1\r\n", "no curves found"),
        # the blank line counts as row 3
        ("group,0,0.5,1\r\n1,0,0,0\r\n\r\n2,0,0\r\n", "row 4 has 3 fields, expected 4"),
        ("group,0,0.5,1\r\n1,0,0,0\r\nx,0,0,0\r\n", "row 3, column 1: bad group label 'x'"),
        ("group,0,0.5,1\r\n1,0,0,0\r\n2,0,0,zz\r\n",
         "row 3, column 4: could not parse 'zz' as a number"),
    ], ids=["empty", "header-only", "blank-then-ragged", "bad-label", "bad-last-cell"])
    def test_error_message_text(self, tmp_path, text, message):
        path = tmp_path / "in.csv"
        path.write_bytes(text.encode())
        with pytest.raises(DataError) as info:
            load_csv(path)
        assert str(info.value) == f"{path}: {message}"

    def test_cells_read_as_float_reads_them(self, tmp_path):
        cells = ["-0", " 1.5 ", "1_0", "4.9e-324", "1e308", "+.5"]
        path = tmp_path / "cells.csv"
        points = ",".join(str(t) for t in Grid(len(cells)).points)
        path.write_text(f"group,{points}\n1,{','.join(cells)}\n")
        got = load_csv(path).curves
        assert got.tobytes() == np.array([[float(c) for c in cells]]).tobytes()

    def test_load_peaks_at_three_times_the_curve_bytes(self, tmp_path, traced_peak):
        # rows parsed as the reader yields them; the list of every row's
        # cell strings peaked at 11.9 times the curve bytes
        rng = np.random.default_rng(7)
        ds = FunctionalDataset(Grid(101), rng.standard_normal((300, 101)),
                               np.repeat([1, 2, 3], 100))
        path = tmp_path / "big.csv"
        save_csv(ds, path)
        assert traced_peak(lambda: load_csv(path)) <= 3 * ds.curves.nbytes

    def test_ragged_row_rejected(self, tmp_path):
        path = tmp_path / "ragged.csv"
        path.write_text("group,0,0.5,1\n1,1.0,2.0\n2,1,2,3\n")
        with pytest.raises(DataError, match=r"row 2"):
            load_csv(path)

    def test_roundtrip_exact(self, tmp_path, two_group_dataset):
        ds = two_group_dataset
        cpath = tmp_path / "data.csv"
        dpath = tmp_path / "deriv.csv"
        save_csv(ds, cpath, derivatives_path=dpath)
        back = load_csv(cpath, derivatives_path=dpath)
        np.testing.assert_array_equal(back.curves, ds.curves)
        np.testing.assert_array_equal(back.derivatives, ds.derivatives)
        np.testing.assert_array_equal(back.groups, ds.groups)
        np.testing.assert_array_equal(back.grid.points, ds.grid.points)

    @pytest.mark.parametrize(
        "header", ["0,nan,1", "0,1", "1,0.5,0"], ids=["nan", "two-points", "decreasing"]
    )
    def test_bad_header_rejected_naming_file(self, tmp_path, header):
        m = header.count(",") + 1
        path = tmp_path / "head.csv"
        path.write_text(f"group,{header}\n1," + ",".join(["1"] * m) + "\n")
        with pytest.raises(DataError, match="head.csv"):
            load_csv(path)

    def test_header_within_tolerance_accepted(self, tmp_path):
        path = tmp_path / "close.csv"
        path.write_text("group,0,0.5000000001,1\n1,1,2,3\n")
        assert load_csv(path).grid == Grid(3)

    def test_derivative_grid_mismatch_rejected(self, tmp_path):
        cpath = tmp_path / "c.csv"
        dpath = tmp_path / "d.csv"
        cpath.write_text("group,0,0.5,1\n1,1,2,3\n")
        dpath.write_text("group,0,0.25,0.5,0.75,1\n1,1,2,3,4,5\n")
        with pytest.raises(DataError, match="d.csv"):
            load_csv(cpath, derivatives_path=dpath)

    @given(st.integers(3, 400), st.integers(0, 2**32 - 1))
    @settings(max_examples=40, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    def test_roundtrip_any_grid_size(self, tmp_path, m, seed):
        rng = np.random.default_rng(seed)
        ds = FunctionalDataset(Grid(m), rng.standard_cauchy((3, m)), [1, 2, 2])
        path = tmp_path / "any.csv"
        save_csv(ds, path)
        back = load_csv(path)
        assert back.grid == Grid(m)
        assert back.curves.tobytes() == ds.curves.tobytes()
        np.testing.assert_array_equal(back.groups, ds.groups)
