"""Grid-based functional samples and their L2 geometry.

Curves are held as rows of an (N, m) array of values on a shared equispaced
grid over [0, 1].  L2([0,1]) integrals are the grid's ``integrate`` and
``inner`` under its trapezoid weights; derivatives use second-order finite
differences unless supplied externally.
"""

from __future__ import annotations

import csv
import sys
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .exceptions import DataError

_HEADER_TOL = 1e-9


@dataclass(frozen=True)
class Grid:
    """m equispaced evaluation points on [0, 1], endpoints included."""

    m: int

    def __post_init__(self):
        if not isinstance(self.m, (int, np.integer)) or self.m < 3:
            raise DataError(f"grid needs an integer count of at least 3 points, got {self.m!r}")
        object.__setattr__(self, "m", int(self.m))

    @classmethod
    def regular(cls, m: int) -> "Grid":
        """Uniform grid with m points on [0, 1]."""
        return cls(m)

    @property
    def points(self) -> np.ndarray:
        return np.linspace(0.0, 1.0, self.m)

    @property
    def step(self) -> float:
        return 1.0 / (self.m - 1)

    @cached_property
    def trapezoid_weights(self) -> np.ndarray:
        """Read-only trapezoid weights, computed at the first read."""
        w = np.full(self.m, self.step)
        w[0] *= 0.5
        w[-1] *= 0.5
        w.setflags(write=False)
        return w

    def __reduce__(self):
        # rebuilt from m: a pickled copy of the weights would come back writable
        return Grid, (self.m,)

    def integrate(self, values) -> np.ndarray:
        """The trapezoid integral over [0, 1] of each row of ``values``."""
        # a C-contiguous copy: a transposed view takes another gemv path
        return np.ascontiguousarray(values) @ self.trapezoid_weights

    def inner(self, f, g) -> np.ndarray:
        """The L2 inner products <f_i, g_j> of the rows of ``f`` and ``g``."""
        return f @ (g * self.trapezoid_weights).T

    # One BLAS call over all rows rounds differently from a call per row:
    # a gemv's tail rows and a gemm take other kernels.  The two forms below
    # give the bits of the per-row call, for every row, in one NumPy call.

    def integrate_rows(self, values) -> np.ndarray:
        """``integrate`` of each row of ``values`` on its own: one dot
        product per row."""
        return np.vecdot(values, self.trapezoid_weights)

    def inner_rows(self, f, g) -> np.ndarray:
        """The (k, n) inner products <f_i, g_k>, row k the ``inner(f, g[k])``
        of each row g_k of ``g`` on its own: one gemv of ``f`` per row, in
        one stacked matmul.  Each weighted g_k starts on a 16-byte boundary,
        as the fresh array of ``inner`` does: for an ``f`` of one row the
        product is a dot, which OpenBLAS's SSE kernels sum in an order that
        depends on where that operand starts."""
        u = np.empty((len(g), self.m + self.m % 2))[:, :self.m]
        np.multiply(g, self.trapezoid_weights, out=u)
        return (f[None] @ u[:, :, None])[..., 0]


def _as_curves(values, grid: Grid, what: str = "curve") -> np.ndarray:
    arr = np.asarray(values, dtype=float)
    if arr.ndim == 1:
        arr = arr[None, :]
    if arr.ndim != 2 or arr.shape[1] != grid.m:
        raise DataError(
            f"{what} values have shape {np.shape(values)}, expected (*, {grid.m})"
        )
    if not np.all(np.isfinite(arr)):
        raise DataError(f"{what} values must be finite")
    return arr


def group_labels(groups, error=DataError):
    """``groups`` as 1-d int labels covering 1..J, each present, and the
    read-only group sizes N_1..N_J.  Integer arrays keep their values;
    other values whose float form is an integer within int64 range become
    that integer (``True`` as 1, ``"2"`` as 2).  Anything else, NaN, +-inf,
    2.5, ``"a"`` or a complex value among them, raises ``error``.  Coverage
    is checked in O(N): no count array is longer than N + 1."""
    labels = None
    try:
        groups = np.asarray(groups)
        if np.issubdtype(groups.dtype, np.integer):
            labels = groups.astype(int)  # a copy; uint64 labels above 2**63 wrap below 1
        elif not np.iscomplexobj(groups):  # the cast to float would drop an imaginary part
            flo = groups.astype(float)
            # NaN and +-inf fail the range test, which keeps the cast exact
            if np.all((np.abs(flo) < 2.0**63) & (flo == np.round(flo))):
                labels = flo.astype(int)
    except (TypeError, ValueError):
        pass
    if labels is None:
        raise error("group labels must be integers")
    if labels.ndim != 1:
        raise error(f"group labels must be 1-d, got shape {labels.shape}")
    if labels.size and 1 <= labels.min() and labels.max() <= labels.size:
        sizes = np.bincount(labels)[1:]
        if sizes.all():
            labels.setflags(write=False)
            sizes.setflags(write=False)
            return labels, sizes
    raise error("group labels must cover 1..J with every group present")


def differentiate(f, grid: Grid):
    """Numerical derivative: central differences inside, one-sided
    second-order stencils at the endpoints.  Exact on quadratics."""
    fa = np.asarray(f, dtype=float)
    single = fa.ndim == 1
    fa = _as_curves(fa, grid)
    h = grid.step
    d = np.empty_like(fa)
    d[:, 1:-1] = (fa[:, 2:] - fa[:, :-2]) / (2.0 * h)
    d[:, 0] = (-3.0 * fa[:, 0] + 4.0 * fa[:, 1] - fa[:, 2]) / (2.0 * h)
    d[:, -1] = (3.0 * fa[:, -1] - 4.0 * fa[:, -2] + fa[:, -3]) / (2.0 * h)
    return d[0] if single else d


@dataclass(frozen=True, eq=False, init=False)
class FunctionalDataset:
    """N curves on a common grid with group labels 1..J, checked by
    :func:`group_labels`, and the read-only group sizes N_1..N_J.

    ``derivatives`` is the derivative channel the primed depths read:
    externally computed derivative curves of the same shape when given,
    otherwise :func:`differentiate` of the curves, derived when first read
    and kept.  Reading a derived channel that overflowed raises DataError.
    """

    grid: Grid
    curves: np.ndarray
    groups: np.ndarray
    group_sizes: np.ndarray

    def __init__(self, grid: Grid, curves, groups, derivatives=None):
        curves = _as_curves(curves, grid)
        groups, sizes = group_labels(groups)
        if groups.size != curves.shape[0]:
            raise DataError(
                f"got {groups.size} group labels for {curves.shape[0]} curves"
            )
        if derivatives is not None:
            deriv = _as_curves(derivatives, grid, what="derivative")
            if deriv.shape != curves.shape:
                raise DataError(
                    f"derivatives shape {deriv.shape} does not match curves {curves.shape}"
                )
            deriv = deriv.copy()
            deriv.setflags(write=False)
            # the cached_property below reads the instance dict first
            self.__dict__["derivatives"] = deriv
        curves = curves.copy()
        curves.setflags(write=False)
        object.__setattr__(self, "grid", grid)
        object.__setattr__(self, "curves", curves)
        object.__setattr__(self, "groups", groups)
        object.__setattr__(self, "group_sizes", sizes)

    def __reduce__(self):
        # rebuilt through __init__: pickled copies of the arrays would come
        # back writable, and the labels could then disagree with the sizes
        return FunctionalDataset, (self.grid, self.curves, self.groups,
                                   self.__dict__.get("derivatives"))

    @cached_property
    def derivatives(self) -> np.ndarray:
        """The given channel, or the curves' finite differences, read-only."""
        with np.errstate(over="ignore", invalid="ignore"):  # overflow is refused as inf
            deriv = _as_curves(differentiate(self.curves, self.grid), self.grid, "derivative")
        deriv.setflags(write=False)
        return deriv

    @cached_property
    def _channel_depths(self) -> dict:
        """Read-only depth N-vectors of this dataset's own channels, kept by
        ``depths._channel_depth`` for as long as the dataset lives."""
        return {}

    @cached_property
    def _channel_tables(self) -> dict:
        """Read-only tables of this dataset's own curves against themselves,
        per channel (N x N squared distances, strict counts), kept by
        ``depths._sample_table`` for as long as the dataset lives."""
        return {}

    @property
    def n_curves(self) -> int:
        return self.curves.shape[0]

    @property
    def n_groups(self) -> int:
        return self.group_sizes.size

    def with_finite_difference_derivatives(self) -> "FunctionalDataset":
        """Return ``self``: the derivative channel is derived when first
        read.  Kept for callers that name it, the benchmark's tracer among
        them."""
        return self

    def subset(self, labels) -> "FunctionalDataset":
        """Restrict to the given group labels, renumbering them 1..len(labels)
        in the order supplied."""
        labels = list(labels)
        mask = np.isin(self.groups, labels)
        if not mask.any():
            raise DataError(f"no curves in groups {labels}")
        remap = {old: new for new, old in enumerate(labels, start=1)}
        new_groups = np.array([remap[g] for g in self.groups[mask]])
        held = self.__dict__.get("derivatives")  # given, or derived by an earlier read
        deriv = None if held is None else held[mask]
        return FunctionalDataset(self.grid, self.curves[mask], new_groups, deriv)


# ---------------------------------------------------------------------------
# File format: wide CSV (header "group", then the m grid points; one row
# per curve).
# ---------------------------------------------------------------------------

def _format_float(x: float) -> str:
    return format(x, ".17g")


def write_csv(rows, path=None) -> None:
    """Write CSV rows to ``path`` with the csv module's \\r\\n line ends, or
    to stdout with \\n line ends when ``path`` is None."""
    if path is None:
        csv.writer(sys.stdout, lineterminator="\n").writerows(rows)
        return
    with open(path, "w", newline="") as fh:
        csv.writer(fh).writerows(rows)


def save_csv(ds: FunctionalDataset, path, derivatives_path=None) -> None:
    """Write the dataset in wide CSV form; optionally write its derivative
    channel to a second file of identical layout."""
    def rows(matrix):
        yield ["group"] + [_format_float(t) for t in ds.grid.points]
        for g, row in zip(ds.groups, matrix):
            yield [int(g)] + [_format_float(v) for v in row]

    # the channel first: a derived one that overflowed is refused on reading,
    # before either file is opened
    if derivatives_path is not None:
        write_csv(rows(ds.derivatives), derivatives_path)
    write_csv(rows(ds.curves), path)


def _parse_wide_csv(path):
    # rows are parsed as the reader yields them: the file's text is never
    # held whole, only the parsed values (a blank line still counts as a row)
    try:
        with open(path, newline="") as fh:
            return _parse_rows(path, csv.reader(fh))
    except UnicodeDecodeError as exc:
        bad = exc.object[exc.start:exc.start + 1].hex()
        raise DataError(f"{path}: not UTF-8 text (byte 0x{bad}: {exc.reason})") from None


def _parse_rows(path, rows):
    """(grid, group labels, curves) of a wide CSV's rows; ``path`` names
    the file in each message."""
    header = next(rows, None)
    if header is None:
        raise DataError(f"{path}: empty file")
    if not header or header[0].strip().lower() != "group":
        raise DataError(f"{path}: first header column must be 'group'")
    try:
        points = np.array([float(c) for c in header[1:]])
    except ValueError as exc:
        raise DataError(f"{path}: non-numeric grid point in header ({exc})") from None
    m = points.size
    if m < 3 or not (np.abs(points - np.linspace(0.0, 1.0, m)) <= _HEADER_TOL).all():
        raise DataError(
            f"{path}: header grid must be at least 3 equispaced points from 0 to 1"
        )
    grid = Grid(m)
    groups, values = [], []
    for r, row in enumerate(rows, start=2):
        if not row:
            continue
        if len(row) != m + 1:
            raise DataError(f"{path}: row {r} has {len(row)} fields, expected {m + 1}")
        try:
            groups.append(int(row[0]))
        except ValueError:
            raise DataError(
                f"{path}: row {r}, column 1: bad group label {row[0]!r}"
            ) from None
        try:
            values.append(np.fromiter(map(float, row[1:]), float, m))
        except ValueError:
            # scan again only to name the cell
            for c, cell in enumerate(row[1:], start=2):
                try:
                    float(cell)
                except ValueError:
                    raise DataError(
                        f"{path}: row {r}, column {c}: could not parse {cell!r} as a number"
                    ) from None
            raise
    if not values:
        raise DataError(f"{path}: no curves found")
    return grid, np.array(groups), np.array(values)


def load_csv(path, derivatives_path=None) -> FunctionalDataset:
    """Read a wide CSV dataset; a second file may supply the derivative
    channel (same grid, same row order; its group column must agree)."""
    grid, groups, curves = _parse_wide_csv(path)
    deriv = None
    if derivatives_path is not None:
        dgrid, dgroups, deriv = _parse_wide_csv(derivatives_path)
        if dgrid != grid:
            raise DataError(f"{derivatives_path}: grid does not match {path}")
        if not np.array_equal(dgroups, groups):
            raise DataError(f"{derivatives_path}: group column does not match {path}")
    return FunctionalDataset(grid, curves, groups, deriv)
