"""Grid-based functional samples and their L2 geometry.

Curves are held as rows of an (N, m) array of values on a shared equispaced
grid over [0, 1].  L2([0,1]) integrals use the grid's trapezoid weights;
derivatives use second-order finite differences unless supplied externally.
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

    @property
    def trapezoid_weights(self) -> np.ndarray:
        w = np.full(self.m, self.step)
        w[0] *= 0.5
        w[-1] *= 0.5
        w.setflags(write=False)
        return w


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


def integer_labels(groups, error=DataError) -> np.ndarray:
    """``groups`` as an integer array: integer arrays as they are, other
    values whose float form is an integer within int64 range as that
    integer (``True`` as 1, ``"2"`` as 2).  Anything else, NaN, +-inf,
    2.5 or ``"a"`` among them, raises ``error``."""
    try:
        groups = np.asarray(groups)
        if np.issubdtype(groups.dtype, np.integer):
            return groups
        flo = groups.astype(float)
    except (TypeError, ValueError):
        flo = None
    # NaN and +-inf fail the range test, which keeps the cast exact
    if flo is None or not np.all((np.abs(flo) < 2.0**63) & (flo == np.round(flo))):
        raise error("group labels must be integers")
    return flo.astype(int)


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
    """N curves on a common grid with group labels 1..J.

    ``derivatives`` is the derivative channel the primed depths read:
    externally computed derivative curves of the same shape when given,
    otherwise :func:`differentiate` of the curves, derived when first read
    and kept.  Reading a derived channel that overflowed raises DataError.
    """

    grid: Grid
    curves: np.ndarray
    groups: np.ndarray

    def __init__(self, grid: Grid, curves, groups, derivatives=None):
        curves = _as_curves(curves, grid)
        groups = np.asarray(groups)
        if groups.ndim != 1 or groups.size != curves.shape[0]:
            raise DataError(
                f"got {groups.size} group labels for {curves.shape[0]} curves"
            )
        groups = integer_labels(groups).astype(int)
        labels = np.unique(groups)
        j = labels.size
        if j == 0 or labels[0] != 1 or labels[-1] != j:
            raise DataError(
                f"group labels must cover 1..J with every group present; got {labels.tolist()}"
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
        groups.setflags(write=False)  # a copy: astype copies
        object.__setattr__(self, "grid", grid)
        object.__setattr__(self, "curves", curves)
        object.__setattr__(self, "groups", groups)

    @cached_property
    def derivatives(self) -> np.ndarray:
        """The given channel, or the curves' finite differences, read-only."""
        with np.errstate(over="ignore", invalid="ignore"):  # overflow is refused as inf
            deriv = _as_curves(differentiate(self.curves, self.grid), self.grid, "derivative")
        deriv.setflags(write=False)
        return deriv

    @property
    def n_curves(self) -> int:
        return self.curves.shape[0]

    @property
    def n_groups(self) -> int:
        return int(self.groups.max())

    @property
    def group_sizes(self) -> np.ndarray:
        return np.bincount(self.groups, minlength=self.n_groups + 1)[1:]

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
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    if not rows:
        raise DataError(f"{path}: empty file")
    header = rows[0]
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
    for r, row in enumerate(rows[1:], start=2):
        if not row:
            continue
        if len(row) != m + 1:
            raise DataError(
                f"{path}: row {r} has {len(row)} fields, expected {m + 1}"
            )
        try:
            groups.append(int(row[0]))
        except ValueError:
            raise DataError(
                f"{path}: row {r}, column 1: bad group label {row[0]!r}"
            ) from None
        vals = np.empty(m)
        for c, cell in enumerate(row[1:], start=2):
            try:
                vals[c - 2] = float(cell)
            except ValueError:
                raise DataError(
                    f"{path}: row {r}, column {c}: could not parse {cell!r} as a number"
                ) from None
        values.append(vals)
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
