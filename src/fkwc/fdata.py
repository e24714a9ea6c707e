"""Grid-based functional samples and their L2 geometry.

Curves are held as rows of an (N, m) array of values on a shared equispaced
grid over [0, 1].  Inner products and norms discretize the L2([0,1]) inner
product with the trapezoid rule; derivatives use second-order finite
differences unless supplied externally.
"""

from __future__ import annotations

import csv
import json
import sys
from dataclasses import dataclass, replace
from typing import Optional

import numpy as np

from .exceptions import DataError

_ENDPOINT_TOL = 1e-12
_SPACING_RTOL = 1e-9


@dataclass(frozen=True, eq=False)
class Grid:
    """Equispaced evaluation points on [0, 1], endpoints included."""

    points: np.ndarray

    def __post_init__(self):
        pts = np.asarray(self.points, dtype=float)
        if pts.ndim != 1 or pts.size < 3:
            raise DataError(f"grid needs at least 3 points, got shape {pts.shape}")
        if not np.all(np.isfinite(pts)):
            raise DataError("grid points must be finite")
        if abs(pts[0]) > _ENDPOINT_TOL or abs(pts[-1] - 1.0) > _ENDPOINT_TOL:
            raise DataError(
                f"grid must span [0, 1]; got endpoints {pts[0]!r}, {pts[-1]!r}"
            )
        diffs = np.diff(pts)
        if np.any(diffs <= 0):
            raise DataError("grid points must be strictly increasing")
        step = 1.0 / (pts.size - 1)
        if np.any(np.abs(diffs - step) > _SPACING_RTOL * max(step, 1.0)):
            raise DataError("grid points must be equispaced over [0, 1]")
        pts = pts.copy()
        pts.setflags(write=False)
        object.__setattr__(self, "points", pts)

    @classmethod
    def regular(cls, m: int) -> "Grid":
        """Uniform grid with m points on [0, 1]."""
        if m < 3:
            raise DataError(f"grid needs at least 3 points, got m={m}")
        return cls(np.linspace(0.0, 1.0, m))

    @property
    def m(self) -> int:
        return self.points.size

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

    def __eq__(self, other):
        return isinstance(other, Grid) and np.array_equal(self.points, other.points)

    def __hash__(self):
        return hash(("Grid", self.m))

    def __repr__(self):
        return f"Grid(m={self.m})"


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


def inner_product(f, g, grid: Grid):
    """Trapezoid-rule approximation of the L2 inner product of f and g.

    Accepts single curves (length-m vectors) or stacks of curves; the
    result is a scalar or a vector accordingly.
    """
    fa = np.asarray(f, dtype=float)
    ga = np.asarray(g, dtype=float)
    if fa.shape[-1] != grid.m or ga.shape[-1] != grid.m:
        raise DataError(
            f"curve lengths {fa.shape[-1]}, {ga.shape[-1]} do not match grid m={grid.m}"
        )
    out = (fa * ga) @ grid.trapezoid_weights
    return float(out) if np.ndim(out) == 0 else out

def l2_norm(f, grid: Grid):
    """L2([0,1]) norm of a curve (or each row of a stack) under the grid."""
    sq = inner_product(f, f, grid)
    return np.sqrt(sq)


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


@dataclass(frozen=True, eq=False)
class FunctionalDataset:
    """N curves on a common grid with group labels 1..J.

    ``derivatives`` optionally carries externally computed derivative
    curves of the same shape.  When it is absent, every primed depth
    evaluation (``compute_depth``, ``depth_ranks``, ``fkwc_test``,
    ``steel_mc``, studies and the CLI) fills it with :func:`differentiate`;
    the per-kind depth functions raise instead.
    """

    grid: Grid
    curves: np.ndarray
    groups: np.ndarray
    derivatives: Optional[np.ndarray] = None

    def __post_init__(self):
        curves = _as_curves(self.curves, self.grid)
        groups = np.asarray(self.groups)
        if groups.ndim != 1 or groups.size != curves.shape[0]:
            raise DataError(
                f"got {groups.size} group labels for {curves.shape[0]} curves"
            )
        if not np.issubdtype(groups.dtype, np.integer):
            flo = np.asarray(groups, dtype=float)
            if np.any(flo != np.round(flo)):
                raise DataError("group labels must be integers")
            groups = flo.astype(int)
        groups = groups.astype(int)
        labels = np.unique(groups)
        j = labels.size
        if labels[0] != 1 or labels[-1] != j:
            raise DataError(
                f"group labels must cover 1..J with every group present; got {labels.tolist()}"
            )
        deriv = self.derivatives
        if deriv is not None:
            deriv = _as_curves(deriv, self.grid, what="derivative")
            if deriv.shape != curves.shape:
                raise DataError(
                    f"derivatives shape {deriv.shape} does not match curves {curves.shape}"
                )
            deriv = deriv.copy()
            deriv.setflags(write=False)
        curves = curves.copy()
        curves.setflags(write=False)
        groups = groups.copy()
        groups.setflags(write=False)
        object.__setattr__(self, "curves", curves)
        object.__setattr__(self, "groups", groups)
        object.__setattr__(self, "derivatives", deriv)

    @property
    def n_curves(self) -> int:
        return self.curves.shape[0]

    @property
    def n_groups(self) -> int:
        return int(self.groups.max())

    @property
    def group_sizes(self) -> np.ndarray:
        return np.bincount(self.groups, minlength=self.n_groups + 1)[1:]

    def group_indices(self, label: int) -> np.ndarray:
        return np.flatnonzero(self.groups == label)

    def with_finite_difference_derivatives(self) -> "FunctionalDataset":
        """Return a copy whose derivative channel is filled by finite
        differences (no-op when derivatives are already present)."""
        if self.derivatives is not None:
            return self
        return replace(self, derivatives=differentiate(self.curves, self.grid))

    def subset(self, labels) -> "FunctionalDataset":
        """Restrict to the given group labels, renumbering them 1..len(labels)
        in the order supplied."""
        labels = list(labels)
        mask = np.isin(self.groups, labels)
        if not mask.any():
            raise DataError(f"no curves in groups {labels}")
        remap = {old: new for new, old in enumerate(labels, start=1)}
        new_groups = np.array([remap[g] for g in self.groups[mask]])
        deriv = None if self.derivatives is None else self.derivatives[mask]
        return FunctionalDataset(self.grid, self.curves[mask], new_groups, deriv)


def center_by_deepest(ds: FunctionalDataset, spec) -> FunctionalDataset:
    """Subtract each group's deepest curve from every curve of that group.

    Depth is computed within the group's own sample.  Ties for the maximum
    break toward the lowest curve index.  The derivative channel, when
    present, is shifted by the deepest curve's derivative.
    """
    from .depths import compute_depth

    curves = np.array(ds.curves)
    deriv = None if ds.derivatives is None else np.array(ds.derivatives)
    for j in range(1, ds.n_groups + 1):
        idx = ds.group_indices(j)
        sub = ds.subset([j])
        depth = compute_depth(sub, spec).values
        best = idx[int(np.argmax(depth))]
        curves[idx] -= ds.curves[best]
        if deriv is not None:
            deriv[idx] -= ds.derivatives[best]
    return FunctionalDataset(ds.grid, curves, ds.groups, deriv)


# ---------------------------------------------------------------------------
# File formats: wide CSV (header "group", grid points; one row per curve)
# and a JSON mirror of the same shape.
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
    """Write the dataset in wide CSV form; optionally write the derivative
    channel to a second file of identical layout."""
    def rows(matrix):
        yield ["group"] + [_format_float(t) for t in ds.grid.points]
        for g, row in zip(ds.groups, matrix):
            yield [int(g)] + [_format_float(v) for v in row]

    write_csv(rows(ds.curves), path)
    if derivatives_path is not None:
        if ds.derivatives is None:
            raise DataError("dataset has no derivative channel to save")
        write_csv(rows(ds.derivatives), derivatives_path)


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
    grid = Grid(points)
    m = grid.m
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


def save_json(ds: FunctionalDataset, path) -> None:
    payload = {
        "grid": ds.grid.points.tolist(),
        "groups": ds.groups.tolist(),
        "curves": ds.curves.tolist(),
        "derivatives": None if ds.derivatives is None else ds.derivatives.tolist(),
    }
    with open(path, "w") as fh:
        json.dump(payload, fh)


def load_json(path) -> FunctionalDataset:
    with open(path) as fh:
        payload = json.load(fh)
    try:
        grid = Grid(np.array(payload["grid"], dtype=float))
        deriv = payload.get("derivatives")
        return FunctionalDataset(
            grid,
            np.array(payload["curves"], dtype=float),
            np.array(payload["groups"]),
            None if deriv is None else np.array(deriv, dtype=float),
        )
    except KeyError as exc:
        raise DataError(f"{path}: missing field {exc}") from None
