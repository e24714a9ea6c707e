"""Generative process models and replicated size/power studies.

``generate`` is the one way to draw curves from a ``ProcessModel``;
``generate_blocks`` yields the same rows, byte for byte, in blocks of 1,024
to 2,047 rows, so a caller that reduces each block holds one block and not
all n curves.  Both run one per-family body, ``generate`` as its one-block
case.  Three families share a squared-exponential kernel, which a model
factors once, at its first draw; the fourth is an explicit eigenvalue
expansion in an orthonormal Fourier basis (constant first, then sine/cosine
pairs).
Replicated studies derive every random stream from (base seed, replicate,
role) so results are bit-identical regardless of worker count.
"""

from __future__ import annotations

import copy
import itertools
import math
import os
from dataclasses import dataclass, field, fields, replace
from functools import cached_property
from typing import Optional

import numpy as np

from .depths import derive_seed
from .exceptions import NumericalError, ParameterError
from .fdata import FunctionalDataset, Grid, write_csv
from .testing import TestConfig, fkwc_test

_FAMILIES = ("gaussian", "t1", "skew_gaussian", "eigen")

_JITTER_LADDER = (1e-10, 1e-8, 1e-6)


@dataclass(frozen=True)
class ProcessModel:
    """A zero-mean functional data generator.

    ``alpha``/``beta`` parameterize the squared-exponential kernel
    beta * exp(-(s-t)^2 / (2 alpha^2)) used by the gaussian, t1 and
    skew_gaussian families; ``eigenvalues`` drives the finite-rank
    Fourier-basis family instead.
    """

    family: str = "gaussian"
    grid: Grid = field(default_factory=lambda: Grid(101))
    alpha: float = 0.05
    beta: float = 1.0
    eigenvalues: Optional[tuple] = None
    skew_shape: float = 4.0

    def __post_init__(self):
        if self.family not in _FAMILIES:
            raise ParameterError(f"unknown family {self.family!r}; expected one of {_FAMILIES}")
        for name in ("alpha", "beta", "skew_shape"):
            if not math.isfinite(getattr(self, name)):
                raise ParameterError(f"{name} must be finite, got {getattr(self, name)!r}")
        if self.alpha <= 0 or self.beta <= 0:
            raise ParameterError("kernel parameters alpha and beta must be positive")
        if self.family == "eigen":
            if self.eigenvalues is None:
                raise ParameterError("eigen family requires explicit eigenvalues")
            lams = tuple(float(v) for v in self.eigenvalues)
            if not all(map(math.isfinite, lams)):
                raise ParameterError(f"eigenvalues must be finite, got {self.eigenvalues!r}")
            if len(lams) == 0 or any(v < 0 for v in lams):
                raise ParameterError("eigenvalues must be nonnegative")
            object.__setattr__(self, "eigenvalues", lams)
        if self.family == "skew_gaussian" and self.skew_shape < 0:
            raise ParameterError("skew shape must be >= 0")

    def __reduce__(self):
        # rebuilt from the fields: the cached factor is not sent, and each
        # copy factors its own, read-only
        return ProcessModel, tuple(getattr(self, f.name) for f in fields(self))

    @cached_property
    def kernel_factor(self) -> np.ndarray:
        """Read-only lower Cholesky factor of the kernel plus the first
        jitter*beta on the ladder that factors; computed at the first draw."""
        kmat = squared_exponential_kernel(self.grid, self.alpha, self.beta)
        for jitter in _JITTER_LADDER:
            try:
                chol = np.linalg.cholesky(kmat + jitter * self.beta * np.eye(self.grid.m))
            except np.linalg.LinAlgError:
                continue
            chol.setflags(write=False)
            return chol
        raise NumericalError(
            f"kernel matrix not positive definite after jitter up to {_JITTER_LADDER[-1]}*beta "
            f"(alpha={self.alpha}, beta={self.beta}, m={self.grid.m})"
        )


def squared_exponential_kernel(grid: Grid, alpha: float, beta: float) -> np.ndarray:
    t = grid.points
    diff = t[:, None] - t[None, :]
    return beta * np.exp(-(diff * diff) / (2.0 * alpha * alpha))


def fourier_basis(grid: Grid, size: int) -> np.ndarray:
    """Orthonormal Fourier functions on [0, 1]: 1, then sqrt(2) sin/cos
    pairs at frequencies 1, 2, ...  Shape (size, m)."""
    if size < 1:
        raise ParameterError("basis size must be >= 1")
    t = grid.points
    rows = [np.ones(grid.m)]
    freq = 1
    while len(rows) < size:
        rows.append(np.sqrt(2.0) * np.sin(2.0 * np.pi * freq * t))
        if len(rows) < size:
            rows.append(np.sqrt(2.0) * np.cos(2.0 * np.pi * freq * t))
        freq += 1
    return np.array(rows)


def generate(model: ProcessModel, n: int, seed) -> np.ndarray:
    """Draw n curves from the model as an (n, m) array.  ``seed`` is
    anything ``np.random.default_rng`` accepts, a ``Generator`` included.

    gaussian: z L^T with L the model's ``kernel_factor``.  t1: that draw
    divided by a per-curve chi(1) scale.  skew_gaussian: delta |Z1| +
    sqrt(1-delta^2) Z2 from two such draws, minus the pointwise mean
    delta sqrt(2 beta / pi).  eigen: sum_k sqrt(lambda_k) xi_k phi_k in the
    orthonormal Fourier basis."""
    if n < 1:
        raise ParameterError("n must be >= 1")
    return next(_draw_blocks(model, (n,), np.random.default_rng(seed)))


# rows per block of generate_blocks
_BLOCK_ROWS = 1024


def generate_blocks(model: ProcessModel, n: int, seed):
    """The rows of ``generate(model, n, seed)``, byte for byte, as an
    iterator of blocks of 1,024 rows; a short last block joins the one
    before it, so each block has 1,024 to 2,047 rows, or n rows when
    n <= 1,024.  A ``Generator`` passed as ``seed`` ends where ``generate``
    leaves it once the iterator is exhausted."""
    if n < 1:
        raise ParameterError("n must be >= 1")
    if n <= _BLOCK_ROWS:
        rows = (n,)
    else:
        rows = (_BLOCK_ROWS,) * (n // _BLOCK_ROWS - 1) + (_BLOCK_ROWS + n % _BLOCK_ROWS,)
    return _draw_blocks(model, rows, np.random.default_rng(seed))


def _draw_blocks(model: ProcessModel, rows: tuple, rng):
    """Blocks of rows[0], rows[1], ... curves, the rows of one ``generate``
    call of sum(rows) curves, which reads all its normals first and then
    t1's chi-square scales or skew_gaussian's second normal stream."""
    if model.family == "eigen":
        lams = np.asarray(model.eigenvalues, dtype=float)
        basis = fourier_basis(model.grid, lams.size)
        for r in rows:
            yield (rng.standard_normal((r, lams.size)) * np.sqrt(lams)) @ basis
        return
    m = model.grid.m
    # the factor exactly as np.linalg.cholesky returns it: a contiguous copy
    # of its transpose may take another BLAS path and change the last digits
    chol = model.kernel_factor
    normals = rng
    if len(rows) > 1 and model.family != "gaussian":
        # the later draws follow all the normals: replay the normals from a
        # copy while the caller's generator moves on past them
        normals = copy.deepcopy(rng)
        for r in rows:
            rng.standard_normal((r, m))
    start = 0
    for r in rows:
        # each family's arithmetic written over z, element for element the
        # expression it stands for
        z = normals.standard_normal((r, m)) @ chol.T
        if model.family == "t1":
            if start == 0:
                # after the first block's normals, which in one block are
                # read from rng itself
                wdiv = rng.chisquare(1.0, size=sum(rows))
                for i in np.flatnonzero(wdiv < 1e-300):
                    while wdiv[i] < 1e-300:
                        wdiv[i] = rng.chisquare(1.0)
            z /= np.sqrt(wdiv[start:start + r])[:, None]
        elif model.family == "skew_gaussian":
            # delta |z| + sqrt(1 - delta^2) z2 - delta sqrt(2 beta / pi)
            a = model.skew_shape
            delta = a / np.sqrt(1.0 + a * a)
            z2 = rng.standard_normal((r, m)) @ chol.T
            z2 *= np.sqrt(1.0 - delta * delta)
            np.abs(z, out=z)
            z *= delta
            z += z2
            del z2
            z -= delta * np.sqrt(2.0 * model.beta / np.pi)
        start += r
        yield z
        # the caller may have dropped the block: hold none while drawing the next
        del z


# ---------------------------------------------------------------------------
# eigenvalue scenario catalog
# ---------------------------------------------------------------------------

def scenario_eigenvalues(scenario: int) -> tuple:
    """Eigenvalue pair (group 1, group 2) for the six catalog scenarios:
    group 1 has lambda_k = k (2^k in scenarios 3 and 6) for k = 1..3 in
    scenarios 1 and 4 and k = 1..11 otherwise; group 2 reverses that list
    in scenarios 1-3 and multiplies it by 1.5 in scenarios 4-6."""
    if scenario not in range(1, 7):
        raise ParameterError(f"scenario must be 1..6, got {scenario!r}")
    size = 3 if scenario in (1, 4) else 11
    lam1 = tuple(float(2**k if scenario in (3, 6) else k) for k in range(1, size + 1))
    lam2 = lam1[::-1] if scenario <= 3 else tuple(1.5 * v for v in lam1)
    return lam1, lam2


def scenario_models(scenario: int, grid: Optional[Grid] = None) -> tuple:
    """Two eigen-family models realizing a catalog scenario."""
    grid = grid if grid is not None else Grid(101)
    lam1, lam2 = scenario_eigenvalues(scenario)
    return (
        ProcessModel(family="eigen", grid=grid, eigenvalues=lam1),
        ProcessModel(family="eigen", grid=grid, eigenvalues=lam2),
    )


# ---------------------------------------------------------------------------
# replicated studies
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class StudySpec:
    """A replicated size/power experiment: one model per group, a list of
    depth specs to evaluate on the same generated data, and a base seed."""

    models: tuple
    group_sizes: tuple
    depth_specs: tuple
    alpha: float = 0.05
    replications: int = 200
    seed: int = 0
    percentile_r: Optional[float] = None
    param_name: str = ""
    param_value: str = ""

    def __post_init__(self):
        if len(self.models) != len(self.group_sizes) or len(self.models) < 2:
            raise ParameterError("need one model per group for J >= 2 groups")
        if any(s < 1 for s in self.group_sizes):
            raise ParameterError("group sizes must be >= 1")
        if self.replications < 1:
            raise ParameterError("replications must be >= 1")
        TestConfig(alpha=self.alpha, percentile_r=self.percentile_r)  # checks both
        if len(self.depth_specs) < 1:
            raise ParameterError("need at least one depth spec")
        grids = {m.grid for m in self.models}
        if len(grids) != 1:
            raise ParameterError("all group models must share one grid")

    @property
    def n_total(self) -> int:
        return int(sum(self.group_sizes))


@dataclass(frozen=True)
class StudyResult:
    spec: StudySpec
    rejection_rates: np.ndarray
    std_errors: np.ndarray

    def to_dict(self) -> dict:
        return {
            "replications": self.spec.replications,
            "alpha": self.spec.alpha,
            "N": self.spec.n_total,
            "depths": [
                {"depth": s.label, "rate": float(r), "se": float(e)}
                for s, r, e in zip(self.spec.depth_specs, self.rejection_rates, self.std_errors)
            ],
        }


def _study_replicate(spec: StudySpec, rep: int) -> np.ndarray:
    blocks = [generate(model, size, derive_seed(spec.seed, rep, g))
              for g, (model, size) in enumerate(zip(spec.models, spec.group_sizes), start=1)]
    labels = np.repeat(np.arange(1, len(blocks) + 1), spec.group_sizes)
    ds = FunctionalDataset(spec.models[0].grid, np.vstack(blocks), labels)
    rejections = np.zeros(len(spec.depth_specs), dtype=bool)
    for i, dspec in enumerate(spec.depth_specs):
        seeded = replace(dspec, rng_seed=derive_seed(spec.seed, rep, 1000 + i))
        config = TestConfig(depth_spec=seeded, alpha=spec.alpha, percentile_r=spec.percentile_r)
        rejections[i] = fkwc_test(ds, config).reject
    return rejections


# replicates per task sent to a worker process
_STUDY_CHUNK = 8


def run_study(spec: StudySpec, n_jobs: int = 1) -> StudyResult:
    """Run the replicated experiment; the outcome is identical for any
    ``n_jobs`` because all streams derive from (seed, replicate, role).

    ``n_jobs`` is an upper bound: one worker process at most per chunk of
    8 replicates and per usable CPU; with one, the replicates run in this
    process."""
    if n_jobs < 1:
        raise ParameterError(f"n_jobs (--threads) must be >= 1, got {n_jobs!r}")
    reps = range(spec.replications)
    workers = min(n_jobs, math.ceil(spec.replications / _STUDY_CHUNK))
    if workers > 1:
        # the usable CPUs: os.sched_getaffinity exists only on some platforms
        # (Linux among them), os.process_cpu_count only from Python 3.13
        getaffinity = getattr(os, "sched_getaffinity", None)
        workers = min(workers, len(getaffinity(0)) if getaffinity else os.cpu_count() or 1)
    if workers > 1:
        from concurrent.futures import ProcessPoolExecutor

        # the pool forks all its workers at the first submit
        with ProcessPoolExecutor(max_workers=workers) as pool:
            rows = list(pool.map(_study_replicate, itertools.repeat(spec), reps,
                                 chunksize=_STUDY_CHUNK))
    else:
        rows = [_study_replicate(spec, r) for r in reps]
    hits = np.array(rows, dtype=float)
    rates = hits.mean(axis=0)
    ses = np.sqrt(rates * (1.0 - rates) / spec.replications)
    return StudyResult(spec=spec, rejection_rates=rates, std_errors=ses)


def study_rows(result: StudyResult) -> list:
    """The rows of a study's tidy CSV: a header, then one row per depth spec."""
    spec = result.spec
    family = "+".join(sorted({m.family for m in spec.models}))
    rows = [
        [
            dspec.label,
            family,
            spec.param_name,
            spec.param_value,
            spec.n_total,
            format(float(rate), ".6g"),
            format(float(se), ".6g"),
            spec.replications,
        ]
        for dspec, rate, se in zip(spec.depth_specs, result.rejection_rates, result.std_errors)
    ]
    return [["depth", "family", "param", "value", "N", "rate", "se", "R"]] + rows


def save_study_csv(result: StudyResult, path) -> None:
    """Tidy CSV, one row per depth spec, to ``path``; None writes to stdout."""
    write_csv(study_rows(result), path)
