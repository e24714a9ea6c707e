"""The depth kernels' inner loops, compiled from C on first use.

Three loops of :mod:`fkwc.depths` run here when a C compiler is found:

* ``max_arcs``: the largest half-open arc of each sorted row of direction
  angles, for :func:`fkwc.depths.halfspace_depth_2d` (``mfhd'``);
* ``ksd_terms``: each query's (k, k) matrix of kernel-trick terms, for
  ``ksd``;
* ``spatial_sums``: each query's sum of unit vectors, for ``spatial``.

The first :func:`load` of a process compiles ``SOURCE`` with the system C
compiler (``cc`` on ``PATH``) and caches the shared library under
``$XDG_CACHE_HOME/fkwc`` (default ``~/.cache/fkwc``), named by a CRC-32 of
the source, the flags and the machine.  Each build writes a temporary
file and renames it into place, so processes that build at once leave one
whole library, and a cached file that does not load (junk, or cut short)
is built again, once.  Without a compiler, when the build or the load
fails, or when the library lacks any of the three functions, :func:`load`
returns None and every loop runs in NumPy in ``depths``.  Either way the
choice is made once per process, and the results are the same bits: each
function does the IEEE operations of its NumPy loop, in the same order.
"""

from __future__ import annotations

import contextlib
import ctypes
import functools
import os
import platform
import shutil
import tempfile
import zlib
from pathlib import Path
from typing import Callable, NamedTuple

import numpy as np

SOURCE = r"""
#include <math.h>
#include <stddef.h>
#include <stdint.h>

/* For each of q rows of n ascending angles, coincident points padded with
   +inf at the end, the largest number of the k finite angles in a
   half-open arc (b, b + pi] that starts at an angle or half a turn before
   one: max_j max(H(p_j) - H(a_j), H(s_j) - H(p_j)), where
   H(x) = #{doubled <= x}, doubled = [a, a + 2 pi], p_j = a_j + pi and
   s_j = a_j + 2 pi.  These are the right-sided searches of the per-query
   sweep (Rousseeuw & Ruts, AS 307); a_j, p_j and s_j ascend with j, so
   each count only moves forward.  doubled holds 2n + 1 doubles. */
void fkwc_max_arcs(const double *angles, int64_t q, int64_t n, double pi,
                   double two_pi, double *doubled, int64_t *out)
{
    for (int64_t r = 0; r < q; r++) {
        const double *a = angles + r * n;
        int64_t k = n;
        while (k > 0 && a[k - 1] == INFINITY)
            k--;
        /* a +inf after the 2k angles stops every count */
        for (int64_t i = 0; i < k; i++) {
            doubled[i] = a[i];
            doubled[k + i] = a[i] + two_pi;
        }
        doubled[2 * k] = INFINITY;
        int64_t ha = 0, hp = 0, hs = 0, best = 0;
        for (int64_t j = 0; j < k; j++) {
            double p = a[j] + pi, s = doubled[k + j];
            while (doubled[ha] <= a[j])
                ha++;
            while (doubled[hp] <= p)
                hp++;
            while (doubled[hs] <= s)
                hs++;
            if (hp - ha > best)
                best = hp - ha;
            if (hs - hp > best)
                best = hs - hp;
        }
        out[r] = best;
    }
}

/* out[b] = ((1 - g_a) - g[b] + grow[b]) / (d_a d[b]) for lo <= b < hi,
   with c = 1 - g_a: NumPy's subtract, add, multiply and divide, the add
   commuted */
static void ksd_run(const double *grow, const double *g, const double *d, double c,
                    double da, int64_t lo, int64_t hi, double *out)
{
    for (int64_t b = lo; b < hi; b++)
        out[b - lo] = ((c - g[b]) + grow[b]) / (da * d[b]);
}

/* The (k, k) matrix ((1 - g_a) - g_b + G[a][b]) / (d_a d_b) over the kept
   curves a, b of one query, row-major into out; G is the n x n sample Gram
   matrix, g and d the query's n kernel values and feature distances.  The
   kept curves are idx[0..k) when idx is not NULL, else all but curve
   drop (none dropped when drop = n). */
void fkwc_ksd_terms(const double *gram, int64_t n, const double *g, const double *d,
                    int64_t drop, const int64_t *idx, int64_t k, double *out)
{
    if (idx == NULL) {
        for (int64_t a = 0; a < n; a++) {
            if (a == drop)
                continue;
            const double *grow = gram + a * n;
            double *row = out + (a < drop ? a : a - 1) * k;
            double c = 1.0 - g[a];
            ksd_run(grow, g, d, c, d[a], 0, drop, row);
            if (drop < n)
                ksd_run(grow, g, d, c, d[a], drop + 1, n, row + drop);
        }
        return;
    }
    for (int64_t a = 0; a < k; a++) {
        const double *grow = gram + idx[a] * n;
        double c = 1.0 - g[idx[a]], da = d[idx[a]];
        for (int64_t b = 0; b < k; b++)
            out[a * k + b] = ((c - g[idx[b]]) + grow[idx[b]]) / (da * d[idx[b]]);
    }
}

/* For each of q queries, the m sums over the n sample curves X_j with
   norms[j] > 0 of (query - X_j) / norms[j]: from 0.0, in sample order, as
   NumPy's axis-0 sum adds them.  norms is q x n, one row per query. */
void fkwc_spatial_sums(const double *sample, const double *queries, const double *norms,
                       int64_t q, int64_t n, int64_t m, double *out)
{
    for (int64_t i = 0; i < q; i++) {
        const double *x = queries + i * m, *nrm = norms + i * n;
        double *acc = out + i * m;
        for (int64_t t = 0; t < m; t++)
            acc[t] = 0.0;
        for (int64_t j = 0; j < n; j++) {
            if (!(nrm[j] > 0.0))
                continue;
            const double *s = sample + j * m;
            for (int64_t t = 0; t < m; t++)
                acc[t] += (x[t] - s[t]) / nrm[j];
        }
    }
}
"""

# no -ffast-math and no -march=native: the operations must round as NumPy's do
FLAGS = ("-O2", "-ffp-contract=off", "-fPIC", "-shared")


def library_path() -> Path:
    """Where the library for this source, these flags and this machine lives."""
    cache = os.environ.get("XDG_CACHE_HOME") or os.path.join(os.path.expanduser("~"), ".cache")
    tag = zlib.crc32("\0".join((SOURCE, *FLAGS, platform.machine())).encode())
    return Path(cache, "fkwc", f"compiled-{tag:08x}.so")


def _build(path: Path) -> bool:
    """Compile ``SOURCE`` to ``path``; False when there is no ``cc`` or it
    fails.  Raises OSError when the cache directory cannot be written."""
    import subprocess

    cc = shutil.which("cc")
    if cc is None:
        return False
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(prefix=f".{path.stem}-", suffix=".so", dir=path.parent)
    os.close(fd)
    try:
        done = subprocess.run([cc, *FLAGS, "-x", "c", "-", "-o", tmp], input=SOURCE.encode(),
                              capture_output=True, timeout=120)
        if done.returncode == 0:
            os.replace(tmp, path)
        return done.returncode == 0
    except subprocess.TimeoutExpired:
        return False
    finally:
        with contextlib.suppress(FileNotFoundError):
            os.unlink(tmp)


class Kernels(NamedTuple):
    """The compiled loops; see the module docstring."""

    max_arcs: Callable
    ksd_terms: Callable
    spatial_sums: Callable


_P, _I, _D = ctypes.c_void_p, ctypes.c_int64, ctypes.c_double
_SIGNATURES = {
    "fkwc_max_arcs": (_P, _I, _I, _D, _D, _P, _P),
    "fkwc_ksd_terms": (_P, _I, _P, _P, _I, _P, _I, _P),
    "fkwc_spatial_sums": (_P, _P, _P, _I, _I, _I, _P),
}


@functools.cache
def load() -> Kernels | None:
    """The three compiled loops, or None where any of them cannot be had;
    built on the first call of a process."""
    path = library_path()
    try:
        try:
            lib = ctypes.CDLL(str(path))
        except OSError:  # not built yet, or a cached file that does not load: build it, once
            if not _build(path):
                return None
            lib = ctypes.CDLL(str(path))
        fns = {}
        for name, argtypes in _SIGNATURES.items():
            fns[name] = getattr(lib, name)
            fns[name].argtypes = argtypes
            fns[name].restype = None
    except (OSError, AttributeError):
        # AttributeError: a library without one of the functions, not
        # rebuilt: the loader would hand back the handle it already holds
        # for this path
        return None

    def max_arcs(angles: np.ndarray) -> np.ndarray:
        """The largest arc count of each sorted (q, n) angle row, (q,) int64."""
        angles = np.ascontiguousarray(angles, dtype=float)
        q, n = angles.shape
        doubled = np.empty(2 * n + 1)
        out = np.empty(q, dtype=np.int64)
        # the floats NumPy adds: a + pi and a + 2.0 * pi
        fns["fkwc_max_arcs"](angles.ctypes.data, q, n, np.pi, 2.0 * np.pi,
                             doubled.ctypes.data, out.ctypes.data)
        return out

    def ksd_terms(gram: np.ndarray, g: np.ndarray, d: np.ndarray, keep: np.ndarray,
                  out: np.ndarray) -> None:
        """Fill the C-contiguous (k, k) ``out`` with one query's terms:
        ``gram`` the (n, n) Gram matrix, ``g`` and ``d`` the query's n
        kernel values and feature distances, ``keep`` the k curves kept."""
        n, k = gram.shape[0], out.shape[0]
        if not (gram.dtype == out.dtype == float and gram.flags.c_contiguous
                and out.flags.c_contiguous and gram.shape == (n, n) and out.shape == (k, k)
                and g.shape == d.shape == keep.shape == (n,) and k <= n):
            raise ValueError("ksd_terms: mismatched shapes, dtypes or layouts")
        g, d = (np.ascontiguousarray(a, dtype=float) for a in (g, d))
        if k >= n - 1:  # the one dropped curve, or none (drop = n)
            drop = int(np.argmin(keep)) if k < n else n
            fns["fkwc_ksd_terms"](gram.ctypes.data, n, g.ctypes.data, d.ctypes.data, drop,
                                  None, k, out.ctypes.data)
            return
        idx = np.flatnonzero(keep).astype(np.int64, copy=False)
        if idx.size != k:
            raise ValueError("ksd_terms: keep does not hold k curves")
        fns["fkwc_ksd_terms"](gram.ctypes.data, n, g.ctypes.data, d.ctypes.data, n,
                              idx.ctypes.data, k, out.ctypes.data)

    def spatial_sums(sample: np.ndarray, queries: np.ndarray, norms: np.ndarray) -> np.ndarray:
        """Per query, the (m,) sum of (q - X_j) / norms[i, j] over the
        sample curves at a positive norm; (q, m)."""
        sample, queries, norms = (np.ascontiguousarray(a, dtype=float)
                                  for a in (sample, queries, norms))
        (n, m), q = sample.shape, queries.shape[0]
        if queries.shape != (q, m) or norms.shape != (q, n):
            raise ValueError("spatial_sums: mismatched shapes")
        out = np.empty((q, m))
        fns["fkwc_spatial_sums"](sample.ctypes.data, queries.ctypes.data, norms.ctypes.data,
                                 q, n, m, out.ctypes.data)
        return out

    return Kernels(max_arcs, ksd_terms, spatial_sums)
