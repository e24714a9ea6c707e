"""The depth kernels' inner loops, compiled from C on first use.

Three loops of :mod:`fkwc.depths` run here when a C compiler is found:

* ``max_arcs``: the largest half-open arc of each sorted row of direction
  angles, for :func:`fkwc.depths.halfspace_depth_2d` (``mfhd'``);
* ``ksd_sums``: each query's sum of its (k, k) kernel-trick terms, for
  ``ksd``, formed 128 at a time on the stack and added in the pairwise
  order in which NumPy sums a contiguous array, so no (k, k) matrix is
  written;
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
``FLAGS`` build at -O3, which vectorises the elementwise loops (GCC 12's
-O2 does not), and keep -ffp-contract=off; a vector IEEE divide rounds as
the scalar one does.
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

/* out[b - lo] = ((c - gk[b]) + row[b]) / (da dk[b]) for lo <= b < hi,
   with c = 1 - g_a: NumPy's subtract, add, multiply and divide, the add
   commuted */
static void ksd_run(const double *restrict row, const double *restrict gk,
                    const double *restrict dk, double c, double da, int64_t lo, int64_t hi,
                    double *restrict out)
{
    for (int64_t b = lo; b < hi; b++)
        out[b - lo] = ((c - gk[b]) + row[b]) / (da * dk[b]);
}

/* One query's k x k terms, handed out in row-major order by ksd_fill.
   gk and dk hold the kernel values and feature distances of the kept
   curves idx[0..k); row points at the Gram values of row a (sample row
   idx[a]).  Kept column b is sample column b, or b + 1 once past the one
   dropped curve (b >= drop); with several dropped, drop = k and row is
   that row gathered into rowbuf. */
struct ksd_query {
    const double *gram, *gk, *dk, *row;
    const int64_t *idx;
    double *rowbuf;
    int64_t n, k, drop, a, b; /* the next term: row a, column b */
};

static void ksd_fill(struct ksd_query *s, double *out, int64_t len)
{
    while (len > 0) {
        if (s->b == 0) {
            s->row = s->gram + s->idx[s->a] * s->n;
            if (s->k < s->n - 1) {
                for (int64_t b = 0; b < s->k; b++)
                    s->rowbuf[b] = s->row[s->idx[b]];
                s->row = s->rowbuf;
            }
        }
        int64_t lo = s->b, hi = lo + len < s->k ? lo + len : s->k;
        int64_t mid = s->drop < lo ? lo : s->drop < hi ? s->drop : hi;
        double c = 1.0 - s->gk[s->a], da = s->dk[s->a];
        ksd_run(s->row, s->gk, s->dk, c, da, lo, mid, out);
        ksd_run(s->row + 1, s->gk, s->dk, c, da, mid, hi, out + (mid - lo));
        out += hi - lo;
        len -= hi - lo;
        s->b = hi == s->k ? 0 : hi;
        s->a += hi == s->k;
    }
}

/* The sum of the next n terms in NumPy's pairwise order for a contiguous
   array: leaves of at most 128 terms, summed with 8 accumulators, split
   at n / 2 rounded down to a multiple of 8.  Leaves come left to right. */
static double ksd_pairwise(struct ksd_query *s, int64_t n)
{
    if (n > 128) {
        int64_t n2 = n / 2;
        n2 -= n2 % 8;
        double left = ksd_pairwise(s, n2);
        return left + ksd_pairwise(s, n - n2);
    }
    double t[128], res = 0.0;
    int64_t i = 0;
    ksd_fill(s, t, n);
    if (n >= 8) {
        double r[8];
        for (int j = 0; j < 8; j++)
            r[j] = t[j];
        for (i = 8; i < n - n % 8; i += 8)
            for (int j = 0; j < 8; j++)
                r[j] += t[i + j];
        res = ((r[0] + r[1]) + (r[2] + r[3])) + ((r[4] + r[5]) + (r[6] + r[7]));
    }
    for (; i < n; i++)
        res += t[i];
    return res;
}

/* For each of q rows g of kernel values against the n sample curves, the
   sum 0.0 + sum_{a,b} ((1 - g_a) - g_b + G[a][b]) / (d_a d_b) over the k
   curves with feature distance d = sqrt(max(2 - 2 g, 0)) > 0, in the order
   NumPy sums the (k, k) matrix: G is the n x n sample Gram matrix, work
   holds 3n doubles and idx n indices. */
void fkwc_ksd_sums(const double *gram, int64_t n, const double *gq, int64_t q,
                   double *work, int64_t *idx, double *out)
{
    double *gk = work, *dk = work + n;
    for (int64_t i = 0; i < q; i++) {
        const double *g = gq + i * n;
        int64_t k = 0, drop = n;
        for (int64_t j = 0; j < n; j++) {
            double v = 2.0 - 2.0 * g[j];
            double d = sqrt(v < 0.0 ? 0.0 : v);
            if (d > 0.0) {
                idx[k] = j;
                gk[k] = g[j];
                dk[k++] = d;
            } else if (drop == n) {
                drop = j;
            }
        }
        struct ksd_query s = {gram, gk, dk, NULL, idx, work + 2 * n, n, k,
                              k == n - 1 ? drop : k, 0, 0};
        out[i] = 0.0 + ksd_pairwise(&s, k * k);
    }
}

/* For each of q queries, the m sums over the n sample curves X_j at a
   positive distance of (query - X_j) / sqrt(d2[j]): from 0.0, in sample
   order, as NumPy's axis-0 sum adds them.  d2 is q x n, one row of
   squared distances per query. */
void fkwc_spatial_sums(const double *sample, const double *queries, const double *d2,
                       int64_t q, int64_t n, int64_t m, double *out)
{
    for (int64_t i = 0; i < q; i++) {
        const double *restrict x = queries + i * m;
        double *restrict acc = out + i * m;
        for (int64_t t = 0; t < m; t++)
            acc[t] = 0.0;
        for (int64_t j = 0; j < n; j++) {
            double nrm = sqrt(d2[i * n + j]);
            if (!(nrm > 0.0))
                continue;
            const double *restrict s = sample + j * m;
            for (int64_t t = 0; t < m; t++)
                acc[t] += (x[t] - s[t]) / nrm;
        }
    }
}
"""

# no -ffast-math or the like: the operations must round as NumPy's do; no
# -march=native: the cache name knows only platform.machine(), so the
# library must suit any CPU of that machine type
FLAGS = ("-O3", "-ffp-contract=off", "-fPIC", "-shared")


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
    ksd_sums: Callable
    spatial_sums: Callable


_P, _I, _D = ctypes.c_void_p, ctypes.c_int64, ctypes.c_double
_SIGNATURES = {
    "fkwc_max_arcs": (_P, _I, _I, _D, _D, _P, _P),
    "fkwc_ksd_sums": (_P, _I, _P, _I, _P, _P, _P),
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

    def ksd_sums(gram: np.ndarray, gq: np.ndarray) -> np.ndarray:
        """Per row of the (q, n) kernel values ``gq``, the sum of its
        query's (k, k) terms over the (n, n) Gram matrix ``gram``, in
        NumPy's order for the contiguous matrix; (q,)."""
        gram, gq = (np.ascontiguousarray(a, dtype=float) for a in (gram, gq))
        n, q = gram.shape[0], gq.shape[0]
        if gram.shape != (n, n) or gq.shape != (q, n):
            raise ValueError("ksd_sums: mismatched shapes")
        work = np.empty(3 * n)
        idx = np.empty(n, dtype=np.int64)
        out = np.empty(q)
        fns["fkwc_ksd_sums"](gram.ctypes.data, n, gq.ctypes.data, q, work.ctypes.data,
                             idx.ctypes.data, out.ctypes.data)
        return out

    def spatial_sums(sample: np.ndarray, queries: np.ndarray, d2: np.ndarray) -> np.ndarray:
        """Per query, the (m,) sum of (q - X_j) / sqrt(d2[i, j]) over the
        sample curves at a positive distance; (q, m)."""
        sample, queries, d2 = (np.ascontiguousarray(a, dtype=float)
                               for a in (sample, queries, d2))
        (n, m), q = sample.shape, queries.shape[0]
        if queries.shape != (q, m) or d2.shape != (q, n):
            raise ValueError("spatial_sums: mismatched shapes")
        out = np.empty((q, m))
        fns["fkwc_spatial_sums"](sample.ctypes.data, queries.ctypes.data, d2.ctypes.data,
                                 q, n, m, out.ctypes.data)
        return out

    return Kernels(max_arcs, ksd_sums, spatial_sums)
