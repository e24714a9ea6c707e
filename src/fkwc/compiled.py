"""The depth kernels' inner loops, compiled from C on first use.

The loops of three depths of :mod:`fkwc.depths` run here when a C
compiler is found:

* ``query_keys`` and ``halfspace_sweep``: the events of
  :func:`fkwc.depths.halfspace_depth_2d` (``mfhd'``), one uint64 per pair
  of query and point, laid out to read as positive normal doubles so that
  rows sort as doubles, and the one pass over each query's sorted row that
  counts its exact Tukey depth;
* ``ksd_sums``: each query's sum of its (k, k) kernel-trick terms, for
  ``ksd``, formed 128 at a time on the stack and added in the pairwise
  order in which NumPy sums a contiguous array, so no (k, k) matrix is
  written;
* ``spatial_sums``: each query's sum of unit vectors, for ``spatial``.
  For the sample's own curves each pair's unit vector is formed once
  where the pair's two distances have the same square root: the other
  term is its exact negation, and every sum still adds its terms in
  sample order, so half the divisions, which bound the loop, go;
* ``sq_diffs``: a block of rows of squared differences (a_i - b_j)^2,
  NumPy's subtract and then its multiply, for ``spatial`` and ``ksd``'s
  distances, which NumPy integrates a block at a time.

The first :func:`load` of a process compiles ``SOURCE`` with the system C
compiler (``cc`` on ``PATH``) and caches the shared library under
``$XDG_CACHE_HOME/fkwc`` (default ``~/.cache/fkwc``), named by a CRC-32 of
the source, the flags and the machine.  Each build writes a temporary
file and renames it into place, so processes that build at once leave one
whole library, and a cached file that does not load (junk, or cut short)
is built again, once.  Without a compiler, when the build or the load
fails, or when the library lacks any of its functions, :func:`load`
returns None, and ``depths._loops`` hands out the plain NumPy form of
each loop, which takes the same arguments.  Either way the choice is
made once per process, and the results are the same bits: the ``ksd``
and ``spatial`` functions do the IEEE operations of their NumPy forms,
in the same order, and the halfspace counts are exact on both paths.
``FLAGS`` build at -O3, which vectorises the elementwise loops (GCC 12's
-O2 does not), and keep -ffp-contract=off; a vector IEEE divide rounds
as the scalar one does.

The five exported functions are built once per level of ``CLONES``:
x86-64-v4 (AVX-512), x86-64-v3 (AVX2 and FMA) and the baseline the flags
target, and the loader picks the clone of the CPU when the library
loads.  GCC 11 and later build the clones on x86-64 with glibc, whose
loader resolves them; anywhere else the one baseline build is made.  The
clones write the same bits: IEEE add, multiply, divide and sqrt round
alike at every vector width; without fast-math GCC reassociates no
floating-point sum, so every written order holds; -ffp-contract=off
fuses no multiply and add in the FMA clones; and ``hs_sign`` calls
``fma`` by name for a product's error, which is exact in hardware and in
libm alike.  A static helper that GCC does not inline is built for the
baseline alone, so ``hs_row``, the sweep's body, is always inlined.  One
file thus suits every CPU of its machine type, which is all the cache
name knows.  The clones double a cold build, to about
0.54 s of wall time.
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

# the CPU levels each exported loop is built for, where GCC builds clones:
# the targets of SOURCE's target_clones attribute
CLONES = ("arch=x86-64-v4", "arch=x86-64-v3", "default")

SOURCE = r"""
#include <math.h>
#include <stddef.h>
#include <stdint.h>
#include <string.h>

/* Each exported loop is built once per CPU level, and the loader picks the
   clone of the CPU it runs on.  GCC 11 and later build clones on x86-64
   with glibc, whose loader resolves them; elsewhere, or with FKWC_CLONES
   defined empty, the loops are built for the flags' target alone. */
#ifndef FKWC_CLONES
#if defined(__x86_64__) && defined(__GLIBC__) && defined(__GNUC__) && !defined(__clang__) \
    && __GNUC__ >= 11
#define FKWC_CLONES __attribute__((target_clones("arch=x86-64-v4", "arch=x86-64-v3", "default")))
#else
#define FKWC_CLONES
#endif
#endif

/* mfhd': the exact bivariate Tukey depth by one sweep of each query's
   directions.  An event is the line through a first point f, the row's
   query (f is 0), and a second point s, a sample point: the 64 bits hold
   a zero, a one (bit 61), its direction's pseudo-angle in [0, 2) as a
   fixed-point key of 61 - bits bits, then f and s in ib = (bits - 1) / 2
   bits each, then a flip bit, set when s lies below f (dy < 0, or dy = 0
   and dx < 0), so that w = flip ? f - s : s - f is the direction, in
   [0, pi).  Read as a double, an event is positive and normal (its
   exponent field starts 01), and such doubles sort in the order of their
   bits.  A pair of coincident points gets the largest key, KMAX (from
   top = 2 - 2^(bits - 60)), which sorts last; the others are capped at
   KMAX - 1 (from cap = 2 - 2^(bits - 59)). */
static inline uint64_t hs_event(double dx, double dy, uint64_t idx, double cap, double top,
                                int64_t bits)
{
    /* & and |, a multiplication by -1 and the flip as a sign bit: no branch
       and no int-float conversion, so the loops vectorise */
    double sg = (dy < 0.0) | ((dy == 0.0) & (dx < 0.0)) ? -1.0 : 1.0;
    double wx = sg * dx, wy = sg * dy, ax = fabs(wx);
    /* wy / (wx + wy) for wx > 0, else 1 + |wx| / (|wx| + wy): one division */
    double key = (wx > 0.0 ? 0.0 : 1.0) + (wx > 0.0 ? wy : ax) / (ax + wy);
    key = key < cap ? key : cap; /* a 0 / 0 too */
    key = (dx == 0.0) & (dy == 0.0) ? top : key;
    /* key + 2 in [2, 4): its low 52 bits are key 2^51, and their top
       61 - bits bits the fixed-point key, truncated */
    double k2 = copysign(key + 2.0, sg);
    uint64_t kb;
    memcpy(&kb, &k2, sizeof kb);
    return ((kb & ((UINT64_C(1) << 52) - 1)) >> (bits - 9)) << bits | UINT64_C(1) << 61 | idx
           | kb >> 63;
}

/* The n events of each cell c0 <= c < c1, the query c % q of slice c / q of
   qs, a stack of (2, q) slices, against the n points of that slice of pts;
   f is 0, one row of out per cell. */
FKWC_CLONES
void fkwc_query_keys(const double *pts, const double *qs, int64_t n, int64_t q, int64_t c0,
                     int64_t c1, int64_t bits, uint64_t *out)
{
    double cap = 2.0 - ldexp(1.0, (int)(bits - 59)), top = 2.0 - ldexp(1.0, (int)(bits - 60));
    for (int64_t c = c0; c < c1; c++) {
        const double *x = pts + c / q * 2 * n, *y = x + n;
        double qx = qs[c / q * 2 * q + c % q], qy = qs[c / q * 2 * q + q + c % q];
        uint64_t *restrict o = out + (c - c0) * n;
        for (int64_t j = 0; j < n; j++)
            o[j] = hs_event(x[j] - qx, y[j] - qy, (uint64_t)j << 1, cap, top, bits);
    }
}

/* x + y = a + b exactly (Knuth's TwoSum) */
static inline void two_sum(double a, double b, double *x, double *y)
{
    *x = a + b;
    double bv = *x - a, av = *x - bv;
    *y = (a - av) + (b - bv);
}

/* h += b, h a nonoverlapping expansion of len components by increasing
   magnitude, zeros dropped; returns the new length */
static int grow(double *h, int len, double b)
{
    int k = 0;
    for (int i = 0; i < len; i++) {
        double x, y;
        two_sum(b, h[i], &x, &y);
        b = x;
        if (y != 0.0)
            h[k++] = y;
    }
    if (b != 0.0 || k == 0)
        h[k++] = b;
    return k;
}

struct hs_table {
    const double *qx, *qy, *px, *py; /* first and second points */
    int64_t ib;
};

/* The sign of w1 x w2, the cross product of two events' directions:
   Shewchuk's orient2d error bound decides it from floats, or else the
   exact sum of the products of the differences' TwoSum expansions, each
   product with its error from fma.  Exact for inputs of magnitude 0 or
   in [2^-400, 2^500], where no product's error underflows. */
static int hs_sign(const struct hs_table *tb, uint64_t e1, uint64_t e2)
{
    uint64_t mask = (UINT64_C(1) << tb->ib) - 1;
    int64_t f1 = e1 >> (tb->ib + 1) & mask, s1 = e1 >> 1 & mask;
    int64_t f2 = e2 >> (tb->ib + 1) & mask, s2 = e2 >> 1 & mask;
    int flips = (int)((e1 ^ e2) & 1);
    double ax = tb->qx[f1], ay = tb->qy[f1], bx = tb->px[s1], by = tb->py[s1];
    double cx = tb->qx[f2], cy = tb->qy[f2], dx = tb->px[s2], dy = tb->py[s2];
    double l = (bx - ax) * (dy - cy), r = (by - ay) * (dx - cx), det = l - r;
    double bound = (3.0 + 16.0 * 0x1p-53) * 0x1p-53 * (fabs(l) + fabs(r));
    int sign;
    if (det > bound || -det > bound) {
        sign = det > 0.0 ? 1 : -1;
    } else {
        double u[2], v[2], w[2], z[2], h[16];
        int len = 0;
        two_sum(bx, -ax, &u[0], &u[1]);
        two_sum(dy, -cy, &v[0], &v[1]);
        two_sum(by, -ay, &w[0], &w[1]);
        two_sum(dx, -cx, &z[0], &z[1]);
        for (int i = 0; i < 2; i++)
            for (int j = 0; j < 2; j++) {
                double p = u[i] * v[j], q = w[i] * z[j];
                /* the products' errors, exact by fma */
                len = grow(h, len, fma(u[i], v[j], -p));
                len = grow(h, len, p);
                len = grow(h, len, -fma(w[i], z[j], -q));
                len = grow(h, len, -q);
            }
        sign = (h[len - 1] > 0.0) - (h[len - 1] < 0.0);
    }
    return flips ? -sign : sign;
}

/* events[0..len) in the exact order of their directions, by merge sort */
static void hs_sort(uint64_t *ev, int64_t len, uint64_t *tmp, const struct hs_table *tb)
{
    if (len < 2)
        return;
    int64_t h = len / 2, i = 0, j = h, k = 0;
    hs_sort(ev, h, tmp, tb);
    hs_sort(ev + h, len - h, tmp, tb);
    while (i < h && j < len)
        tmp[k++] = hs_sign(tb, ev[j], ev[i]) > 0 ? ev[j++] : ev[i++];
    while (i < h)
        tmp[k++] = ev[i++];
    for (int64_t x = 0; x < k; x++)
        ev[x] = tmp[x];
}

/* The most points an open halfplane through one query holds, from its row
   of len ascending events.  K counts the points not coincident with the
   query, and L of them lie left of the line through the query that
   rotates from just before direction 0 (a point is left when above) to
   just before pi; with D = 2 L - K, max(L, K - L) = (K + |D|) / 2.  An
   event moves its point across the line, and R = D - D0 is read at the
   end of each group of events of one direction.  The sweep ends where it
   started, sides swapped, so D ends at -D0 and R at -2 D0: one pass gives
   D0 and the extremes of D.  Keys within 4 units of each other are
   ordered, and grouped by equal direction, by hs_sign.  Always inlined: a
   static function GCC does not inline into a clone is built for the
   baseline alone. */
__attribute__((always_inline)) static inline int64_t
hs_row(uint64_t *ev, int64_t len, const struct hs_table *tb, uint64_t *tmp)
{
    int64_t bits = 2 * tb->ib + 1, K = len, R = 0, hi = 0, lo = 0;
    /* ev >> bits of a coincident pair: bit 61 and KMAX */
    uint64_t last = (UINT64_C(1) << (62 - bits)) - 1;
    for (; len > 0 && ev[len - 1] >> bits == last; len--) /* coincident points */
        K--;
    for (int64_t e = 0; e < len; e++) {
        if (e + 1 == len || (ev[e + 1] >> bits) - (ev[e] >> bits) >= 4) {
            R += 4 * (int64_t)(ev[e] & 1) - 2; /* the one event of its direction */
            hi = R > hi ? R : hi;
            lo = R < lo ? R : lo;
            continue;
        }
        int64_t c = e + 2;
        while (c < len && (ev[c] >> bits) - (ev[c - 1] >> bits) < 4)
            c++;
        hs_sort(ev + e, c - e, tmp, tb);
        for (int64_t g = e; g < c;) { /* g .. h - 1: one direction */
            int64_t h = g + 1;
            while (h < c && hs_sign(tb, ev[h - 1], ev[h]) == 0)
                h++;
            for (; g < h; g++)
                R += 4 * (int64_t)(ev[g] & 1) - 2;
            hi = R > hi ? R : hi;
            lo = R < lo ? R : lo;
        }
        e = c - 1;
    }
    int64_t d0 = -R / 2, up = d0 + hi, down = -(d0 + lo);
    return (K + (up > down ? up : down)) / 2;
}

/* Depths (n - best) / n of cells c0, c0 + 1, ... of fkwc_query_keys from
   their rows of n ascending events, one row per cell, into out[c]; tmp
   holds n events. */
FKWC_CLONES
void fkwc_halfspace_sweep(uint64_t *events, int64_t rows, const double *pts, const double *qs,
                          int64_t n, int64_t q, int64_t c0, int64_t bits, uint64_t *tmp,
                          double *out)
{
    for (int64_t c = c0; c < c0 + rows; c++) {
        const double *qx = qs + c / q * 2 * q + c % q, *px = pts + c / q * 2 * n;
        struct hs_table tb = {qx, qx + q, px, px + n, (bits - 1) / 2};
        out[c] = (double)(n - hs_row(events + (c - c0) * n, n, &tb, tmp)) / (double)n;
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
FKWC_CLONES
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

/* acc[t] += (x[t] - s[t]) / nrm and, with other, other[t] -= the same */
static inline void spatial_add(double *restrict acc, double *restrict other,
                               const double *restrict x, const double *restrict s, double nrm,
                               int64_t m)
{
    for (int64_t t = 0; t < m; t++) {
        double u = (x[t] - s[t]) / nrm;
        acc[t] += u;
        if (other)
            other[t] -= u;
    }
}

/* For each of q queries, the m sums over the n sample curves X_j at a
   positive distance of (query - X_j) / sqrt(d2[j]): from 0.0, in sample
   order, as NumPy's axis-0 sum adds them.  d2 is q x n, one row of
   squared distances per query.  When the queries are the sample itself,
   each pair i < j is formed once where sqrt(d2[i][j]) and sqrt(d2[j][i])
   are the same bits: the (j, i) term is then the (i, j) one negated,
   exactly, and each row still receives its terms in sample order (the
   rows before it from their own passes, then its own). */
FKWC_CLONES
void fkwc_spatial_sums(const double *sample, const double *queries, const double *d2,
                       int64_t q, int64_t n, int64_t m, double *out)
{
    int own = queries == sample && q == n;
    for (int64_t i = 0; i < q * m; i++)
        out[i] = 0.0;
    for (int64_t i = 0; i < q; i++)
        for (int64_t j = own ? i + 1 : 0; j < n; j++) {
            const double *x = queries + i * m, *s = sample + j * m;
            double nij = sqrt(d2[i * n + j]), nji = own ? sqrt(d2[j * n + i]) : 0.0;
            if (nij > 0.0)
                spatial_add(out + i * m, own && nji == nij ? out + j * m : NULL, x, s, nij, m);
            if (nji > 0.0 && nji != nij)
                spatial_add(out + j * m, NULL, s, x, nji, m);
        }
}

/* Rows i0 <= i < i1 of the squared differences of a, na x m, against b,
   nb x m: out[i - i0][j][t] = (a[i][t] - b[j][t])^2, NumPy's subtract and
   then its multiply. */
FKWC_CLONES
void fkwc_sq_diffs(const double *a, const double *b, int64_t i0, int64_t i1, int64_t nb,
                   int64_t m, double *out)
{
    for (int64_t i = i0; i < i1; i++)
        for (int64_t j = 0; j < nb; j++) {
            const double *restrict x = a + i * m, *restrict y = b + j * m;
            double *restrict o = out + ((i - i0) * nb + j) * m;
            for (int64_t t = 0; t < m; t++) {
                double d = x[t] - y[t];
                o[t] = d * d;
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
    """The loops, compiled, or in NumPy as ``depths._NUMPY_LOOPS``; see the
    module docstring."""

    query_keys: Callable
    halfspace_sweep: Callable
    ksd_sums: Callable
    spatial_sums: Callable
    sq_diffs: Callable


_P, _I, _D = ctypes.c_void_p, ctypes.c_int64, ctypes.c_double
_SIGNATURES = {
    "fkwc_query_keys": (_P, _P, _I, _I, _I, _I, _I, _P),
    "fkwc_halfspace_sweep": (_P, _I, _P, _P, _I, _I, _I, _I, _P, _P),
    "fkwc_ksd_sums": (_P, _I, _P, _I, _P, _P, _P),
    "fkwc_spatial_sums": (_P, _P, _P, _I, _I, _I, _P),
    "fkwc_sq_diffs": (_P, _P, _I, _I, _I, _I, _P),
}


@functools.cache
def load() -> Kernels | None:
    """The compiled loops, or None where any of them cannot be had; built
    on the first call of a process."""
    path = library_path()
    try:
        try:
            return bind(path)
        except OSError:  # not built yet, or a cached file that does not load: build it, once
            return bind(path) if _build(path) else None
    except (OSError, AttributeError):
        # AttributeError: a library without one of the functions, not
        # rebuilt: the loader would hand back the handle it already holds
        # for this path
        return None


def bind(path) -> Kernels:
    """The loops of the library built from ``SOURCE`` at ``path``; raises
    OSError where it does not load and AttributeError where it lacks one
    of them."""
    lib = ctypes.CDLL(str(path))
    fns = {}
    for name, argtypes in _SIGNATURES.items():
        fns[name] = getattr(lib, name)
        fns[name].argtypes = argtypes
        fns[name].restype = None

    def query_keys(pts: np.ndarray, qs: np.ndarray, c0: int, c1: int, bits: int,
                   out: np.ndarray) -> None:
        """The events of cells c0 <= c < c1 (query c % q of slice c // q of
        the contiguous (k, 2, q) ``qs``) into the rows of ``out``."""
        fns["fkwc_query_keys"](pts.ctypes.data, qs.ctypes.data, pts.shape[2], qs.shape[2],
                               c0, c1, bits, out.ctypes.data)

    def halfspace_sweep(events: np.ndarray, pts: np.ndarray, qs: np.ndarray, c0: int,
                        bits: int, out: np.ndarray) -> None:
        """The depths of cells c0, c0 + 1, ... from their sorted rows of
        ``events`` into the contiguous (k, q) ``out``; ``events`` is
        reordered where keys tie."""
        rows, n = events.shape
        tmp = np.empty(n, dtype=np.uint64)
        fns["fkwc_halfspace_sweep"](events.ctypes.data, rows, pts.ctypes.data, qs.ctypes.data,
                                    n, qs.shape[2], c0, bits, tmp.ctypes.data, out.ctypes.data)

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

    def sq_diffs(a: np.ndarray, b: np.ndarray, i0: int, i1: int, out: np.ndarray) -> None:
        """The squared differences of rows i0 <= i < i1 of the contiguous
        (na, m) ``a`` against every row of the contiguous (nb, m) ``b`` into
        the contiguous (i1 - i0, nb, m) ``out``."""
        fns["fkwc_sq_diffs"](a.ctypes.data, b.ctypes.data, i0, i1, b.shape[0], b.shape[1],
                             out.ctypes.data)

    return Kernels(query_keys, halfspace_sweep, ksd_sums, spatial_sums, sq_diffs)
