"""The bivariate halfspace kernel's arc counts, compiled from C on first use.

:func:`fkwc.depths.halfspace_depth_2d` sorts each query's direction angles
with NumPy; :func:`load` returns a function that counts the largest
half-open arc of every sorted row in one compiled sweep.  The first call
compiles ``SOURCE`` with the system C compiler (``cc`` on ``PATH``) and
caches the shared library under ``$XDG_CACHE_HOME/fkwc`` (default
``~/.cache/fkwc``), named by a CRC-32 of the source, the flags and the
machine.  Each build writes a temporary file and renames it into place, so
processes that build at once leave one whole library, and a cached file
that does not load (junk, or cut short) is built again, once.  Without a
compiler, or when the build or the load fails, :func:`load` returns None
and the NumPy counts in ``depths`` run.  Either way the choice is made
once per process, and the counts are the same integers: both compare the
same floats.
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

import numpy as np

SOURCE = r"""
#include <math.h>
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
"""

# no -ffast-math and no -march=native: the adds must round as NumPy's do
FLAGS = ("-O2", "-ffp-contract=off", "-fPIC", "-shared")


def library_path() -> Path:
    """Where the library for this source, these flags and this machine lives."""
    cache = os.environ.get("XDG_CACHE_HOME") or os.path.join(os.path.expanduser("~"), ".cache")
    tag = zlib.crc32("\0".join((SOURCE, *FLAGS, platform.machine())).encode())
    return Path(cache, "fkwc", f"arcsweep-{tag:08x}.so")


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


@functools.cache
def load():
    """The compiled counts as ``max_arcs(angles) -> (q,) int64`` for sorted
    (q, n) angle rows, or None; built on the first call of a process."""
    path = library_path()
    try:
        try:
            fn = ctypes.CDLL(str(path)).fkwc_max_arcs
        except OSError:  # not built yet, or a cached file that does not load: build it, once
            if not _build(path):
                return None
            fn = ctypes.CDLL(str(path)).fkwc_max_arcs
    except (OSError, AttributeError):
        # AttributeError: a library without the function, not rebuilt: the
        # loader would hand back the handle it already holds for this path
        return None
    fn.argtypes = (ctypes.c_void_p, ctypes.c_int64, ctypes.c_int64, ctypes.c_double,
                   ctypes.c_double, ctypes.c_void_p, ctypes.c_void_p)
    fn.restype = None

    def max_arcs(angles: np.ndarray) -> np.ndarray:
        angles = np.ascontiguousarray(angles, dtype=float)
        q, n = angles.shape
        doubled = np.empty(2 * n + 1)
        out = np.empty(q, dtype=np.int64)
        # the floats NumPy adds: a + pi and a + 2.0 * pi
        fn(angles.ctypes.data, q, n, np.pi, 2.0 * np.pi, doubled.ctypes.data, out.ctypes.data)
        return out

    return max_arcs
