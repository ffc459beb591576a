"""Complex linear algebra kernel for the per-band filter solves, and the
one module that reaches BLAS and LAPACK through ctypes and sets their
thread count.

Weighted normal equations Z w = q with relative diagonal loading, solved
from the augmented Gram conj([Z q; q^H c]) of the rows [x; t], in buffers
that band_solver makes once for each worker, by one rank-k update, one
Cholesky factorization and one triangular solve; and the hold that keeps
BLAS at one thread. Every call goes to the OpenBLAS that numpy bundles
and has already loaded: zherk, zpotrf and ztrsv through ctypes, so one
library and one thread pool serve the band solves and numpy alike, and
every call runs without the GIL. Where numpy ships no such library,
numpy's matmul and np.linalg give the same results to rounding.
"""
from __future__ import annotations

import contextlib
import ctypes
import functools
import glob
import os
import threading
import types

import numpy as np

from .errors import ArgumentError, SingularBandError

LOADING = 1e-10  # diagonal loading of solve_hpd, relative to trace/size
# CBLAS enum values: column-major, lower, (conjugate) transpose, non-unit.
_COL_MAJOR, _LOWER, _TRANS, _CONJ_TRANS, _NON_UNIT = 102, 122, 112, 113, 131
_CINT, _BLASINT, _DOUBLE, _POINTER = (ctypes.c_int, ctypes.c_int64,
                                      ctypes.c_double, ctypes.c_void_p)
# The routines used, each exported as scipy_<name>64_ by numpy's OpenBLAS,
# with their result and argument types. It is an ILP64 build: sizes and
# LAPACK results are 64-bit (blasint), enums and thread counts C ints.
_ROUTINES = {
    "cblas_zherk": (None, [_CINT, _CINT, _CINT, _BLASINT, _BLASINT, _DOUBLE,
                           _POINTER, _BLASINT, _DOUBLE, _POINTER, _BLASINT]),
    "LAPACKE_zpotrf_work": (_BLASINT, [_CINT, ctypes.c_char, _BLASINT,
                                       _POINTER, _BLASINT]),
    "cblas_ztrsv": (None, [_CINT, _CINT, _CINT, _CINT, _BLASINT, _POINTER,
                           _BLASINT, _POINTER, _BLASINT]),
    "openblas_get_num_threads": (_CINT, []),
    "openblas_set_num_threads": (None, [_CINT]),
}


def _address(array):
    # __array_interface__, not .ctypes: that makes reference cycles, which
    # hold memory until the garbage collector runs.
    return array.__array_interface__["data"][0]


@functools.cache
def openblas():
    """numpy's bundled OpenBLAS, its routines by their names in _ROUTINES
    with types declared, or None.

    numpy's wheel ships libscipy_openblas64_* in numpy.libs beside the numpy
    package and loads it on import, so the dynamic loader hands back that
    very copy, and a thread count set here is the one numpy's own BLAS
    calls run at. None where no such file exports every routine (another
    numpy build, or no wheel layout).
    """
    pattern = os.path.join(os.path.dirname(os.path.dirname(np.__file__)),
                           "numpy.libs", "libscipy_openblas64_*")
    for path in sorted(glob.glob(pattern)):
        try:
            lib = ctypes.CDLL(path)
            routines = {name: getattr(lib, f"scipy_{name}64_")
                        for name in _ROUTINES}
        except (OSError, AttributeError):
            continue
        for name, (restype, argtypes) in _ROUTINES.items():
            routines[name].restype = restype
            routines[name].argtypes = argtypes
        return types.SimpleNamespace(**routines)
    return None


# One one_blas_thread block at a time; reentrant, so a block nested in
# another, in the same thread, yields 1 where a plain lock would deadlock.
_HOLD = threading.RLock()


@contextlib.contextmanager
def one_blas_thread():
    """Holds numpy's OpenBLAS at one thread inside the block and yields the
    thread count it was configured with: what OPENBLAS_NUM_THREADS or,
    without it, the CPU affinity set at start-up. The count is restored on
    exit, also when the block raises. Blocks take turns under a module
    lock, so overlapping holds neither read nor restore each other's count.
    Yields 1 and sets nothing where openblas() finds no library."""
    with _HOLD:
        lib = openblas()
        if lib is None:
            yield 1
            return
        threads = lib.openblas_get_num_threads()
        lib.openblas_set_num_threads(1)
        try:
            yield threads
        finally:
            lib.openblas_set_num_threads(threads)


def band_solver(n_taps, n_frames):
    """One worker's band buffers: (rows, solve). rows: C-ordered complex128
    (n_taps + 1, n_frames), for the caller's [x; t]. solve() writes the
    lower triangle of conj(rows rows^H), the augmented Gram conj([Z q;
    q^H c]), into a zeroed F-ordered buffer of its own (cblas_zherk of
    rows.T^H rows.T, column-major, at addresses taken here, once) and
    returns solve_hpd of that buffer: on the library path a view of it,
    which the next solve() overwrites."""
    size = n_taps + 1
    rows = np.empty((size, n_frames), dtype=np.complex128)
    gram = np.zeros((size, size), dtype=np.complex128, order="F")
    lib, rows_at, gram_at = openblas(), _address(rows), _address(gram)

    def solve():
        if lib is None:
            lower = np.tril_indices(size)
            gram[lower] = (rows.conj() @ rows.T)[lower]
        else:
            lib.cblas_zherk(_COL_MAJOR, _LOWER, _CONJ_TRANS, size, n_frames,
                            1.0, rows_at, n_frames, 0.0, gram_at, size)
        return solve_hpd(gram)
    return rows, solve


def solve_hpd(gram):
    """Solve (Z + LOADING*delta*I) w = q in place in gram, by Cholesky.

    gram: F-ordered complex128 (n+1, n+1), conj([Z q; q^H c]) as a
    band_solver writes it from the rows [x; t]; only its lower triangle
    is read.
    delta = trace(Z)/n makes the loading relative. c, which w does not
    depend on, becomes 2c + trace(Z), so only a Z that is not positive
    definite after loading fails. chol(gram) = [L11 0; r^H l] with
    L11 r = conj(q), and w solves L11^T w = conj(r), its last row. An
    all-zero system returns zeros; a zero trace with a nonzero q, a failed
    factorization or a non-finite w raises SingularBandError. gram is
    overwritten; on the library path w is a view of its last row.
    """
    if not (gram.dtype == np.complex128 and gram.flags.f_contiguous
            and gram.ndim == 2 and gram.shape[0] == gram.shape[1]):
        raise ArgumentError("gram must be a square F-ordered complex128 array")
    size, n = gram.shape[0], gram.shape[0] - 1
    trace = float(np.trace(gram[:n, :n]).real)
    if trace == 0.0:
        if np.all(gram[n, :n] == 0):
            return np.zeros(n, dtype=np.complex128)
        raise SingularBandError("zero matrix with nonzero right-hand side")
    diagonal = gram.reshape(-1, order="F")[::size + 1]  # a view
    diagonal[:n] += LOADING * trace / n
    diagonal[n] += diagonal[n].real + trace
    lib = openblas()
    if lib is None:
        try:
            factor = np.linalg.cholesky(gram)
        except np.linalg.LinAlgError as exc:
            raise SingularBandError(
                f"Cholesky factorization failed: {exc}") from exc
        w = np.linalg.solve(factor[:n, :n].T, factor[n, :n])
    else:
        address, w = _address(gram), gram[n, :n]
        info = lib.LAPACKE_zpotrf_work(_COL_MAJOR, b"L", size, address, size)
        if info != 0:
            raise SingularBandError(
                f"Cholesky factorization failed: LAPACK info {info}")
        lib.cblas_ztrsv(_COL_MAJOR, _LOWER, _TRANS, _NON_UNIT, n, address,
                        size, _address(w), size)
    if not np.all(np.isfinite(w)):
        raise SingularBandError("non-finite solution")
    return w
