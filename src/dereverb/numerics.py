"""Complex linear algebra kernel for the per-band filter solves, and the
one module that reaches BLAS and LAPACK through ctypes and sets their
thread count.

Hermitian positive-definite solves of the weighted normal equations
Z w = q with relative diagonal loading, the rank-k update that forms them,
and the hold that keeps their BLAS at one thread. Every call goes to the
OpenBLAS that numpy bundles and has already loaded: zherk, zpotrf and
zpotrs through ctypes, so one library and one thread pool serve the band
solves and numpy alike, and every call runs without the GIL. Where numpy
ships no such library, numpy's matmul and np.linalg give the same results
to rounding.
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
# CBLAS and LAPACKE enum values: column-major, lower, conjugate transpose.
_COL_MAJOR, _LOWER, _CONJ_TRANS = 102, 122, 113
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
    "LAPACKE_zpotrs_work": (_BLASINT, [_CINT, ctypes.c_char, _BLASINT,
                                       _BLASINT, _POINTER, _BLASINT,
                                       _POINTER, _BLASINT]),
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


def herk_lower(rows, gram):
    """Writes the lower triangle of conj(rows rows^H) into gram in place.

    rows: C-contiguous complex128 (n, k); gram: F-contiguous complex128
    (n, n), whose strict upper triangle is left as it was. Column-major,
    rows is the (k, n) matrix rows.T, so this is cblas_zherk of
    rows.T^H rows.T.
    """
    n, k = rows.shape
    if not (rows.dtype == gram.dtype == np.complex128
            and rows.flags.c_contiguous and gram.flags.f_contiguous
            and gram.shape == (n, n)):
        raise ArgumentError("herk_lower needs C-ordered complex128 rows and "
                            "an F-ordered complex128 square gram to match")
    lib = openblas()
    if lib is None:
        lower = np.tril_indices(n)
        gram[lower] = (rows.conj() @ rows.T)[lower]
    else:
        lib.cblas_zherk(_COL_MAJOR, _LOWER, _CONJ_TRANS, n, k, 1.0,
                        _address(rows), k, 0.0, _address(gram), n)


def solve_hpd(Z, q):
    """Solve (Z + LOADING*delta*I) w = q by Cholesky factorization.

    Only the lower triangle of the Hermitian matrix Z is read; the strict
    upper triangle may hold anything, NaN included. delta = trace(Z)/size
    makes the diagonal loading LOADING relative. An all-zero system returns
    the zero vector; a zero trace with a nonzero q, a failed factorization
    or a non-finite solution raises SingularBandError. Z and q are not
    modified.
    """
    size = q.shape[0]
    if Z.shape != (size, size) or q.shape != (size,):
        raise ArgumentError("solve_hpd needs a square Z and a vector q "
                            "to match")
    trace = float(np.trace(Z).real)
    if trace == 0.0:
        if np.all(q == 0):
            return np.zeros(size, dtype=np.complex128)
        raise SingularBandError("zero matrix with nonzero right-hand side")
    A = np.array(Z, dtype=np.complex128, order="F")
    A[np.diag_indices(size)] += LOADING * trace / size
    lib = openblas()
    if lib is None:
        try:
            factor = np.linalg.cholesky(A)
        except np.linalg.LinAlgError as exc:
            raise SingularBandError(
                f"Cholesky factorization failed: {exc}") from exc
        w = np.linalg.solve(factor.conj().T, np.linalg.solve(factor, q))
    else:
        # zpotrf factors A in place; zpotrs overwrites w, a copy of q.
        w, address = np.array(q, dtype=np.complex128), _address(A)
        info = lib.LAPACKE_zpotrf_work(_COL_MAJOR, b"L", size, address, size)
        if info == 0:
            info = lib.LAPACKE_zpotrs_work(_COL_MAJOR, b"L", size, 1, address,
                                           size, _address(w), size)
        if info != 0:
            raise SingularBandError(
                f"Cholesky factorization failed: LAPACK info {info}")
    if not np.all(np.isfinite(w)):
        raise SingularBandError("non-finite solution")
    return w
