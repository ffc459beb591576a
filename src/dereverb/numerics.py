"""Complex linear algebra kernel for the per-band filter solves, and the
one module that calls BLAS and LAPACK.

Hermitian positive-definite solves of the weighted normal equations
Z w = q with relative diagonal loading, the rank-k update that forms them,
the prediction of each solved filter, and the thread count of the BLAS
they run on. Every call goes to scipy's OpenBLAS (zherk, zpotrf, zpotrs,
zgemv): numpy bundles its own, and alternating the two thread pools band
by band made a preset-A WPE run about 3x slower.
"""
from __future__ import annotations

import contextlib
import ctypes
import functools
import glob
import importlib
import importlib.machinery
import importlib.util
import os
import sys

import numpy as np

from .errors import ArgumentError, SingularBandError

LOADING = 1e-10  # diagonal loading of solve_hpd, relative to trace/size
# CBLAS enum values: CblasColMajor, CblasLower, CblasConjTrans.
_COL_MAJOR, _LOWER, _CONJ_TRANS = 102, 122, 113


def scipy_linalg_module(name):
    """scipy.linalg.<name>, one of scipy's f2py extension modules (_fblas,
    _flapack), loaded straight from its file on first use.

    `import scipy.linalg` costs about 0.3 s, most of it numpy.f2py,
    numpy.testing and numpy.ma pulled in by scipy's array-API layer, while
    the band solves need only four f2py routines. Loading the extension
    file runs neither the scipy nor the scipy.linalg package __init__. The
    module is registered under its canonical name before it runs, so a
    later `import scipy.linalg` reuses this very module. Where no such file
    sits in scipy's linalg directory, as in an editable build, this is the
    normal import; without scipy it raises ImportError.
    """
    qualname = "scipy.linalg." + name
    module = sys.modules.get(qualname)
    if module is not None:
        return module
    spec = importlib.util.find_spec("scipy")
    directories = spec.submodule_search_locations if spec else None
    for directory in directories or ():
        for suffix in importlib.machinery.EXTENSION_SUFFIXES:
            path = os.path.join(directory, "linalg", name + suffix)
            if not os.path.isfile(path):
                continue
            file_spec = importlib.util.spec_from_file_location(qualname, path)
            module = importlib.util.module_from_spec(file_spec)
            sys.modules[qualname] = module
            try:
                file_spec.loader.exec_module(module)
            except BaseException:
                del sys.modules[qualname]
                raise
            return module
    return importlib.import_module(qualname)


@functools.cache
def scipy_openblas():
    """scipy's bundled OpenBLAS as a ctypes library, or None.

    The wheel's _fblas finds it through its RPATH, $ORIGIN/../../scipy.libs,
    so this looks for libscipy_openblas* there, beside the _fblas that
    scipy_linalg_module loaded. The dynamic loader hands back the copy
    _fblas already uses, so a thread count set here is the one _fblas and
    _flapack run at. None where no such file exports scipy_cblas_zherk and
    the thread-count calls (another scipy build, or no wheel layout).
    """
    fblas = scipy_linalg_module("_fblas")
    pattern = os.path.join(os.path.dirname(fblas.__file__), os.pardir,
                           os.pardir, "scipy.libs", "libscipy_openblas*")
    for path in sorted(glob.glob(pattern)):
        try:
            lib = ctypes.CDLL(path)
            herk = lib.scipy_cblas_zherk
            get_threads = lib.scipy_openblas_get_num_threads
            set_threads = lib.scipy_openblas_set_num_threads
        except (OSError, AttributeError):
            continue
        c_int, c_double, pointer = (ctypes.c_int, ctypes.c_double,
                                    ctypes.c_void_p)
        herk.argtypes = [c_int, c_int, c_int, c_int, c_int, c_double,
                         pointer, c_int, c_double, pointer, c_int]
        herk.restype = None
        get_threads.argtypes, get_threads.restype = [], c_int
        set_threads.argtypes, set_threads.restype = [c_int], None
        return lib
    return None


def blas_threads():
    """The thread count scipy's OpenBLAS is configured with: what
    OPENBLAS_NUM_THREADS or, without it, the CPU affinity set at start-up.
    1 where scipy_openblas() finds no library."""
    lib = scipy_openblas()
    return lib.scipy_openblas_get_num_threads() if lib else 1


@contextlib.contextmanager
def one_blas_thread():
    """Holds scipy's OpenBLAS at one thread inside the block and restores
    its thread count afterwards, also when the block raises. Does nothing
    where scipy_openblas() finds no library."""
    lib = scipy_openblas()
    if lib is None:
        yield
        return
    threads = lib.scipy_openblas_get_num_threads()
    lib.scipy_openblas_set_num_threads(1)
    try:
        yield
    finally:
        lib.scipy_openblas_set_num_threads(threads)


def herk_lower(rows, gram):
    """Writes the lower triangle of conj(rows rows^H) into gram in place.

    rows: C-contiguous complex128 (n, k); gram: F-contiguous complex128
    (n, n), whose strict upper triangle is left as it was. This is f2py's
    zherk(1.0, rows.T, trans=2, lower=1). Through scipy_openblas() it is
    cblas_zherk, which ctypes calls with the GIL released, so threads can
    run it side by side; without that library it is the f2py zherk, which
    holds the GIL.
    """
    n, k = rows.shape
    if not (rows.dtype == gram.dtype == np.complex128
            and rows.flags.c_contiguous and gram.flags.f_contiguous
            and gram.shape == (n, n)):
        raise ArgumentError("herk_lower needs C-ordered complex128 rows and "
                            "an F-ordered complex128 square gram to match")
    lib = scipy_openblas()
    if lib is None:
        scipy_linalg_module("_fblas").zherk(1.0, rows.T, trans=2, lower=1,
                                             c=gram, overwrite_c=1)
    else:
        # __array_interface__, not .ctypes: that makes reference cycles,
        # which hold memory until the garbage collector runs.
        lib.scipy_cblas_zherk(_COL_MAJOR, _LOWER, _CONJ_TRANS, n, k, 1.0,
                              rows.__array_interface__["data"][0], k, 0.0,
                              gram.__array_interface__["data"][0], n)


def band_prediction(rows, filt):
    """filt^H rows by the f2py zgemv, for C-ordered rows (n, frames): rows.T
    is then Fortran-ordered, so f2py does not copy it."""
    return scipy_linalg_module("_fblas").zgemv(1.0, rows.T, filt.conj())


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
    trace = float(np.trace(Z).real)
    if trace == 0.0:
        if np.all(q == 0):
            return np.zeros(size, dtype=np.complex128)
        raise SingularBandError("zero matrix with nonzero right-hand side")
    # One sys.modules lookup after the first band.
    lapack = scipy_linalg_module("_flapack")
    # The same LAPACK calls as scipy.linalg.cho_factor/cho_solve, without
    # their per-call wrapping; potrf factors the F-ordered copy in place.
    A = np.array(Z, dtype=np.complex128, order="F")
    A[np.diag_indices(size)] += LOADING * trace / size
    factor, info = lapack.zpotrf(A, lower=1, clean=0, overwrite_a=1)
    if info == 0:
        w, info = lapack.zpotrs(factor, q, lower=1)
    if info != 0:
        raise SingularBandError(
            f"Cholesky factorization failed: LAPACK info {info}")
    if not np.all(np.isfinite(w)):
        raise SingularBandError("non-finite solution")
    return w
