"""Complex linear algebra kernel for the per-band filter solves.

Hermitian positive-definite solves of the weighted normal equations
Z w = q with relative diagonal loading.
"""
from __future__ import annotations

import importlib
import importlib.machinery
import importlib.util
import os
import sys

import numpy as np

from .errors import ArgumentError, SingularBandError

DEFAULT_LOADING = 1e-10


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


def solve_hpd(Z, q, loading=DEFAULT_LOADING):
    """Solve (Z + loading*delta*I) w = q by Cholesky factorization.

    Only the lower triangle of the Hermitian matrix Z is read; the strict
    upper triangle may hold anything, NaN included. delta = trace(Z)/size
    gives relative diagonal loading. An all-zero system returns the zero
    vector; a zero trace with a nonzero q, a failed factorization or a
    non-finite solution raises SingularBandError. Z and q are not modified.
    """
    if loading < 0:
        raise ArgumentError("loading must be >= 0")
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
    A[np.diag_indices(size)] += loading * trace / size
    factor, info = lapack.zpotrf(A, lower=1, clean=0, overwrite_a=1)
    if info == 0:
        w, info = lapack.zpotrs(factor, q, lower=1)
    if info != 0:
        raise SingularBandError(
            f"Cholesky factorization failed: LAPACK info {info}")
    if not np.all(np.isfinite(w)):
        raise SingularBandError("non-finite solution")
    return w
