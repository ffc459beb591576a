"""Complex linear algebra kernel for the per-band filter solves.

Hermitian positive-definite solves of the weighted normal equations
Z w = q with relative diagonal loading.
"""
from __future__ import annotations

import numpy as np

from .errors import ArgumentError, SingularBandError

DEFAULT_LOADING = 1e-10


def solve_hpd(Z, q, loading=DEFAULT_LOADING):
    """Solve (Z + loading*delta*I) w = q by Cholesky factorization.

    Only the lower triangle of the Hermitian matrix Z is read; the strict
    upper triangle may hold anything, NaN included. delta = trace(Z)/size
    gives relative diagonal loading. An all-zero system returns the zero
    vector; a zero trace with a nonzero q, a failed factorization or a
    non-finite solution raises SingularBandError. Z and q are not modified.
    """
    # Imported here, like the BLAS calls of wpe.solve_all_bands; a repeated
    # import costs about a microsecond per band.
    from scipy.linalg.lapack import zpotrf, zpotrs

    if loading < 0:
        raise ArgumentError("loading must be >= 0")
    size = q.shape[0]
    trace = float(np.trace(Z).real)
    if trace == 0.0:
        if np.all(q == 0):
            return np.zeros(size, dtype=np.complex128)
        raise SingularBandError("zero matrix with nonzero right-hand side")
    # The same LAPACK calls as scipy.linalg.cho_factor/cho_solve, without
    # their per-call wrapping; potrf factors the F-ordered copy in place.
    A = np.array(Z, dtype=np.complex128, order="F")
    A[np.diag_indices(size)] += loading * trace / size
    factor, info = zpotrf(A, lower=1, clean=0, overwrite_a=1)
    if info == 0:
        w, info = zpotrs(factor, q, lower=1)
    if info != 0:
        raise SingularBandError(
            f"Cholesky factorization failed: LAPACK info {info}")
    if not np.all(np.isfinite(w)):
        raise SingularBandError("non-finite solution")
    return w
