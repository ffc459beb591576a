"""Vanilla iterative WPE dereverberation.

Per frequency band, a delayed multichannel linear predictor is fit by
reweighted least squares; the prediction residual is the desired signal.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import ArgumentError, SingularBandError
from .numerics import solve_hpd

# Regressor bytes built at once; a chunk holds at least one bin.
CHUNK_BYTES = 8 << 20


@dataclass(frozen=True)
class WpeParams:
    filter_order: int = 28
    # The largest delay inside roomsim.EARLY_WINDOW_S at the default hop,
    # floor(0.050 * 16000 / 128) = 6 frames (48 ms): the reference keeps
    # those early reflections, so the predictor must not cancel them.
    delay: int = 6
    epsilon: float = 1e-4
    iterations: int = 3
    reference_channel: int = 0

    def __post_init__(self):
        if self.filter_order < 1:
            raise ArgumentError("filter_order must be >= 1")
        if self.delay < 1:
            raise ArgumentError("delay must be >= 1")
        if not self.epsilon > 0:
            raise ArgumentError("epsilon must be > 0")
        if self.iterations < 1:
            raise ArgumentError("iterations must be >= 1")
        if self.reference_channel < 0:
            raise ArgumentError("reference_channel must be >= 0")


@dataclass(frozen=True)
class IterationRecord:
    """One solver iteration: the error (WPE's mean residual power, PnPWPE's
    consensus error) and the relative_change of the estimate (S_hat, R)."""

    error: float
    change: float


def relative_change(new, old):
    """||new - old|| / ||old||; inf if only old is zero, 0.0 if both are.
    Not np.linalg.norm: its numpy BLAS calls slow the scipy band solves."""
    diff, base = (np.sum(np.abs(x) ** 2) for x in (new - old, old))
    return float(np.sqrt(diff / base)) if base else (np.inf if diff else 0.0)


@dataclass(frozen=True)
class FilterBank:
    """Per-band prediction weights, shape (num_bins, L*Q)."""

    weights: np.ndarray

    def __post_init__(self):
        weights = np.asarray(self.weights, dtype=np.complex128)
        if weights.ndim != 2:
            raise ArgumentError("filter bank must be 2-D")
        if not np.all(np.isfinite(weights)):
            raise ArgumentError("filter weights must be finite")
        object.__setattr__(self, "weights", weights)

    @property
    def num_bins(self):
        return self.weights.shape[0]


class Regressors:
    """Delayed regressors of every bin, built one chunk of bins at a time.

    Stands for the (bins, L*Q, frames) tensor whose entry [k, q*L + l, n]
    is X_q(n-D-l, k), zero for negative frames, without holding it: only a
    zero-padded, bin-major copy of the observation is kept, and `windows`
    reads a chunk of bins as a strided window view of that copy (the
    construction of NARA-WPE's build_y_tilde, Drude et al. 2018).
    """

    def __init__(self, obs, delay, order):
        n_ch, n_frames, n_bins = obs.shape
        self.order = order
        self.shape = (n_bins, order * n_ch, n_frames)
        # padded[k, q, m] = X_q(m - D - L + 1, k): window n of length L
        # holds the frames n-D-L+1 .. n-D, oldest first.
        self._padded = np.zeros((n_bins, n_ch, n_frames + order - 1),
                                dtype=np.complex128)
        kept = max(n_frames - delay, 0)
        self._padded[:, :, n_frames + order - 1 - kept:] = (
            obs[:, :kept, :].transpose(2, 0, 1))
        bin_bytes = 16 * order * n_ch * n_frames
        self.chunk_bins = max(1, min(n_bins, CHUNK_BYTES // bin_bytes))

    @property
    def nbytes(self):
        return self._padded.nbytes

    def windows(self, k0, k1):
        """Bins k0..k1-1 as a (k1-k0, Q, L, frames) strided view of the
        padded copy; entry [k, q, l, n] is X_q(n-D-l, k)."""
        windows = sliding_window_view(self._padded[k0:k1], self.order, axis=2)
        return windows[..., ::-1].transpose(0, 1, 3, 2)

    def block(self, k0, k1):
        """The regressors of bins k0..k1-1 as a (k1-k0, L*Q, frames) array."""
        return self.windows(k0, k1).reshape(k1 - k0, *self.shape[1:])

    def chunks(self):
        """(k0, k1) bin ranges over all bins, chunk_bins at a time."""
        n_bins = self.shape[0]
        for k0 in range(0, n_bins, self.chunk_bins):
            yield k0, min(k0 + self.chunk_bins, n_bins)

    def predict(self, weights):
        """w^H x for all frames and bins: (frames, bins)."""
        n_bins, _, n_frames = self.shape
        prediction = np.empty((n_frames, n_bins), dtype=np.complex128)
        for k0, k1 in self.chunks():
            prediction[:, k0:k1] = np.einsum(
                "ki,kin->nk", weights[k0:k1].conj(), self.block(k0, k1))
        return prediction


def stack_regressors(obs, delay, order):
    """Regressors of a (Q, frames, bins) observation; see Regressors."""
    return Regressors(obs, delay, order)


def estimate_psd(s_hat, epsilon):
    """Elementwise max of squared magnitude and the floor epsilon."""
    if not epsilon > 0:
        raise ArgumentError("epsilon must be > 0")
    return np.maximum(np.abs(s_hat) ** 2, epsilon)


def solve_all_bands(regressors, targets, weights):
    """Per-band weighted normal-equation solve and the prediction it makes.

    regressors: Regressors of shape (bins, L*Q, frames); targets, weights:
    (frames, bins). Each chunk of bins is written once into scaled rows
    [x; t] / sqrt(weight), straight from the strided window view. Per band,
    one Hermitian rank-k update of those rows yields the lower triangles of
    Z = sum x x^H / weight and q = sum x t* / weight; solve_hpd reads only
    that lower triangle. The prediction w^H x is taken from the same scaled
    rows right after the solve and unscaled once at the end.
    Returns the (bins, L*Q) filter weights and the (frames, bins)
    prediction. A failing band raises SingularBandError naming that band.
    """
    # Imported here: scipy.linalg slows every CLI start-up otherwise, and
    # simulate and evaluate never solve a band.
    from scipy.linalg.blas import zgemv, zherk

    n_bins, n_taps, n_frames = regressors.shape
    scale = np.sqrt(1.0 / weights).T  # (bins, frames)
    filters = np.empty((n_bins, n_taps), dtype=np.complex128)
    prediction = np.empty((n_bins, n_frames), dtype=np.complex128)
    rows = np.empty((regressors.chunk_bins, n_taps + 1, n_frames),
                    dtype=np.complex128)
    # Per-band BLAS and LAPACK calls all go to scipy (zherk, zpotrf, zpotrs,
    # zgemv); everything else is elementwise or chunk-level numpy.
    # numpy and scipy each bundle their own OpenBLAS, and alternating the two
    # thread pools band by band made a preset-A WPE run about 3x slower.
    for k0, k1 in regressors.chunks():
        chunk = rows[:k1 - k0]
        windows = regressors.windows(k0, k1)
        np.multiply(windows, scale[k0:k1, None, None],
                    out=chunk[:, :n_taps].reshape(windows.shape))
        np.multiply(targets[:, k0:k1].T, scale[k0:k1], out=chunk[:, n_taps])
        for k in range(k0, k1):
            # band.T and band[:n_taps].T are Fortran-ordered, so f2py copies
            # neither; trans=2 gives conj(band band^H), whose lower triangle
            # holds conj(Z) and, in its last row, q.
            band = chunk[k - k0]
            gram = zherk(1.0, band.T, trans=2, lower=1)
            try:
                filters[k] = solve_hpd(gram[:n_taps, :n_taps].conj(),
                                       gram[n_taps, :n_taps])
            except SingularBandError as exc:
                raise SingularBandError(f"band {k}: {exc}", band=k) from exc
            prediction[k] = zgemv(1.0, band[:n_taps].T, filters[k].conj())
    prediction /= scale
    return filters, prediction.T


def apply_filters(observed, filters, delay, order, reference_channel=0):
    """Prediction residual: X_ref(n,k) - w^H(k) regressor(n,k)."""
    n_ch = observed.num_channels
    if filters.weights.shape != (observed.num_bins, order * n_ch):
        raise ArgumentError("filter bank shape inconsistent with observed")
    if reference_channel >= n_ch:
        raise ArgumentError("reference_channel out of range")
    reference = observed.channels[reference_channel]
    regressors = stack_regressors(observed.as_array(), delay, order)
    return reference.with_values(
        reference.values - regressors.predict(filters.weights))


def prepare(observed, params):
    """Set-up shared by run_wpe and run_pnpwpe.

    Checks that params.reference_channel exists and that there are more
    frames than params.delay; returns the reference-channel spectrogram and
    the delayed regressors of observed.
    """
    if params.reference_channel >= observed.num_channels:
        raise ArgumentError("reference_channel out of range")
    if observed.num_frames <= params.delay:
        raise ArgumentError("need more frames than the prediction delay")
    reference = observed.channels[params.reference_channel]
    regressors = stack_regressors(observed.as_array(), params.delay,
                                  params.filter_order)
    return reference, regressors


def run_wpe(observed, params):
    """Iterative WPE: alternate per-band filter solves and PSD updates.

    Returns (estimate spectrogram, filter bank, IterationRecord list); each
    record holds the mean residual power and the relative change of S_hat.
    """
    reference, regressors = prepare(observed, params)
    ref = reference.values
    s_hat = ref
    trace = []
    for _ in range(params.iterations):
        weights, prediction = solve_all_bands(
            regressors, ref, estimate_psd(s_hat, params.epsilon))
        s_prev, s_hat = s_hat, ref - prediction
        trace.append(IterationRecord(float(np.mean(np.abs(s_hat) ** 2)),
                                     relative_change(s_hat, s_prev)))
    return reference.with_values(s_hat), FilterBank(weights), trace
