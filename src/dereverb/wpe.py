"""Vanilla iterative WPE dereverberation.

Per frequency band, a delayed multichannel linear predictor is fit by
reweighted least squares; the prediction residual is the desired signal.
"""
from __future__ import annotations

import threading
from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import ArgumentError, SingularBandError
from .numerics import band_solver, one_blas_thread
from .stft import MultichannelSpectrogram


@dataclass(frozen=True)
class WpeParams:
    filter_order: int = 28
    # The largest delay inside roomsim.EARLY_WINDOW_S at the default hop,
    # floor(0.050 * 16000 / 128) = 6 frames (48 ms): the reference keeps
    # those early reflections, so the predictor must not cancel them.
    delay: int = 6
    epsilon: float = 1e-4
    # The share c of the per-bin PSD floor; see prepare for the law.
    floor_share: float = 0.0
    iterations: int = 3
    reference_channel: int = 0

    def __post_init__(self):
        if self.filter_order < 1:
            raise ArgumentError("filter_order must be >= 1")
        if self.delay < 1:
            raise ArgumentError("delay must be >= 1")
        if not 0 < self.epsilon < np.inf:
            raise ArgumentError("epsilon must be finite and > 0")
        if not 0 <= self.floor_share < np.inf:
            raise ArgumentError("floor_share must be finite and >= 0")
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
    Not np.linalg.norm: its other summation order would move the last bits
    of every change, which PnPWPE's stop_tol compares."""
    diff, base = (np.sum(np.abs(x) ** 2) for x in (new - old, old))
    return float(np.sqrt(diff / base)) if base else (np.inf if diff else 0.0)


@dataclass(frozen=True)
class FilterBank:
    """Per-band prediction weights, shape (num_bins, L*Q)."""

    weights: np.ndarray


class Regressors:
    """Delayed regressors of every bin, read one band at a time.

    Stands for the (bins, L*Q, frames) tensor whose entry [k, q*L + l, n]
    is X_q(n-D-l, k), zero for negative frames, without holding it: only a
    zero-padded, bin-major copy of the Q channels, any sequence of
    (frames, bins) arrays, is kept (`nbytes` is its size). `windows` is a
    (bins, Q, L, frames) strided window view of that copy whose entry
    [k, q, l, n] is X_q(n-D-l, k), so windows[k] reads band k (the
    construction of NARA-WPE's build_y_tilde, Drude et al. 2018).
    """

    def __init__(self, channels, delay, order):
        n_frames, n_bins = channels[0].shape
        self.shape = (n_bins, order * len(channels), n_frames)
        # padded[k, q, m] = X_q(m - D - L + 1, k): window n of length L
        # holds the frames n-D-L+1 .. n-D, oldest first.
        padded = np.zeros((n_bins, len(channels), n_frames + order - 1),
                          dtype=np.complex128)
        kept = max(n_frames - delay, 0)
        for q, values in enumerate(channels):
            padded[:, q, n_frames + order - 1 - kept:] = values[:kept].T
        self.nbytes = padded.nbytes
        windows = sliding_window_view(padded, order, axis=2)
        self.windows = windows[..., ::-1].transpose(0, 1, 3, 2)


def stack_regressors(channels, delay, order):
    """Regressors of Q channels, (frames, bins) arrays; see Regressors."""
    return Regressors(channels, delay, order)


def solve_all_bands(regressors, targets, weights):
    """Per-band weighted normal-equation solve and the prediction it makes.

    regressors: Regressors of shape (bins, L*Q, frames); targets, weights:
    (frames, bins). Band by band, the rows buffer of a band_solver is
    written with the scaled rows [x; t] / sqrt(weight), straight from the
    strided window view, and its solve() solves the normal equations of
    Z = sum x x^H / weight and q = sum x t* / weight from the augmented
    Gram of those rows. The prediction w^H x, numpy's matmul, is taken
    from the same scaled rows right after the solve and unscaled once at
    the end. Returns the (bins, L*Q) filter weights and the
    (frames, bins) prediction.

    The bins are split into as many contiguous ranges as the thread count
    one_blas_thread yields (at most one per bin), each solved by its own
    thread with its own band_solver; the calling thread solves the first.
    Every BLAS and LAPACK call runs without the GIL, so the ranges overlap,
    and that hold keeps BLAS at one thread meanwhile, so every band is
    computed alike whatever the thread count; concurrent calls take turns
    at it. A failing band raises SingularBandError naming the lowest
    failing band, after every thread has finished.
    """
    n_bins, n_taps, n_frames = regressors.shape
    scale = np.sqrt(1.0 / weights).T  # (bins, frames)
    filters = np.empty((n_bins, n_taps), dtype=np.complex128)
    prediction = np.empty((n_bins, n_frames), dtype=np.complex128)
    errors = {}  # the first bin of a failed range: its exception

    def solve_range(start, stop):
        try:
            band, solve = band_solver(n_taps, n_frames)
            taps = band[:n_taps].reshape(regressors.windows.shape[1:])  # view
            for k in range(start, stop):
                np.multiply(regressors.windows[k], scale[k], out=taps)
                np.multiply(targets[:, k], scale[k], out=band[n_taps])
                try:
                    filters[k] = solve()
                except SingularBandError as exc:
                    raise SingularBandError(f"band {k}: {exc}") from exc
                prediction[k] = filters[k].conj() @ band[:n_taps]
        except Exception as exc:  # raised by the calling thread, below
            errors[start] = exc

    with one_blas_thread() as count:
        workers = min(count, n_bins)
        edges = [n_bins * i // workers for i in range(workers + 1)]
        ranges = list(zip(edges, edges[1:]))
        threads = [threading.Thread(target=solve_range, args=bounds)
                   for bounds in ranges[1:]]
        for thread in threads:
            thread.start()
        try:
            solve_range(*ranges[0])
        finally:
            for thread in threads:
                thread.join()
    if errors:
        raise errors[min(errors)]
    prediction /= scale
    return filters, prediction.T


def prepare(observed: MultichannelSpectrogram, params: WpeParams):
    """Set-up shared by run_wpe and run_pnpwpe.

    Checks that params.reference_channel exists and that there are more
    frames than params.delay; returns the reference-channel spectrogram,
    the delayed regressors of observed and psd, the weight law of both
    runs: psd(S) is max(|S|^2, floor) elementwise, where each bin's floor
    is floor_share * mean over frames of |X_ref|^2, or epsilon where that
    is 0, as in every bin at floor_share 0. A positive share scales the
    floor with the input's power.
    """
    if params.reference_channel >= observed.num_channels:
        raise ArgumentError("reference_channel out of range")
    if observed.num_frames <= params.delay:
        raise ArgumentError("need more frames than the prediction delay")
    reference = observed.channels[params.reference_channel]
    floor = params.floor_share * np.mean(np.abs(reference.values) ** 2, axis=0)
    floor = np.where(floor > 0, floor, params.epsilon)
    regressors = stack_regressors([ch.values for ch in observed.channels],
                                  params.delay, params.filter_order)
    return reference, regressors, lambda s: np.maximum(np.abs(s) ** 2, floor)


def run_wpe(observed, params):
    """Iterative WPE: alternate per-band filter solves and PSD updates,
    each iteration weighted by the run's psd (see prepare) of the last S_hat.

    Returns (estimate spectrogram, filter bank, IterationRecord list); each
    record holds the mean residual power and the relative change of S_hat.
    """
    reference, regressors, psd = prepare(observed, params)
    ref = reference.values
    s_hat = ref
    trace = []
    for _ in range(params.iterations):
        weights, prediction = solve_all_bands(regressors, ref, psd(s_hat))
        s_prev, s_hat = s_hat, ref - prediction
        trace.append(IterationRecord(float(np.mean(np.abs(s_hat) ** 2)),
                                     relative_change(s_hat, s_prev)))
    return reference.with_values(s_hat), FilterBank(weights), trace
