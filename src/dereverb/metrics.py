"""Objective speech quality metrics: cepstral distance and
frequency-weighted segmental SNR, plus cross-correlation time alignment."""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import AlignmentError, ArgumentError, MetricError
from .signals import TimeSignal, convolve
from .stft import hann

FRAME_LEN = 512
HOP = 128
NUM_CEPS = 24
CD_CLAMP = (0.0, 10.0)
SNR_CLAMP = (-10.0, 35.0)
NUM_BANDS = 23
BAND_WEIGHT_EXP = 0.2
VAD_RANGE_DB = 40.0
LOG_FLOOR = 1e-10


@dataclass(frozen=True)
class MetricReport:
    cd: float
    fwsegsnr: float
    frames_used: int


def _frame(x, frame_len=FRAME_LEN, hop=HOP):
    if len(x) < frame_len:
        raise MetricError("signal shorter than one metric frame")
    n_frames = (len(x) - frame_len) // hop + 1
    idx = np.arange(n_frames)[:, None] * hop + np.arange(frame_len)[None, :]
    return x[idx] * hann(frame_len)[None, :]


def _vad_mask(ref_frames):
    energy = np.sum(ref_frames**2, axis=1)
    peak = float(np.max(energy, initial=0.0))
    if peak <= 0:
        raise MetricError("reference is silent")
    return energy > peak * 10.0 ** (-VAD_RANGE_DB / 10.0)


def _active_frames(reference, estimate):
    """Windowed frames of both signals where the reference is speech-active.

    Both signals must share sample rate and length; a pair with no active
    frame raises MetricError. Returns (reference frames, estimate frames).
    """
    if reference.sample_rate != estimate.sample_rate:
        raise ArgumentError("sample_rate mismatch")
    if len(reference) != len(estimate):
        raise ArgumentError("length mismatch; align the signals first")
    ref_frames = _frame(reference.samples)
    est_frames = _frame(estimate.samples)
    mask = _vad_mask(ref_frames)
    if not np.any(mask):
        raise MetricError("no frames above the energy threshold")
    return ref_frames[mask], est_frames[mask]


def cepstral_distance(reference, estimate):
    """Mean truncated-cepstrum distance over speech-active frames.

    Per frame: real cepstrum of the log power spectrum; distance over
    coefficients 1..24 (gain coefficient excluded), clamped to [0, 10].
    """
    return _cd(*_active_frames(reference, estimate))


def _cd(ref_frames, est_frames):
    def cepstra(frames):
        spectra = np.fft.rfft(frames, n=FRAME_LEN, axis=1)
        log_power = np.log(np.abs(spectra) ** 2 + LOG_FLOOR)
        return np.fft.irfft(log_power, n=FRAME_LEN, axis=1)

    c_ref = cepstra(ref_frames)[:, 1:NUM_CEPS + 1]
    c_est = cepstra(est_frames)[:, 1:NUM_CEPS + 1]
    per_frame = (10.0 / np.log(10.0)) * np.sqrt(
        2.0 * np.sum((c_ref - c_est) ** 2, axis=1))
    per_frame = np.clip(per_frame, *CD_CLAMP)
    return float(np.mean(per_frame))


def mel_filterbank(num_bands=NUM_BANDS, fft_len=FRAME_LEN, sample_rate=16000):
    """Triangular mel-spaced bands over 0..sample_rate/2, (bands, bins)."""
    def to_mel(f):
        return 2595.0 * np.log10(1.0 + f / 700.0)

    def from_mel(m):
        return 700.0 * (10.0 ** (m / 2595.0) - 1.0)

    n_bins = fft_len // 2 + 1
    edges = from_mel(np.linspace(0.0, to_mel(sample_rate / 2.0),
                                 num_bands + 2))
    freqs = np.arange(n_bins) * sample_rate / fft_len
    bank = np.zeros((num_bands, n_bins))
    for m in range(num_bands):
        lo, mid, hi = edges[m], edges[m + 1], edges[m + 2]
        up = (freqs - lo) / max(mid - lo, 1e-12)
        down = (hi - freqs) / max(hi - mid, 1e-12)
        bank[m] = np.clip(np.minimum(up, down), 0.0, 1.0)
    return bank


def fw_seg_snr(reference, estimate):
    """Frequency-weighted segmental SNR over speech-active frames.

    Per frame and mel band: SNR of reference band energy over the band
    energy of (reference - estimate), clamped to [-10, 35]; band weights
    are reference band magnitudes to the 0.2 power.
    """
    return _fwsegsnr(*_active_frames(reference, estimate),
                     reference.sample_rate)


def _fwsegsnr(ref_frames, est_frames, sample_rate):
    bank = mel_filterbank(sample_rate=sample_rate)
    ref_spec = np.fft.rfft(ref_frames, n=FRAME_LEN, axis=1)
    est_spec = np.fft.rfft(est_frames, n=FRAME_LEN, axis=1)
    e_ref = np.abs(ref_spec) ** 2 @ bank.T
    e_err = np.abs(ref_spec - est_spec) ** 2 @ bank.T
    with np.errstate(divide="ignore"):
        ratio = np.maximum(e_ref, LOG_FLOOR) / np.maximum(e_err, LOG_FLOOR)
        snr = np.where(e_err == 0.0, SNR_CLAMP[1],
                       np.clip(10.0 * np.log10(ratio), *SNR_CLAMP))
    weights = np.sqrt(e_ref) ** BAND_WEIGHT_EXP
    per_frame = np.sum(weights * snr, axis=1) / np.maximum(
        np.sum(weights, axis=1), 1e-12)
    return float(np.mean(per_frame))


def align(reference, estimate, max_shift=1024):
    """Time-align by the cross-correlation peak within +/- max_shift.

    The cross-correlation sum_n est[n + lag] ref[n] is the FFT convolution
    of est with the reversed ref (signals.convolve), so it agrees with the
    direct form to rounding; the first maximum over ascending lags wins. A
    window whose correlation is zero to rounding raises AlignmentError.
    Returns both signals trimmed to their overlap.
    """
    if reference.sample_rate != estimate.sample_rate:
        raise ArgumentError("sample_rate mismatch")
    ref = reference.samples
    est = estimate.samples
    if not np.any(ref) or not np.any(est):
        raise AlignmentError("cannot align silent signals")
    corr = convolve(estimate, TimeSignal(ref[::-1], reference.sample_rate))
    lags = np.arange(-(len(ref) - 1), len(est))
    window = np.abs(lags) <= max_shift
    if not np.any(window):
        raise AlignmentError("no admissible lags")
    segment = corr.samples[window]
    # FFT rounding leaves about 1e-16 of the Cauchy-Schwarz bound where the
    # exact correlation is zero; a window below 1e-12 of it is degenerate.
    bound = np.linalg.norm(ref) * np.linalg.norm(est)
    if np.max(np.abs(segment)) <= 1e-12 * bound:
        raise AlignmentError("degenerate correlation")
    shift = int(lags[window][np.argmax(segment)])
    if shift >= 0:
        ref_al, est_al = ref, est[shift:]
    else:
        ref_al, est_al = ref[-shift:], est
    n = min(len(ref_al), len(est_al))
    if n == 0:
        raise AlignmentError("empty overlap after alignment")
    return (TimeSignal(ref_al[:n], reference.sample_rate),
            TimeSignal(est_al[:n], estimate.sample_rate))


def evaluate_pair(reference, estimate):
    """Align, then compute both metrics over one set of active frames."""
    ref, est = align(reference, estimate)
    ref_frames, est_frames = _active_frames(ref, est)
    return MetricReport(
        cd=_cd(ref_frames, est_frames),
        fwsegsnr=_fwsegsnr(ref_frames, est_frames, ref.sample_rate),
        frames_used=len(ref_frames),
    )
