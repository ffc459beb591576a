"""Objective speech quality metrics: cepstral distance and
frequency-weighted segmental SNR, plus cross-correlation time alignment."""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import AlignmentError, ArgumentError, MetricError
from .signals import TimeSignal, fft_length
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


def _frames(x):
    """Unwindowed (frames, FRAME_LEN) strided view of x at HOP intervals."""
    if len(x) < FRAME_LEN:
        raise MetricError("signal shorter than one metric frame")
    return sliding_window_view(x, FRAME_LEN)[::HOP]


def _vad_mask(ref_frames):
    energy = np.sum(ref_frames**2, axis=1)
    peak = float(np.max(energy, initial=0.0))
    if peak <= 0:
        raise MetricError("reference is silent")
    return energy > peak * 10.0 ** (-VAD_RANGE_DB / 10.0)


def _active_spectra(reference, estimate):
    """One-sided spectra of the Hann-windowed frames of both signals where
    the reference is speech-active, one rfft a frame.

    Both signals must share sample rate and length; a pair with no active
    frame raises MetricError. Returns (reference spectra, estimate
    spectra), each (active frames, FRAME_LEN // 2 + 1).
    """
    if reference.sample_rate != estimate.sample_rate:
        raise ArgumentError("sample_rate mismatch")
    if len(reference) != len(estimate):
        raise ArgumentError("length mismatch; align the signals first")
    window = hann(FRAME_LEN)
    ref_frames = _frames(reference.samples) * window
    mask = _vad_mask(ref_frames)
    if not np.any(mask):
        raise MetricError("no frames above the energy threshold")
    est_frames = _frames(estimate.samples)[mask] * window
    return (np.fft.rfft(ref_frames[mask], n=FRAME_LEN, axis=1),
            np.fft.rfft(est_frames, n=FRAME_LEN, axis=1))


def cepstral_distance(reference, estimate):
    """Mean truncated-cepstrum distance over speech-active frames.

    Per frame: real cepstrum of the log power spectrum; distance over
    coefficients 1..24 (gain coefficient excluded), clamped to [0, 10].
    """
    return _cd(*_active_spectra(reference, estimate))


def _cd(ref_spec, est_spec):
    def cepstra(spectra):
        log_power = np.log(np.abs(spectra) ** 2 + LOG_FLOOR)
        return np.fft.irfft(log_power, n=FRAME_LEN, axis=1)

    c_ref = cepstra(ref_spec)[:, 1:NUM_CEPS + 1]
    c_est = cepstra(est_spec)[:, 1:NUM_CEPS + 1]
    per_frame = (10.0 / np.log(10.0)) * np.sqrt(
        2.0 * np.sum((c_ref - c_est) ** 2, axis=1))
    per_frame = np.clip(per_frame, *CD_CLAMP)
    return float(np.mean(per_frame))


def mel_filterbank(sample_rate=16000):
    """Triangular mel bands over 0..sample_rate/2, (NUM_BANDS, bins)."""
    def to_mel(f):
        return 2595.0 * np.log10(1.0 + f / 700.0)

    def from_mel(m):
        return 700.0 * (10.0 ** (m / 2595.0) - 1.0)

    n_bins = FRAME_LEN // 2 + 1
    edges = from_mel(np.linspace(0.0, to_mel(sample_rate / 2.0),
                                 NUM_BANDS + 2))
    freqs = np.arange(n_bins) * sample_rate / FRAME_LEN
    bank = np.zeros((NUM_BANDS, n_bins))
    for m in range(NUM_BANDS):
        lo, mid, hi = edges[m], edges[m + 1], edges[m + 2]
        up = (freqs - lo) / max(mid - lo, 1e-12)
        down = (hi - freqs) / max(hi - mid, 1e-12)
        bank[m] = np.clip(np.minimum(up, down), 0.0, 1.0)
    return bank


def fw_seg_snr(reference, estimate):
    """Frequency-weighted segmental SNR over speech-active frames.

    Per frame and mel band: SNR of reference band energy over the band
    energy of (reference - estimate), clamped to [-10, 35]; band weights
    are reference band magnitudes to the 0.2 power. The reference energy
    is floored at LOG_FLOOR and the error energy 35 dB lower, so the score
    is continuous in the error and an error of zero scores 35.
    """
    return _fwsegsnr(*_active_spectra(reference, estimate),
                     reference.sample_rate)


def _fwsegsnr(ref_spec, est_spec, sample_rate):
    bank = mel_filterbank(sample_rate=sample_rate)
    e_ref = np.abs(ref_spec) ** 2 @ bank.T
    e_err = np.abs(ref_spec - est_spec) ** 2 @ bank.T
    # The error floor sits SNR_CLAMP[1] dB under the reference floor, so an
    # error too small to resolve scores the ceiling, as no error does.
    err_floor = LOG_FLOOR * 10.0 ** (-SNR_CLAMP[1] / 10.0)
    ratio = np.maximum(e_ref, LOG_FLOOR) / np.maximum(e_err, err_floor)
    snr = np.clip(10.0 * np.log10(ratio), *SNR_CLAMP)
    weights = np.sqrt(e_ref) ** BAND_WEIGHT_EXP
    # The weighted mean taken as its shortfall from the ceiling, so a frame
    # whose bands all score the ceiling scores it exactly.
    ceiling = SNR_CLAMP[1]
    per_frame = ceiling - np.sum(weights * (ceiling - snr), axis=1) / (
        np.maximum(np.sum(weights, axis=1), 1e-12))
    return float(np.mean(per_frame))


def align(reference, estimate, max_shift=1024):
    """Time-align by the cross-correlation peak within +/- max_shift.

    The cross-correlation c[lag] = sum_n est[n + lag] ref[n] of every lag
    in the window is read off one circular correlation,
    irfft(rfft(est) * conj(rfft(ref))). Its length is the power of two at
    or above max(len) plus the largest admissible |lag|, so no lag in the
    window wraps around; for 8 s at 16 kHz and the default window that is
    131072 points, half a full linear correlation. It agrees with the
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
    before = min(max_shift, len(ref) - 1)
    after = min(max_shift, len(est) - 1)
    lags = np.arange(-before, after + 1)
    if lags.size == 0:
        raise AlignmentError("no admissible lags")
    nfft = fft_length(max(len(ref), len(est)) + max(before, after))
    spectrum = np.fft.rfft(est, nfft)
    spectrum *= np.fft.rfft(ref, nfft).conj()
    # A negative lag reads from the end of the circular correlation.
    segment = np.fft.irfft(spectrum, nfft)[lags]
    # FFT rounding leaves about 1e-16 of the Cauchy-Schwarz bound where the
    # exact correlation is zero; a window below 1e-12 of it is degenerate.
    bound = np.linalg.norm(ref) * np.linalg.norm(est)
    if np.max(np.abs(segment)) <= 1e-12 * bound:
        raise AlignmentError("degenerate correlation")
    shift = int(lags[np.argmax(segment)])
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
    """Align, then score both metrics on one set of active frames.

    Each active frame of the aligned pair is windowed and transformed once;
    CD and F-SNR both read those spectra, so the report equals
    cepstral_distance and fw_seg_snr of align's output.
    """
    ref, est = align(reference, estimate)
    ref_spec, est_spec = _active_spectra(ref, est)
    return MetricReport(
        cd=_cd(ref_spec, est_spec),
        fwsegsnr=_fwsegsnr(ref_spec, est_spec, ref.sample_rate),
        frames_used=len(ref_spec),
    )
