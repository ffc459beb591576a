"""Short-time Fourier analysis/synthesis with weighted overlap-add.

Defaults follow the pipeline convention: 32 ms frames at 16 kHz
(frame_len 512), 75% overlap (hop 128), periodic Hann window, one-sided
spectrum.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ArgumentError
from .signals import TimeSignal


def hann(frame_len):
    """Periodic Hann window: w[t] = 0.5*(1 - cos(2*pi*t/frame_len))."""
    if frame_len < 2:
        raise ArgumentError("frame_len must be >= 2")
    t = np.arange(frame_len)
    return 0.5 * (1.0 - np.cos(2.0 * np.pi * t / frame_len))


@dataclass(frozen=True)
class StftConfig:
    frame_len: int = 512
    hop: int = 128

    def __post_init__(self):
        if self.frame_len < 2:
            raise ArgumentError("frame_len must be >= 2")
        if self.hop <= 0 or self.frame_len % self.hop != 0:
            raise ArgumentError("hop must divide frame_len")

    @property
    def num_bins(self):
        return self.frame_len // 2 + 1


@dataclass(frozen=True)
class Spectrogram:
    """Complex one-sided STFT matrix, frames x bins."""

    values: np.ndarray
    config: StftConfig
    sample_rate: int
    signal_length: int

    def __post_init__(self):
        values = np.asarray(self.values, dtype=np.complex128)
        if values.ndim != 2:
            raise ArgumentError("spectrogram values must be 2-D")
        if values.shape[1] != self.config.num_bins:
            raise ArgumentError("bin count must equal frame_len/2 + 1")
        if not np.all(np.isfinite(values)):
            raise ArgumentError("spectrogram entries must be finite")
        object.__setattr__(self, "values", values)

    @property
    def num_frames(self):
        return self.values.shape[0]

    def with_values(self, values):
        """Same metadata, new complex matrix of identical shape."""
        values = np.asarray(values, dtype=np.complex128)
        if values.shape != self.values.shape:
            raise ArgumentError("replacement values must keep the shape")
        return Spectrogram(values, self.config, self.sample_rate,
                           self.signal_length)


@dataclass(frozen=True)
class MultichannelSpectrogram:
    channels: tuple

    def __post_init__(self):
        channels = tuple(self.channels)
        if not channels:
            raise ArgumentError("at least one channel required")
        first = channels[0]
        for ch in channels[1:]:
            if ch.values.shape != first.values.shape:
                raise ArgumentError("channel spectrograms must share shape")
            if ch.config != first.config or ch.sample_rate != first.sample_rate:
                raise ArgumentError("channel spectrograms must share config")
        object.__setattr__(self, "channels", channels)

    @property
    def num_channels(self):
        return len(self.channels)

    @property
    def num_frames(self):
        return self.channels[0].num_frames

    def as_array(self):
        """(channels, frames, bins) complex array."""
        return np.stack([ch.values for ch in self.channels])


def analyze(signal, config=StftConfig()):
    """STFT of a signal: Hann-windowed frames at hop intervals.

    The tail is zero-padded by one frame so the final partial frame is
    analyzed; N = len(signal)//hop + 1.
    """
    x = signal.samples
    if len(x) < config.frame_len:
        raise ArgumentError("signal shorter than one frame")
    padded = np.concatenate([x, np.zeros(config.frame_len)])
    n_frames = len(x) // config.hop + 1
    window = hann(config.frame_len)
    idx = (np.arange(n_frames)[:, None] * config.hop
           + np.arange(config.frame_len)[None, :])
    frames = padded[idx] * window[None, :]
    values = np.fft.rfft(frames, n=config.frame_len, axis=1)
    return Spectrogram(values, config, signal.sample_rate, len(x))


def analyze_multichannel(signal, config=StftConfig()):
    return MultichannelSpectrogram(
        tuple(analyze(ch, config) for ch in signal.channels))


def synthesize(spec: Spectrogram):
    """Weighted overlap-add inverse of analyze.

    The synthesis window equals the analysis window; the overlap-added
    frames are normalized by the summed squared-window envelope and the
    output is trimmed to the original signal length.
    """
    config = spec.config
    window = hann(config.frame_len)
    frames = np.fft.irfft(spec.values, n=config.frame_len, axis=1)
    frames = frames * window[None, :]
    out_len = (spec.num_frames - 1) * config.hop + config.frame_len
    buf = np.zeros(out_len)
    wsum = np.zeros(out_len)
    for n in range(spec.num_frames):
        start = n * config.hop
        buf[start:start + config.frame_len] += frames[n]
        wsum[start:start + config.frame_len] += window**2
    out = buf / np.maximum(wsum, 1e-12)
    target = min(spec.signal_length, out_len)
    trimmed = np.zeros(spec.signal_length)
    trimmed[:target] = out[:target]
    return TimeSignal(trimmed, spec.sample_rate)
