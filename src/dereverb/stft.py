"""Short-time Fourier analysis/synthesis with weighted overlap-add.

Defaults follow the pipeline convention: 32 ms frames at 16 kHz
(frame_len 512), 75% overlap (hop 128), periodic Hann window, one-sided
spectrum.
"""
from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import ArgumentError
from .signals import TimeSignal, hann


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
        if np.shape(values) != self.values.shape:
            raise ArgumentError("replacement values must keep the shape")
        return replace(self, values=values)


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


def analyze(signal, config=StftConfig()):
    """STFT of a signal: Hann-windowed frames at hop intervals.

    The tail is zero-padded by one frame so the final partial frame is
    analyzed; N = len(signal)//hop + 1.
    """
    x = signal.samples
    if len(x) < config.frame_len:
        raise ArgumentError("signal shorter than one frame")
    padded = np.concatenate([x, np.zeros(config.frame_len)])
    frames = (sliding_window_view(padded, config.frame_len)[::config.hop]
              * hann(config.frame_len))
    values = np.fft.rfft(frames, n=config.frame_len, axis=1)
    return Spectrogram(values, config, signal.sample_rate, len(x))


def analyze_multichannel(signal, config=StftConfig()):
    return MultichannelSpectrogram(
        tuple(analyze(ch, config) for ch in signal.channels))


def synthesize(spec: Spectrogram):
    """Weighted overlap-add inverse of analyze, signal_length samples long,
    normalized by the summed squared-window envelope.

    Block r (hop samples) of frame n lands on output block n + r; adding
    each r over all frames, last r first, sums each sample in frame order.
    """
    config = spec.config
    hop = config.hop
    per_frame = config.frame_len // hop
    window = hann(config.frame_len)
    frames = (np.fft.irfft(spec.values, n=config.frame_len, axis=1)
              * window).reshape(spec.num_frames, per_frame, hop)
    squares = (window**2).reshape(per_frame, hop)
    n_blocks = -(-spec.signal_length // hop)
    buf, wsum = np.zeros((2, n_blocks, hop))
    for r in reversed(range(per_frame)):
        n = max(0, min(spec.num_frames, n_blocks - r))
        buf[r:r + n] += frames[:n, r]
        wsum[r:r + n] += squares[r]
    out = buf / np.maximum(wsum, 1e-12)
    return TimeSignal(out.ravel()[:spec.signal_length], spec.sample_rate)
