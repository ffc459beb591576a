"""Time-domain signal containers, WAV file I/O and basic signal arithmetic.

Samples are kept as float64 with a nominal full scale of +/-1.0 regardless
of the on-disk encoding.
"""
from __future__ import annotations

import struct
from dataclasses import dataclass

import numpy as np

from .errors import ArgumentError, FormatError

_PCM16_SCALE = 32768.0


@dataclass(frozen=True)
class TimeSignal:
    """A single channel of sampled audio."""

    samples: np.ndarray
    sample_rate: int

    def __post_init__(self):
        samples = np.asarray(self.samples, dtype=np.float64)
        if samples.ndim != 1:
            raise ArgumentError("samples must be one-dimensional")
        if not np.all(np.isfinite(samples)):
            raise ArgumentError("samples must be finite")
        if self.sample_rate <= 0:
            raise ArgumentError("sample_rate must be positive")
        samples = samples.copy()
        samples.flags.writeable = False
        object.__setattr__(self, "samples", samples)

    def __len__(self):
        return self.samples.shape[0]

    @property
    def power(self):
        """Mean-square power over the whole signal."""
        if len(self) == 0:
            return 0.0
        return float(np.mean(self.samples**2))


@dataclass(frozen=True)
class MultichannelTimeSignal:
    """An ordered set of equal-length channels at one sample rate."""

    channels: tuple

    def __post_init__(self):
        channels = tuple(self.channels)
        if not channels:
            raise ArgumentError("at least one channel required")
        rate = channels[0].sample_rate
        length = len(channels[0])
        for ch in channels[1:]:
            if ch.sample_rate != rate:
                raise ArgumentError("channels must share one sample_rate")
            if len(ch) != length:
                raise ArgumentError("channels must share one length")
        object.__setattr__(self, "channels", channels)

    @classmethod
    def from_array(cls, array, sample_rate):
        """Build from a (channels, samples) array; 1-D arrays become mono."""
        array = np.asarray(array, dtype=np.float64)
        if array.ndim == 1:
            array = array[None, :]
        if array.ndim != 2:
            raise ArgumentError("expected a 1-D or 2-D array")
        return cls(tuple(TimeSignal(row, sample_rate) for row in array))

    @property
    def sample_rate(self):
        return self.channels[0].sample_rate

    @property
    def num_channels(self):
        return len(self.channels)

    def __len__(self):
        return len(self.channels[0])

    def as_array(self):
        """(num_channels, num_samples) float64 array."""
        return np.stack([ch.samples for ch in self.channels])


def read_wav(path):
    """Read a PCM16 or IEEE float32 RIFF/WAVE file.

    PCM16 samples are scaled to [-1, 1) by division by 32768; float32
    samples pass through unchanged. Channel order is preserved. A zero
    sample rate, a data chunk that is not a whole number of samples and
    non-finite float32 samples raise FormatError.
    """
    with open(path, "rb") as fh:
        data = fh.read()
    if len(data) < 12 or data[0:4] != b"RIFF" or data[8:12] != b"WAVE":
        raise FormatError(f"not a RIFF/WAVE file: {path}")

    fmt = None
    payload = None
    pos = 12
    while pos + 8 <= len(data):
        chunk_id = data[pos:pos + 4]
        (chunk_size,) = struct.unpack_from("<I", data, pos + 4)
        body = data[pos + 8:pos + 8 + chunk_size]
        if chunk_id == b"fmt ":
            if len(body) < 16:
                raise FormatError("truncated fmt chunk")
            fmt = struct.unpack_from("<HHIIHH", body, 0)
        elif chunk_id == b"data":
            if len(body) < chunk_size:
                raise IOError(f"truncated WAV data chunk in {path}")
            payload = body
        pos += 8 + chunk_size + (chunk_size & 1)
    if fmt is None or payload is None:
        raise IOError(f"missing fmt or data chunk in {path}")

    audio_format, num_channels, sample_rate, _, _, bits = fmt
    if num_channels < 1:
        raise FormatError("WAV file declares zero channels")
    if sample_rate == 0:
        raise FormatError("WAV file declares a zero sample rate")
    if audio_format == 1 and bits == 16:
        dtype, scale = "<i2", _PCM16_SCALE
    elif audio_format == 3 and bits == 32:
        dtype, scale = "<f4", 1.0
    else:
        raise FormatError(
            f"unsupported WAV encoding (format={audio_format}, bits={bits})")
    if len(payload) % (bits // 8) != 0:
        raise FormatError(
            f"WAV data chunk of {len(payload)} bytes is not a whole number "
            f"of {bits}-bit samples")
    samples = np.frombuffer(payload, dtype=dtype).astype(np.float64) / scale
    if not np.all(np.isfinite(samples)):
        raise FormatError(f"WAV file holds non-finite samples: {path}")
    if samples.size % num_channels != 0:
        raise IOError(f"WAV data not divisible by channel count in {path}")
    frames = samples.reshape(-1, num_channels)
    return MultichannelTimeSignal.from_array(frames.T, sample_rate)


def write_wav(signal: MultichannelTimeSignal, path):
    """Write a MultichannelTimeSignal as an IEEE float32 RIFF/WAVE file."""
    payload = signal.as_array().T.astype("<f4").tobytes()
    audio_format, bits = 3, 32
    num_channels = signal.num_channels
    rate = signal.sample_rate
    block_align = num_channels * bits // 8
    byte_rate = rate * block_align
    fmt_chunk = struct.pack("<HHIIHH", audio_format, num_channels, rate,
                            byte_rate, block_align, bits)
    # Four bytes a sample: the data chunk never needs a pad byte.
    riff_size = 4 + (8 + len(fmt_chunk)) + (8 + len(payload))
    with open(path, "wb") as fh:
        fh.write(b"RIFF" + struct.pack("<I", riff_size) + b"WAVE")
        fh.write(b"fmt " + struct.pack("<I", len(fmt_chunk)) + fmt_chunk)
        fh.write(b"data" + struct.pack("<I", len(payload)) + payload)


def fft_length(n):
    """The power of two at or above n: the block length of convolve_each
    (capped at fft_length(2 * taps)) and the correlation length of
    metrics.align."""
    return 1 << (n - 1).bit_length()


def convolve(signal, kernel):
    """Full linear convolution of two signals at the same sample rate.

    The one-kernel case of convolve_each, at the full output length
    len(signal) + len(kernel) - 1. It agrees with the direct form
    (np.convolve) to rounding. An empty signal or kernel raises
    ArgumentError.
    """
    if signal.sample_rate != kernel.sample_rate:
        raise ArgumentError("sample_rate mismatch in convolve")
    if len(signal) == 0 or len(kernel) == 0:
        raise ArgumentError("cannot convolve an empty signal")
    n = len(signal) + len(kernel) - 1
    return TimeSignal(convolve_each(signal, (kernel,), n)[0],
                      signal.sample_rate)


def convolve_each(signal, kernels, length):
    """The first `length` samples of `signal` convolved with each of
    `kernels`, as a (len(kernels), length) float64 array; samples past a
    full convolution are zero.

    Overlap-add in real-FFT blocks of nfft points, where taps is the longest
    kernel: nfft = fft_length(2 * taps), or fft_length(len(signal) + taps
    - 1) if that is shorter, in which case the whole convolution is one
    block and one FFT. The signal is cut into blocks of nfft - taps + 1
    samples, as many as the first `length` outputs read, and their spectra
    are one 2-D rfft shared by every kernel. Each kernel in turn takes one
    rfft, one multiply and one 2-D irfft, in buffers reused from kernel to
    kernel; its block outputs are added into the row in block order.
    The kernels must share the signal's sample rate; convolve and
    render_scene check it.
    """
    taps = max(len(k) for k in kernels)
    nfft = min(fft_length(2 * taps), fft_length(len(signal) + taps - 1))
    step = nfft - taps + 1
    out = np.zeros((len(kernels), length))
    used = min(length, len(signal))
    if used == 0:
        return out
    starts = range(0, used, step)
    # -0.0 is the identity of addition: where one block alone reaches a
    # sample, the sample keeps that block's bytes, a zero's sign included.
    out[:, :starts[-1] + nfft] = -0.0
    blocks = np.zeros((len(starts), nfft))
    for block, start in zip(blocks, starts):
        piece = signal.samples[start:start + step]
        block[:len(piece)] = piece
    block_spectra = np.fft.rfft(blocks, nfft)
    kernel_spectrum = np.empty(nfft // 2 + 1, dtype=np.complex128)
    products = np.empty_like(block_spectra)
    outputs = np.empty_like(blocks)
    for row, kernel in zip(out, kernels):
        np.fft.rfft(kernel.samples, nfft, out=kernel_spectrum)
        np.multiply(block_spectra, kernel_spectrum, out=products)
        np.fft.irfft(products, nfft, out=outputs)
        for start, output in zip(starts, outputs):
            stop = min(start + nfft, length)
            row[start:stop] += output[:stop - start]
    return out


def check_noise(signal, noise):
    """Raise ArgumentError unless `noise` can be mixed into `signal`: the
    same sample rate, and at least as many samples."""
    if noise.sample_rate != signal.sample_rate:
        raise ArgumentError(
            f"noise is sampled at {noise.sample_rate} Hz, the signal at "
            f"{signal.sample_rate} Hz")
    if len(noise) < len(signal):
        raise ArgumentError("noise must be at least as long as the signal")


def scaled_noise_segment(clean, noise, snr_db, seed):
    """A random contiguous noise segment scaled to sit snr_db below clean.

    Powers are mean-square over the full segment length. Noise at another
    sample rate, or shorter than clean, raises ArgumentError (check_noise).
    Returns the scaled segment as a float64 array of len(clean).
    """
    check_noise(clean, noise)
    p_clean = clean.power
    if p_clean <= 0.0:
        raise ArgumentError("clean signal has zero power")
    rng = np.random.default_rng(seed)
    start = int(rng.integers(0, len(noise) - len(clean), endpoint=True))
    segment = noise.samples[start:start + len(clean)]
    p_noise = float(np.mean(segment**2))
    if p_noise <= 0.0:
        raise ArgumentError("noise segment has zero power")
    gain = np.sqrt(p_clean / (p_noise * 10.0 ** (snr_db / 10.0)))
    return gain * segment
