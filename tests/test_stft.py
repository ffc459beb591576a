import numpy as np
import pytest

from dereverb.errors import ArgumentError
from dereverb.signals import TimeSignal
from dereverb.stft import (Spectrogram, StftConfig, analyze, hann,
                           synthesize)
from helpers import analyze_gather, synthesize_loop

# (frame_len, hop): hop a quarter, the whole and a third of an odd frame,
# and the pipeline default.
CONFIGS = [(8, 2), (8, 8), (9, 3), (512, 128)]


def test_hann_closed_form():
    assert np.allclose(hann(4), [0.0, 0.5, 1.0, 0.5])


def test_hann_starts_at_zero():
    for n in (2, 16, 512, 1000):
        assert hann(n)[0] == 0.0


def test_hann_cola_squared_constant():
    # shifted squared windows at hop = frame_len/4 overlap-add to 1.5
    frame_len = 512
    hop = frame_len // 4
    w2 = hann(frame_len) ** 2
    total = np.zeros(frame_len * 4)
    for shift in range(0, len(total) - frame_len + 1, hop):
        total[shift:shift + frame_len] += w2
    interior = total[frame_len:-frame_len]
    assert np.allclose(interior, 1.5, atol=1e-12)


def test_zero_signal_gives_zero_spectrogram():
    spec = analyze(TimeSignal(np.zeros(2000), 16000))
    assert np.all(spec.values == 0)


def test_sinusoid_peaks_at_its_bin():
    fs = 16000
    config = StftConfig()
    k0 = 40
    t = np.arange(fs)
    x = np.sin(2 * np.pi * k0 * fs / config.frame_len * t / fs)
    spec = analyze(TimeSignal(x, fs), config)
    mags = np.abs(spec.values)
    interior = mags[4:-8]
    assert np.all(np.argmax(interior, axis=1) == k0)


@pytest.mark.parametrize("seed,duration", [(0, 1.0), (1, 0.73), (2, 2.1)])
def test_round_trip(seed, duration):
    rng = np.random.default_rng(seed)
    x = rng.standard_normal(int(duration * 16000))
    sig = TimeSignal(x, 16000)
    back = synthesize(analyze(sig))
    err = np.max(np.abs(back.samples[1:] - x[1:]))
    assert err < 1e-6 * max(1.0, np.max(np.abs(x)))
    assert len(back) == len(x)


def test_round_trip_zero_spectrogram():
    spec = analyze(TimeSignal(np.zeros(1600), 16000))
    out = synthesize(spec.with_values(np.zeros_like(spec.values)))
    assert np.all(out.samples == 0)


def test_single_frame_impulse():
    # DFT of a delta at position t0 synthesizes back to the delta
    config = StftConfig(frame_len=64, hop=16)
    t0 = 20
    impulse = np.zeros(64)
    impulse[t0] = 1.0
    w = hann(64)
    values = np.fft.rfft(impulse * w)[None, :]
    spec = Spectrogram(values, config, 16000, 64)
    out = synthesize(spec)
    # single frame: the windowed frame divided by w^2 restores the impulse
    expected = np.zeros(64)
    expected[t0] = 1.0
    assert np.allclose(out.samples, expected, atol=1e-12)


def test_analyze_linearity():
    rng = np.random.default_rng(9)
    x = rng.standard_normal(3000)
    y = rng.standard_normal(3000)
    a, b = 1.7, -0.3
    sx = analyze(TimeSignal(x, 16000)).values
    sy = analyze(TimeSignal(y, 16000)).values
    sxy = analyze(TimeSignal(a * x + b * y, 16000)).values
    assert np.allclose(sxy, a * sx + b * sy, rtol=1e-10, atol=1e-9)


def test_shape_law():
    rng = np.random.default_rng(10)
    config = StftConfig()
    for _ in range(20):
        n = int(rng.integers(config.frame_len, 40000))
        spec = analyze(TimeSignal(rng.standard_normal(n), 16000), config)
        assert spec.values.shape[1] == config.frame_len // 2 + 1
        assert spec.num_frames == n // config.hop + 1


def test_short_signal_rejected():
    with pytest.raises(ArgumentError):
        analyze(TimeSignal(np.zeros(100), 16000))


def test_config_invariants():
    with pytest.raises(ArgumentError):
        StftConfig(frame_len=512, hop=100)


@pytest.mark.parametrize("frame_len,hop", CONFIGS)
def test_analyze_matches_gather_reference_byte_for_byte(frame_len, hop):
    config = StftConfig(frame_len=frame_len, hop=hop)
    rng = np.random.default_rng(frame_len * 1000 + hop)
    lengths = [frame_len, frame_len + 1, frame_len + hop, 5 * frame_len - 1,
               int(rng.integers(frame_len, 40 * frame_len))]
    for n in lengths:
        x = rng.standard_normal(n)
        x[:n // 3] = 0.0
        signal = TimeSignal(x, 16000)
        expected = analyze_gather(signal, config)
        spec = analyze(signal, config)
        assert spec.values.tobytes() == expected.values.tobytes()
        assert spec.signal_length == expected.signal_length == n


@pytest.mark.parametrize("frame_len,hop", CONFIGS)
def test_synthesize_matches_loop_reference_byte_for_byte(frame_len, hop):
    """Random complex entries, which no STFT produces, over signal lengths
    shorter than, equal to and longer than the frames' span."""
    config = StftConfig(frame_len=frame_len, hop=hop)
    rng = np.random.default_rng(frame_len * 1000 + hop)
    for n_frames in (0, 1, 2, 7):
        span = (n_frames - 1) * hop + frame_len
        for length in sorted({0, 1, span // 2, span - hop - 1, span - 1, span,
                              span + 1, span + 2 * hop + 1}):
            if length < 0:
                continue
            shape = (n_frames, config.num_bins)
            values = (rng.standard_normal(shape)
                      + 1j * rng.standard_normal(shape))
            spec = Spectrogram(values, config, 16000, length)
            out = synthesize(spec).samples
            assert out.tobytes() == synthesize_loop(spec).samples.tobytes()
            assert len(out) == length

