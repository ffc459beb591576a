import struct

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from dereverb.errors import ArgumentError, FormatError
from dereverb.roomsim import image_source_rir, sample_room
from dereverb.signals import (MultichannelTimeSignal, TimeSignal, convolve,
                              fft_length, read_wav, scaled_noise_segment,
                              write_wav)

from helpers import (FUZZ_SETTINGS, U32, cut_short_sometimes, often,
                     speech_like)


def _raw_wav(audio_format, channels, rate, bits, payload):
    fmt = struct.pack("<HHIIHH", audio_format, channels, rate,
                      rate * channels * bits // 8, channels * bits // 8, bits)
    body = (b"fmt " + struct.pack("<I", len(fmt)) + fmt
            + b"data" + struct.pack("<I", len(payload)) + payload)
    return b"RIFF" + struct.pack("<I", 4 + len(body)) + b"WAVE" + body


def test_pcm16_scaling(tmp_path):
    path = tmp_path / "a.wav"
    path.write_bytes(_raw_wav(1, 1, 16000, 16, struct.pack("<h", 16384)))
    sig = read_wav(path)
    assert sig.num_channels == 1
    assert sig.channels[0].samples.tolist() == [0.5]


def test_empty_two_channel_float32(tmp_path):
    path = tmp_path / "empty.wav"
    path.write_bytes(_raw_wav(3, 2, 16000, 32, b""))
    sig = read_wav(path)
    assert sig.num_channels == 2
    assert len(sig) == 0


def test_float32_round_trip(tmp_path):
    rng = np.random.default_rng(7)
    data = rng.standard_normal((3, 1000)).astype(np.float32).astype(np.float64)
    sig = MultichannelTimeSignal.from_array(data, 16000)
    path = tmp_path / "rt.wav"
    write_wav(sig, path)
    back = read_wav(path)
    assert back.num_channels == 3
    assert np.array_equal(back.as_array(), data)


def test_unsupported_encoding(tmp_path):
    path = tmp_path / "law.wav"
    path.write_bytes(_raw_wav(7, 1, 8000, 8, b"\x00\x00"))
    with pytest.raises(FormatError):
        read_wav(path)


def test_truncated_data_chunk(tmp_path):
    payload = struct.pack("<4h", 1, 2, 3, 4)
    raw = _raw_wav(1, 1, 8000, 16, payload)
    path = tmp_path / "trunc.wav"
    path.write_bytes(raw[:-4])
    with pytest.raises(FormatError):
        read_wav(path)


@pytest.mark.parametrize("raw, message", [
    (b"RIFF" + struct.pack("<I", 4) + b"WAVE", "missing fmt or data"),
    (_raw_wav(1, 2, 8000, 16, struct.pack("<3h", 1, 2, 3)),
     "not divisible by channel count"),
], ids=["no-chunks", "partial-frame"])
def test_malformed_content_is_a_format_error(tmp_path, raw, message):
    path = tmp_path / "bad.wav"
    path.write_bytes(raw)
    with pytest.raises(FormatError, match=message):
        read_wav(path)


def test_data_chunk_not_whole_samples(tmp_path):
    path = tmp_path / "odd.wav"
    path.write_bytes(_raw_wav(1, 1, 8000, 16, b"\x01\x02\x03"))
    with pytest.raises(FormatError):
        read_wav(path)


def test_non_finite_float32_samples(tmp_path):
    for value in (np.nan, np.inf, -np.inf):
        path = tmp_path / "nonfinite.wav"
        payload = np.array([0.25, value], dtype="<f4").tobytes()
        path.write_bytes(_raw_wav(3, 1, 16000, 32, payload))
        with pytest.raises(FormatError):
            read_wav(path)


def test_zero_sample_rate(tmp_path):
    path = tmp_path / "norate.wav"
    path.write_bytes(_raw_wav(1, 1, 0, 16, struct.pack("<h", 1)))
    with pytest.raises(FormatError):
        read_wav(path)


def _full(x, h):
    """convolve of x with the one kernel h, at the full output length."""
    x, h = TimeSignal(x, 16000), TimeSignal(h, 16000)
    return convolve(x, (h,), len(x) + len(h) - 1)[0]


def test_convolve_identity_kernel():
    x = np.arange(5.0)
    assert np.allclose(_full(x, [1.0]), x)


def test_convolve_shift():
    assert _full([1.0, 0.0, 0.0], [0.0, 0.0, 1.0]).tolist() == [0, 0, 1, 0, 0]


def test_convolve_matches_double_loop():
    rng = np.random.default_rng(3)
    x = rng.standard_normal(64)
    h = rng.standard_normal(16)
    expected = np.zeros(64 + 16 - 1)
    for i in range(64):
        for j in range(16):
            expected[i + j] += x[i] * h[j]
    assert np.allclose(_full(x, h), expected, rtol=1e-12, atol=1e-12)


def test_convolve_linearity():
    rng = np.random.default_rng(4)
    x = rng.standard_normal(50)
    y = rng.standard_normal(50)
    h = rng.standard_normal(9)
    a, b = 2.5, -1.25
    lhs = _full(a * x + b * y, h)
    rhs = a * _full(x, h) + b * _full(y, h)
    assert np.allclose(lhs, rhs, rtol=1e-10, atol=1e-12)


def test_convolve_rate_mismatch():
    x = TimeSignal([1.0], 16000)
    for kernels in ((TimeSignal([1.0], 8000),),
                    (x, TimeSignal([1.0, 2.0], 8000))):
        with pytest.raises(ArgumentError, match="sample_rate"):
            convolve(x, kernels, 2)


def _assert_matches_direct_form(x, *kernels, length=None):
    """convolve(x, kernels, length) agrees with np.convolve, trimmed or
    zero-padded to `length`, within 1e-12 of each row's peak; `length`
    defaults to the full convolution with the longest kernel."""
    if length is None:
        length = len(x) + max(map(len, kernels)) - 1
    out = convolve(TimeSignal(x, 16000),
                   tuple(TimeSignal(h, 16000) for h in kernels), length)
    assert out.shape == (len(kernels), length)
    for row, h in zip(out, kernels, strict=True):
        full = np.convolve(x, h, mode="full")
        expected = np.zeros(length)
        expected[:len(full)] = full[:length]
        peak = np.max(np.abs(full))
        assert np.max(np.abs(row - expected)) <= 1e-12 * peak


def test_convolve_room_rir_matches_direct_form():
    rir = image_source_rir(sample_room("A", 0), 0).samples
    clean = speech_like(2.0, seed=5).samples
    _assert_matches_direct_form(clean, rir)


def test_convolve_kernel_longer_than_signal_matches_direct_form():
    rng = np.random.default_rng(8)
    _assert_matches_direct_form(rng.standard_normal(37),
                                rng.standard_normal(5000))


def test_convolve_several_kernels_longer_than_signal_match_direct_form():
    rng = np.random.default_rng(13)
    x = rng.standard_normal(300)
    kernels = [rng.standard_normal(n) for n in (17, 5000)]
    _assert_matches_direct_form(x, *kernels)
    _assert_matches_direct_form(x, *kernels, length=len(x))


def test_convolve_length_one_operands_match_direct_form():
    rng = np.random.default_rng(9)
    x = rng.standard_normal(1000)
    _assert_matches_direct_form(x, np.array([-0.75]))
    _assert_matches_direct_form(np.array([2.5]), x)
    _assert_matches_direct_form(np.array([2.0]), np.array([3.0]))


def test_convolve_kernels_of_unequal_length_match_direct_form():
    rng = np.random.default_rng(10)
    x = rng.standard_normal(20000)
    kernels = [rng.standard_normal(n) for n in (700, 3000, 1)]
    _assert_matches_direct_form(x, *kernels)
    _assert_matches_direct_form(x, *kernels, length=len(x))


def test_convolve_length_off_the_block_grid_matches_direct_form():
    """A `length` shorter than the full convolution and shorter than the
    signal, ending inside a block: 3000 taps make 8192-point blocks of
    5193 samples."""
    rng = np.random.default_rng(11)
    x = rng.standard_normal(20000)
    h = rng.standard_normal(3000)
    step = fft_length(2 * len(h)) - len(h) + 1
    for length in (12345, step - 1, step + 1, 1):
        assert length % step != 0
        _assert_matches_direct_form(x, h, length=length)


def test_convolve_signal_shorter_than_one_block_matches_direct_form():
    rng = np.random.default_rng(12)
    h = rng.standard_normal(3000)
    for n in (1, 1000, 4000, fft_length(2 * len(h)) - len(h)):
        x = rng.standard_normal(n)
        _assert_matches_direct_form(x, h)
        _assert_matches_direct_form(x, h, length=n)
        _assert_matches_direct_form(x, h, length=n + 5000)


def test_convolve_is_the_full_convolution_trimmed_byte_for_byte():
    """The first n samples of each row are the bytes of the full-length
    call, for n below, at and above the signal's length and on either side
    of a block edge: the trim render_scene makes by asking for n."""
    rng = np.random.default_rng(14)
    x = TimeSignal(rng.standard_normal(20000), 16000)
    kernels = tuple(TimeSignal(rng.standard_normal(n), 16000)
                    for n in (700, 3000, 1))
    full = len(x) + 3000 - 1
    step = fft_length(2 * 3000) - 3000 + 1
    whole = convolve(x, kernels, full)
    for n in (1, step - 1, step, step + 1, 12345, len(x) - 1, len(x),
              len(x) + 1, full - 1, full):
        out = convolve(x, kernels, n)
        assert out.shape == (3, n)
        assert out.tobytes() == np.ascontiguousarray(whole[:, :n]).tobytes()


def test_convolve_of_length_zero_is_an_empty_row_per_kernel():
    x = TimeSignal([1.0, 2.0], 16000)
    out = convolve(x, (x, TimeSignal([3.0], 16000)), 0)
    assert out.shape == (2, 0) and out.dtype == np.float64


def test_convolve_keeps_a_lone_block_output_byte_for_byte():
    """A one-tap kernel makes blocks of 2 points that do not overlap, so
    each output sample is one block's irfft output, its zero's sign
    included; past the last block the output is +0.0."""
    kernel = TimeSignal([-1.0], 16000)
    out = convolve(TimeSignal(np.zeros(10), 16000), (kernel,), 12)[0]
    blocks = np.fft.irfft(np.fft.rfft(np.zeros((5, 2)), 2)
                          * np.fft.rfft([-1.0], 2), 2)
    assert np.any(np.signbit(blocks))
    expected = np.concatenate([blocks.ravel(), [0.0, 0.0]])
    assert out.tobytes() == expected.tobytes()


def test_convolve_rejects_empty_operands():
    x = TimeSignal([1.0, 2.0], 16000)
    empty = TimeSignal([], 16000)
    for signal, kernels in ((empty, (x,)), (x, (empty,)), (empty, (empty,)),
                            (x, (x, empty)), (x, ())):
        with pytest.raises(ArgumentError, match="empty"):
            convolve(signal, kernels, 4)


# --- the noise segment render_scene mixes in at an SNR ----------------------

def test_mix_at_snr_zero_db_power_match():
    rng = np.random.default_rng(5)
    clean = TimeSignal(rng.standard_normal(4000), 16000)
    noise = TimeSignal(rng.standard_normal(8000), 16000)
    added = scaled_noise_segment(clean, noise, 0.0, seed=11)
    p_clean = np.mean(clean.samples**2)
    p_added = np.mean(added**2)
    assert abs(p_added - p_clean) / p_clean < 1e-10


def test_mix_at_snr_huge_snr_is_identity():
    rng = np.random.default_rng(6)
    clean = TimeSignal(rng.standard_normal(1000), 16000)
    noise = TimeSignal(rng.standard_normal(2000), 16000)
    added = scaled_noise_segment(clean, noise, 300.0, seed=1)
    assert np.max(np.abs(added)) < 1e-10


def test_mix_at_snr_gain_formula():
    clean = TimeSignal(np.ones(100), 16000)          # power 1.0
    noise = TimeSignal(np.full(200, 2.0), 16000)     # power 4.0
    added = scaled_noise_segment(clean, noise, 10.0, seed=0)
    g_squared = np.mean(added**2) / 4.0
    assert abs(g_squared - 0.025) < 1e-12


def test_mix_at_snr_deterministic():
    rng = np.random.default_rng(8)
    clean = TimeSignal(rng.standard_normal(500), 16000)
    noise = TimeSignal(rng.standard_normal(3000), 16000)
    a = scaled_noise_segment(clean, noise, 5.0, seed=42)
    b = scaled_noise_segment(clean, noise, 5.0, seed=42)
    assert np.array_equal(a, b)


def test_mix_at_snr_zero_power_errors():
    noise = TimeSignal(np.ones(20), 16000)
    for silent in (np.zeros(10), np.zeros(0)):  # an empty clean signal too
        with pytest.raises(ArgumentError, match="clean signal has zero power"):
            scaled_noise_segment(TimeSignal(silent, 16000), noise, 0.0,
                                 seed=0)
    with pytest.raises(ArgumentError):
        scaled_noise_segment(noise, TimeSignal(np.zeros(40), 16000), 0.0,
                             seed=0)


def test_mix_at_snr_rejects_noise_at_another_rate():
    clean = TimeSignal(np.ones(100), 16000)
    noise = TimeSignal(np.ones(200), 8000)
    with pytest.raises(ArgumentError, match="8000 Hz"):
        scaled_noise_segment(clean, noise, 0.0, seed=0)


def test_mix_at_snr_short_noise_errors():
    clean = TimeSignal(np.ones(100), 16000)
    noise = TimeSignal(np.ones(50), 16000)
    with pytest.raises(ArgumentError):
        scaled_noise_segment(clean, noise, 0.0, seed=0)


def test_signal_invariants():
    with pytest.raises(ArgumentError):
        TimeSignal([np.nan], 16000)
    with pytest.raises(ArgumentError):
        TimeSignal([0.0], 0)
    with pytest.raises(ArgumentError):
        MultichannelTimeSignal((TimeSignal([0.0], 8000),
                                TimeSignal([0.0], 16000)))


@pytest.mark.parametrize("build, message", [
    (lambda: MultichannelTimeSignal(()), "at least one channel"),
    (lambda: MultichannelTimeSignal((TimeSignal([0.0], 16000),
                                     TimeSignal([0.0, 0.0], 16000))),
     "share one length"),
    (lambda: MultichannelTimeSignal.from_array(np.zeros(4), 16000),
     "2-D array"),
], ids=["no-channel", "length", "from-array-1-D"])
def test_multichannel_time_signal_rejects(build, message):
    with pytest.raises(ArgumentError, match=message):
        build()


def test_time_signal_views_a_float64_array_read_only():
    given = np.linspace(-1.0, 1.0, 64)
    signal = TimeSignal(given, 16000)
    assert np.shares_memory(signal.samples, given)
    assert not signal.samples.flags.writeable
    assert given.flags.writeable
    cast = TimeSignal(given.astype(np.float32), 16000).samples
    assert cast.dtype == np.float64 and not cast.flags.writeable
    with pytest.raises(ArgumentError, match="one-dimensional"):
        TimeSignal(0.5, 16000)


# --- fuzzing the reader -----------------------------------------------------

U16 = st.integers(0, 0xFFFF)


@st.composite
def _riff_files(draw):
    """RIFF/WAVE files whose header, fmt fields, samples, chunk sizes and
    order are mostly well formed but each may be random; some are cut
    short."""
    encoding, bits = often(draw, st.sampled_from([(1, 16), (3, 32)]),
                           st.tuples(U16, U16))
    channels = often(draw, st.integers(1, 4), st.just(0) | U16)
    rate = often(draw, st.just(16000), st.just(0) | U32)
    fmt = struct.pack("<HHIIHH", encoding, channels, rate, draw(U32),
                      draw(U16), bits)
    floats = st.lists(st.floats(width=32), max_size=16).map(
        lambda xs: struct.pack(f"<{len(xs)}f", *xs))
    pieces = [(b"fmt ", often(draw, st.just(fmt), st.binary(max_size=20))),
              (b"data", often(draw, floats, st.binary(max_size=64)))]
    if draw(st.booleans()):
        pieces.append((draw(st.binary(min_size=4, max_size=4)),
                       draw(st.binary(max_size=8))))
    body = b""
    for chunk_id, chunk in draw(st.permutations(pieces)):
        size = often(draw, st.just(len(chunk)), U32)
        body += chunk_id + struct.pack("<I", size) + chunk
    header = b"RIFF" + struct.pack("<I", 4 + len(body)) + b"WAVE"
    header = often(draw, st.just(header), st.binary(min_size=12, max_size=12))
    return cut_short_sometimes(draw, header + body)


@settings(**FUZZ_SETTINGS)
@given(raw=_riff_files())
def test_read_wav_raises_only_format_or_os_errors(tmp_path, raw):
    path = tmp_path / "fuzz.wav"
    path.write_bytes(raw)
    try:
        read_wav(path)
    except (FormatError, OSError):
        pass
