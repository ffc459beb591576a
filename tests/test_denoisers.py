import os
import struct
import sys
import tempfile
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from dereverb.denoisers import (ExternalDenoiser, IdentityDenoiser,
                                SoftThresholdDenoiser, WienerDenoiser,
                                read_pnpspec, write_pnpspec)
from dereverb.errors import (ArgumentError, DenoiserError, ProtocolError)
from dereverb.stft import Spectrogram, StftConfig

from helpers import FUZZ_SETTINGS, U32, cut_short_sometimes, often

SMALL = StftConfig(frame_len=8, hop=2)


def _spec(values, fs=16000) -> Spectrogram:
    values = np.asarray(values, dtype=np.complex128)
    length = (values.shape[0] - 1) * SMALL.hop + SMALL.frame_len
    return Spectrogram(values, SMALL, fs, length)


def _random_spec(rng, n_frames=6, float32_exact=False) -> Spectrogram:
    shape = (n_frames, SMALL.num_bins)
    values = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    if float32_exact:
        values = (values.real.astype(np.float32).astype(np.float64)
                  + 1j * values.imag.astype(np.float32).astype(np.float64))
    return _spec(values)


# --- constructor validation ----------------------------------------------

def test_denoiser_spec_validation():
    with pytest.raises(ArgumentError):
        SoftThresholdDenoiser(threshold=-0.1)
    with pytest.raises(ArgumentError):
        WienerDenoiser(quantile=0.0, min_gain=0.1)
    with pytest.raises(ArgumentError):
        WienerDenoiser(quantile=0.3, min_gain=1.5)
    with pytest.raises(ArgumentError):
        ExternalDenoiser(command=())


# --- in-process denoisers -------------------------------------------------

def test_identity_returns_input():
    spec = _random_spec(np.random.default_rng(0))
    assert IdentityDenoiser().denoise(spec) is spec


def test_soft_threshold_zero_tau_is_identity():
    spec = _random_spec(np.random.default_rng(1))
    out = SoftThresholdDenoiser(0.0).denoise(spec)
    assert np.array_equal(out.values, spec.values)


def test_soft_threshold_uniform_magnitude():
    rng = np.random.default_rng(2)
    phases = rng.uniform(0, 2 * np.pi, (4, SMALL.num_bins))
    spec = _spec(np.exp(1j * phases))
    out = SoftThresholdDenoiser(0.5).denoise(spec)
    assert np.allclose(np.abs(out.values), 0.5, atol=1e-12)
    assert np.allclose(np.angle(out.values), np.angle(spec.values),
                       atol=1e-12)


def test_soft_threshold_matches_scalar_oracle():
    spec = _random_spec(np.random.default_rng(3))
    out = SoftThresholdDenoiser(0.3).denoise(spec)
    mags = sorted(abs(v) for v in spec.values.ravel())
    n = len(mags)
    median = (mags[n // 2] if n % 2 else 0.5 * (mags[n // 2 - 1] + mags[n // 2]))
    for (i, j), v in np.ndenumerate(spec.values):
        m = abs(v)
        expected = 0.0 if m == 0 else v * max(m - 0.3 * median, 0.0) / m
        assert abs(out.values[i, j] - expected) < 1e-12


def test_wiener_constant_band_hits_min_gain():
    spec = _spec(np.full((5, SMALL.num_bins), 0.7 + 0.7j))
    out = WienerDenoiser(0.5, 0.1).denoise(spec)
    assert np.allclose(out.values, 0.1 * spec.values, atol=1e-12)


def test_wiener_strong_entries_pass_through():
    values = 1e-3 * np.ones((6, SMALL.num_bins), dtype=np.complex128)
    values[3] = 1e3
    out = WienerDenoiser(0.5, 0.0).denoise(_spec(values))
    assert np.allclose(out.values[3], values[3], rtol=1e-10)


def test_wiener_matches_direct_evaluation():
    rng = np.random.default_rng(4)
    spec = _random_spec(rng, n_frames=5)
    out = WienerDenoiser(0.5, 0.2).denoise(spec)
    power = np.abs(spec.values) ** 2
    for k in range(spec.config.num_bins):
        floor = sorted(power[:, k])[2]  # median of 5
        for n in range(5):
            g = max(1.0 - floor / max(power[n, k], floor), 0.2)
            assert abs(out.values[n, k] - g * spec.values[n, k]) < 1e-12


def test_wiener_all_zero_bin_is_finite_without_a_warning():
    rng = np.random.default_rng(5)
    values = _random_spec(rng).values
    values[:, 2] = 0.0
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        out = WienerDenoiser(0.5, 0.2).denoise(_spec(values))
    assert np.all(out.values[:, 2] == 0.0)
    assert np.all(np.isfinite(out.values))


@pytest.mark.parametrize("denoiser", [
    SoftThresholdDenoiser(0.4),
    WienerDenoiser(0.3, 0.1),
])
def test_magnitude_scale_homogeneity(denoiser):
    rng = np.random.default_rng(6)
    spec = _random_spec(rng)
    alpha = 3.7
    lhs = denoiser.denoise(_spec(alpha * spec.values)).values
    rhs = alpha * denoiser.denoise(spec).values
    assert np.allclose(lhs, rhs, rtol=1e-10, atol=1e-10)


# --- binary protocol -------------------------------------------------------

def test_pnpspec_byte_layout(tmp_path):
    values = np.array([[1.5 + 2.0j, -0.25j]])
    spec = Spectrogram(np.pad(values, ((0, 0), (0, 3))), SMALL, 16000, 8)
    path = tmp_path / "x.pnpspec"
    write_pnpspec(spec, path)
    raw = path.read_bytes()
    expected = (b"PNPSPEC1" + struct.pack("<IIII", 1, 5, 16000, 0)
                + struct.pack("<10f", 1.5, 2.0, -0.0, -0.25, 0, 0, 0, 0, 0, 0))
    assert raw == expected


def test_pnpspec_round_trip_is_bit_exact(tmp_path):
    spec = _random_spec(np.random.default_rng(7), float32_exact=True)
    path = tmp_path / "rt.pnpspec"
    write_pnpspec(spec, path)
    values, fs = read_pnpspec(path)
    assert fs == 16000
    assert np.array_equal(values, spec.values)


def test_pnpspec_malformed_inputs(tmp_path):
    path = tmp_path / "bad.pnpspec"
    path.write_bytes(b"NOTMAGIC" + bytes(16))
    with pytest.raises(ProtocolError):
        read_pnpspec(path)
    path.write_bytes(b"PNPSPEC1" + struct.pack("<IIII", 1, 1, 16000, 7)
                     + bytes(8))
    with pytest.raises(ProtocolError):
        read_pnpspec(path)
    path.write_bytes(b"PNPSPEC1" + struct.pack("<IIII", 2, 2, 16000, 0)
                     + bytes(8))
    with pytest.raises(ProtocolError):
        read_pnpspec(path)
    path.write_bytes(b"PNPSPEC1" + struct.pack("<IIII", 0, 5, 16000, 0))
    with pytest.raises(ProtocolError):
        read_pnpspec(path)


def test_read_pnpspec_takes_nan_bits_without_a_warning(tmp_path):
    # 0x7f800001 is a signalling NaN, 0x7fc00000 a quiet one; rejecting
    # non-finite output is ExternalDenoiser's job, not the reader's.
    path = tmp_path / "nan.pnpspec"
    path.write_bytes(b"PNPSPEC1" + struct.pack("<IIII", 1, 2, 16000, 0)
                     + struct.pack("<4I", 0x7f800001, 0, 0x3f800000,
                                   0x7fc00000))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        values, _ = read_pnpspec(path)
    assert values.shape == (1, 2) and not np.isfinite(values).any()


@st.composite
def _pnpspec_files(draw):
    """PNPSPEC1 files whose magic, N, K, reserved field and payload size are
    mostly well formed but each may be random; some are cut short."""
    magic = often(draw, st.just(b"PNPSPEC1"),
                  st.binary(min_size=8, max_size=8))
    n_frames = often(draw, st.integers(1, 4), st.just(0) | U32)
    n_bins = often(draw, st.integers(1, 4), st.just(0) | U32)
    header = magic + struct.pack("<IIII", n_frames, n_bins, draw(U32),
                                 often(draw, st.just(0), U32))
    declared = 8 * n_frames * n_bins if n_frames * n_bins <= 16 else 0
    payload = often(draw, st.binary(min_size=declared, max_size=declared),
                    st.binary(max_size=160))
    return cut_short_sometimes(draw, header + payload)


@settings(**FUZZ_SETTINGS)
@given(raw=_pnpspec_files())
def test_read_pnpspec_raises_only_protocol_or_os_errors(tmp_path, raw):
    path = tmp_path / "fuzz.pnpspec"
    path.write_bytes(raw)
    try:
        values, sample_rate = read_pnpspec(path)
    except (ProtocolError, OSError):
        return
    n_frames, n_bins, rate = struct.unpack_from("<III", raw, 8)
    assert values.shape == (n_frames, n_bins) and sample_rate == rate


# --- external subprocess denoisers -----------------------------------------

COPY_SCRIPT = "import shutil, sys; shutil.copy(sys.argv[1], sys.argv[2])"

SOFT_THRESHOLD_SCRIPT = """\
import struct, sys
import numpy as np

tau = 0.3
data = open(sys.argv[1], "rb").read()
n, k, fs, _ = struct.unpack_from("<IIII", data, 8)
flat = np.frombuffer(data, dtype="<f4", offset=24)
pairs = flat.reshape(n, k, 2).astype(np.float64)
values = pairs[..., 0] + 1j * pairs[..., 1]
mag = np.abs(values)
median = float(np.median(mag))
new_mag = np.maximum(mag - tau * median, 0.0)
factor = np.divide(new_mag, mag, out=np.zeros_like(mag), where=mag > 0)
values = values * factor
out = np.empty((n, k, 2), dtype="<f4")
out[..., 0] = values.real
out[..., 1] = values.imag
with open(sys.argv[2], "wb") as fh:
    fh.write(data[:24])
    fh.write(out.tobytes())
"""


def _script_denoiser(tmp_path, body):
    script = tmp_path / "denoise.py"
    script.write_text(body)
    return ExternalDenoiser((sys.executable, str(script)))


def _kept_dir_named_in(message, work):
    """The kept pnpspec_* directory under work, checked to be named in
    message and to hold the denoiser's input."""
    kept = [work / d for d in os.listdir(work) if d.startswith("pnpspec_")]
    assert len(kept) == 1 and (kept[0] / "in.pnpspec").exists()
    assert f"(inputs kept in {kept[0]})" in message
    return kept[0]


def test_external_copy_matches_identity(tmp_path):
    spec = _random_spec(np.random.default_rng(8), float32_exact=True)
    out = _script_denoiser(tmp_path, COPY_SCRIPT).denoise(spec)
    assert np.array_equal(out.values, spec.values)


def test_external_failure_keeps_workdir(tmp_path, monkeypatch):
    spec = _random_spec(np.random.default_rng(9))
    work = tmp_path / "work"
    work.mkdir()
    monkeypatch.setattr(tempfile, "tempdir", str(work))
    denoiser = _script_denoiser(tmp_path, "import sys; sys.exit(1)")
    with pytest.raises(DenoiserError) as info:
        denoiser.denoise(spec)
    _kept_dir_named_in(str(info.value), work)


def test_external_command_that_cannot_start_keeps_workdir(tmp_path,
                                                         monkeypatch):
    spec = _random_spec(np.random.default_rng(13))
    work = tmp_path / "work"
    work.mkdir()
    monkeypatch.setattr(tempfile, "tempdir", str(work))
    denoiser = ExternalDenoiser((str(tmp_path / "no_such_denoiser"),))
    with pytest.raises(DenoiserError) as info:
        denoiser.denoise(spec)
    _kept_dir_named_in(str(info.value), work)


def test_external_missing_output_is_protocol_error(tmp_path, monkeypatch):
    spec = _random_spec(np.random.default_rng(10))
    monkeypatch.setattr(tempfile, "tempdir", str(tmp_path))
    with pytest.raises(ProtocolError):
        _script_denoiser(tmp_path, "import sys").denoise(spec)


def test_external_shape_change_is_protocol_error(tmp_path, monkeypatch):
    body = (COPY_SCRIPT + "\nimport struct\n"
            "raw = bytearray(open(sys.argv[2], 'rb').read())\n"
            "raw[8:12] = struct.pack('<I', 1)\n"
            "open(sys.argv[2], 'wb').write(raw[:24 + 5 * 8])\n")
    spec = _random_spec(np.random.default_rng(11))
    monkeypatch.setattr(tempfile, "tempdir", str(tmp_path))
    with pytest.raises(ProtocolError):
        _script_denoiser(tmp_path, body).denoise(spec)


def test_external_soft_threshold_matches_in_process(tmp_path):
    spec = _random_spec(np.random.default_rng(12), float32_exact=True)
    external = _script_denoiser(tmp_path, SOFT_THRESHOLD_SCRIPT).denoise(spec)
    internal = SoftThresholdDenoiser(0.3).denoise(spec).values
    # compare after the float32 wire format both sides serialize through
    as_f32 = (internal.real.astype(np.float32).astype(np.float64)
              + 1j * internal.imag.astype(np.float32).astype(np.float64))
    assert np.array_equal(external.values, as_f32)


def test_external_non_finite_output_is_protocol_error(tmp_path,
                                                      monkeypatch):
    body = (COPY_SCRIPT + "\nimport struct\n"
            "raw = bytearray(open(sys.argv[2], 'rb').read())\n"
            "raw[24:28] = struct.pack('<f', float('nan'))\n"
            "open(sys.argv[2], 'wb').write(raw)\n")
    spec = _random_spec(np.random.default_rng(13))
    work = tmp_path / "work"
    work.mkdir()
    monkeypatch.setattr(tempfile, "tempdir", str(work))
    with pytest.raises(ProtocolError) as info:
        _script_denoiser(tmp_path, body).denoise(spec)
    _kept_dir_named_in(str(info.value), work)


@pytest.mark.parametrize("edit, reason", [
    ("raw[:8] = b'NOTSPEC1'", "malformed PNPSPEC1 header"),
    ("raw = raw[:-8]", "payload size inconsistent with header"),
    ("raw[16:20] = struct.pack('<I', 8000)",
     "denoiser changed the sample rate"),
])
def test_external_protocol_errors_name_the_kept_workdir(tmp_path, monkeypatch,
                                                        edit, reason):
    body = (COPY_SCRIPT + "\nimport struct\n"
            "raw = bytearray(open(sys.argv[2], 'rb').read())\n"
            f"{edit}\n"
            "open(sys.argv[2], 'wb').write(raw)\n")
    spec = _random_spec(np.random.default_rng(14))
    work = tmp_path / "work"
    work.mkdir()
    monkeypatch.setattr(tempfile, "tempdir", str(work))
    with pytest.raises(ProtocolError) as info:
        _script_denoiser(tmp_path, body).denoise(spec)
    assert str(info.value).startswith(reason)
    _kept_dir_named_in(str(info.value), work)

