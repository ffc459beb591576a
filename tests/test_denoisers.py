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
    for threshold in (-0.1, np.inf, np.nan):
        with pytest.raises(ArgumentError):
            SoftThresholdDenoiser(threshold=threshold)
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


def _wiener_by_np_quantile(values, quantile, min_gain):
    """WienerDenoiser's output with its floor taken by np.quantile."""
    power = np.abs(values) ** 2
    floor = np.quantile(power, quantile, axis=0)
    level = np.maximum(power, floor)
    ratio = np.divide(floor, level, out=np.zeros_like(level),
                      where=level > 0)
    return values * np.maximum(1.0 - ratio, min_gain)


def test_wiener_floor_is_np_quantile_byte_for_byte():
    # random shapes and quantiles, one frame, ties and an all-zero column
    rng = np.random.default_rng(9)
    cases = []
    for _ in range(200):
        config = StftConfig(frame_len=int(rng.choice([8, 32])), hop=2)
        shape = (int(rng.integers(1, 60)), config.num_bins)
        values = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        cases.append((config, values, float(rng.uniform(0.001, 0.999))))
    one_frame = rng.standard_normal((1, 5)) + 1j
    ties = np.round(rng.standard_normal((9, 5))) + 0j
    zero_column = rng.standard_normal((7, 5)) + 0j
    zero_column[:, 1] = 0.0
    cases += [(SMALL, values, quantile) for values in
              (one_frame, ties, zero_column) for quantile in (0.3, 0.5, 0.9)]
    for config, values, quantile in cases:
        length = (len(values) - 1) * config.hop + config.frame_len
        spec = Spectrogram(values, config, 16000, length)
        out = WienerDenoiser(quantile, 0.1).denoise(spec).values
        assert (out.tobytes()
                == _wiener_by_np_quantile(values, quantile, 0.1).tobytes())


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


# --- RED admissibility -----------------------------------------------------
# RED's update rho*(R - D(R)) is the gradient of 0.5*rho*Re<R, R - D(R)>
# only where D is locally 1-homogeneous and its Jacobian is symmetric
# (Romano, Elad & Milanfar 2017; Reehorst & Schniter 2019). Complex cells
# are read as real pairs. The point is seeded noise on 60 x 65 bins.

RED_CONFIG = StftConfig(frame_len=128, hop=32)


def _red_point():
    rng = np.random.default_rng(20)
    shape = (60, RED_CONFIG.num_bins)
    values = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    return Spectrogram(values, RED_CONFIG, 16000, 59 * 32 + 128)


class _PointwiseGain:
    """x |x|^2 / (|x|^2 + 1): a gain of each cell alone, whose Jacobian is
    symmetric; a check of the probe."""

    def denoise(self, spec):
        power = np.abs(spec.values) ** 2
        return spec.with_values(spec.values * power / (power + 1.0))


def _asymmetry(denoiser, spec, pairs=12, step=1e-6):
    """||J - J^T||_F / ||J||_F of the denoiser's Jacobian at spec, from
    Hutchinson probe pairs: E[(v.Ju - u.Jv)^2] = ||J - J^T||_F^2 and
    E[|Ju|^2] = ||J||_F^2 for independent standard normal u and v. Each
    Jacobian-vector product is a central difference."""
    rng = np.random.default_rng(21)

    def jvp(u):
        plus, minus = (denoiser.denoise(spec.with_values(spec.values + d * u))
                       .values for d in (step, -step))
        return (plus - minus) / (2 * step)

    skew, norm = [], []
    for _ in range(pairs):
        u, v = (rng.standard_normal(spec.values.shape)
                + 1j * rng.standard_normal(spec.values.shape)
                for _ in range(2))
        ju, jv = jvp(u), jvp(v)
        # The real inner product of the real pairs is Re(vdot).
        skew.append((np.vdot(v, ju).real - np.vdot(u, jv).real) ** 2)
        norm += [np.vdot(ju, ju).real, np.vdot(jv, jv).real]
    return float(np.sqrt(np.mean(skew) / np.mean(norm)))


@pytest.mark.parametrize("denoiser", [
    IdentityDenoiser(), SoftThresholdDenoiser(0.5), WienerDenoiser(0.3, 0.1),
], ids=["identity", "soft_threshold", "wiener"])
def test_red_one_homogeneity(denoiser):
    spec = _red_point()
    out = denoiser.denoise(spec).values
    for scale in (0.5, 2.0, 10.0):
        scaled = denoiser.denoise(spec.with_values(scale * spec.values))
        assert (np.linalg.norm(scaled.values - scale * out)
                <= 1e-12 * np.linalg.norm(scale * out))


@pytest.mark.parametrize("denoiser", [
    IdentityDenoiser(),
    _PointwiseGain(),
    pytest.param(WienerDenoiser(0.3, 0.1), marks=pytest.mark.xfail(
        strict=True, reason="per-bin quantile floor of the iterate; "
        "ROADMAP item 13")),
    pytest.param(SoftThresholdDenoiser(0.5), marks=pytest.mark.xfail(
        strict=True, reason="global median of the iterate; "
        "ROADMAP item 13")),
], ids=["identity", "pointwise", "wiener", "soft_threshold"])
def test_red_jacobian_symmetry(denoiser):
    assert _asymmetry(denoiser, _red_point()) < 1e-2


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


def test_write_pnpspec_rejects_an_empty_spectrogram(tmp_path):
    path = tmp_path / "empty.pnpspec"
    with pytest.raises(ProtocolError, match="empty spectrogram"):
        write_pnpspec(_spec(np.zeros((0, SMALL.num_bins))), path)
    assert not path.exists()


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

