"""Pluggable spectrogram denoisers and the external subprocess protocol.

A denoiser is any object with a `denoise(spectrogram) -> spectrogram`
method; the classes here are shape-preserving, deterministic maps on
complex spectrograms that check their settings when constructed. The
external protocol exchanges spectrograms through the PNPSPEC1 binary
format so arbitrary programs can be attached.
"""
from __future__ import annotations

import struct

import numpy as np

from .errors import ArgumentError, DenoiserError, ProtocolError

_MAGIC = b"PNPSPEC1"


class IdentityDenoiser:
    def denoise(self, spec):
        return spec


class SoftThresholdDenoiser:
    """Magnitude shrinkage by a fraction of the median magnitude."""

    def __init__(self, threshold):
        if not 0 <= threshold < np.inf:
            raise ArgumentError("threshold must be finite and >= 0")
        self.threshold = threshold

    def denoise(self, spec):
        values = spec.values
        mag = np.abs(values)
        median = float(np.median(mag)) if mag.size else 0.0
        new_mag = np.maximum(mag - self.threshold * median, 0.0)
        factor = np.divide(new_mag, mag, out=np.zeros_like(mag),
                           where=mag > 0)
        return spec.with_values(values * factor)


class WienerDenoiser:
    """Per-band spectral gain against a quantile noise-floor estimate."""

    def __init__(self, quantile, min_gain):
        if not 0 < quantile < 1:
            raise ArgumentError("quantile must be in (0, 1)")
        if not 0 <= min_gain <= 1:
            raise ArgumentError("min_gain must be in [0, 1]")
        self.quantile = quantile
        self.min_gain = min_gain

    def denoise(self, spec):
        power = np.abs(spec.values) ** 2
        # np.quantile(power, quantile, axis=0), per bin, by numpy's linear
        # rule from two order statistics; np.quantile imports numpy.ma.
        position = self.quantile * (len(power) - 1)
        lo = int(position)
        hi, t = min(lo + 1, len(power) - 1), position - lo
        below, above = np.partition(power, (lo, hi), axis=0)[[lo, hi]]
        d = above - below
        floor = above - d * (1 - t) if t >= 0.5 else below + d * t
        level = np.maximum(power, floor)
        # Where level is 0 the cell is 0, and any gain keeps it 0.
        ratio = np.divide(floor, level, out=np.zeros_like(level),
                          where=level > 0)
        gain = np.maximum(1.0 - ratio, self.min_gain)
        return spec.with_values(spec.values * gain)


def write_pnpspec(spec, path):
    """Serialize a spectrogram in the PNPSPEC1 binary format.

    Layout: 8-byte ASCII magic; little-endian u32 N, K, sample_rate,
    reserved=0; then N*K entries frame-major, float32 real then imag.
    """
    n_frames, n_bins = spec.values.shape
    if n_frames == 0 or n_bins == 0:
        raise ProtocolError("cannot serialize an empty spectrogram")
    header = _MAGIC + struct.pack("<IIII", n_frames, n_bins,
                                  spec.sample_rate, 0)
    with open(path, "wb") as fh:
        fh.write(header)
        # A little-endian complex64 is the float32 real, imag pair.
        fh.write(spec.values.astype("<c8").tobytes())


def read_pnpspec(path):
    """Deserialize PNPSPEC1; returns (complex128 values, sample_rate)."""
    with open(path, "rb") as fh:
        data = fh.read()
    if len(data) < 24 or data[:8] != _MAGIC:
        raise ProtocolError("malformed PNPSPEC1 header")
    n_frames, n_bins, sample_rate, reserved = struct.unpack_from("<IIII", data, 8)
    if reserved != 0:
        raise ProtocolError("reserved header field must be zero")
    if n_frames == 0 or n_bins == 0:
        raise ProtocolError("empty spectrogram rejected")
    expected = 24 + n_frames * n_bins * 8
    if len(data) != expected:
        raise ProtocolError("payload size inconsistent with header")
    # Widening a signalling NaN sets numpy's invalid flag; non-finite
    # values are the caller's to reject, not a warning here.
    with np.errstate(invalid="ignore"):
        values = np.frombuffer(data, "<c8", offset=24).reshape(
            n_frames, n_bins).astype(np.complex128)
    return values, int(sample_rate)


class ExternalDenoiser:
    """Invoke `command <in> <out>` over PNPSPEC1 temp files.

    Temp files are deleted on success and retained on error for debugging.
    """

    def __init__(self, command, workdir=None):
        if not command:
            raise ArgumentError("external denoiser requires a command")
        self.command = tuple(command)
        self.workdir = workdir

    def denoise(self, spec):
        # Imported here, so that only a run with this denoiser loads them.
        import shutil
        import subprocess
        import tempfile
        tmpdir = tempfile.mkdtemp(prefix="pnpspec_", dir=self.workdir)
        in_path = f"{tmpdir}/in.pnpspec"
        out_path = f"{tmpdir}/out.pnpspec"
        try:
            write_pnpspec(spec, in_path)
            try:
                result = subprocess.run([*self.command, in_path, out_path],
                                        capture_output=True, text=True,
                                        errors="replace")
            except OSError as exc:
                raise DenoiserError(f"denoiser command could not run: {exc}")
            if result.returncode != 0:
                raise DenoiserError(
                    f"denoiser command exited {result.returncode}; "
                    f"stderr: {result.stderr.strip()}")
            try:
                values, sample_rate = read_pnpspec(out_path)
            except OSError as exc:
                raise ProtocolError(f"denoiser produced no output: {exc}")
            if values.shape != spec.values.shape:
                raise ProtocolError(f"denoiser changed the shape: "
                                    f"{spec.values.shape} -> {values.shape}")
            if sample_rate != spec.sample_rate:
                raise ProtocolError("denoiser changed the sample rate")
            if not np.all(np.isfinite(values)):
                raise ProtocolError("denoiser output is not finite")
        except DenoiserError as exc:  # ProtocolError too
            raise type(exc)(f"{exc} (inputs kept in {tmpdir})") from exc
        shutil.rmtree(tmpdir, ignore_errors=True)
        return spec.with_values(values)

