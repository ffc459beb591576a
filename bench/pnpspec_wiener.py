"""External PNPSPEC1 denoiser for the `a4-pnpwpe-external` workload.

Usage: python pnpspec_wiener.py IN OUT

Reads a PNPSPEC1 spectrogram (8-byte magic, little-endian u32 frames, bins,
sample_rate, reserved=0, then frame-major float32 real/imag pairs), applies
the gain of `WienerDenoiser(quantile=0.3, min_gain=0.1)` and writes the
result in the same format. It needs numpy only, so the workload measures the
protocol's cost (process start, file exchange, float32 rounding) around the
same algorithm the in-process Wiener denoiser runs.
"""
import struct
import sys

import numpy as np

MAGIC = b"PNPSPEC1"
QUANTILE = 0.3
MIN_GAIN = 0.1


def wiener_gain(values, quantile=QUANTILE, min_gain=MIN_GAIN):
    power = np.abs(values) ** 2
    floor = np.quantile(power, quantile, axis=0)  # per bin
    return np.maximum(1.0 - floor / np.maximum(power, floor), min_gain)


def main(argv):
    if len(argv) != 2:
        sys.stderr.write("usage: pnpspec_wiener.py IN OUT\n")
        return 2
    in_path, out_path = argv
    with open(in_path, "rb") as fh:
        data = fh.read()
    if len(data) < 24 or data[:8] != MAGIC:
        sys.stderr.write("malformed PNPSPEC1 header\n")
        return 1
    n_frames, n_bins, _, _ = struct.unpack_from("<IIII", data, 8)
    if len(data) != 24 + 8 * n_frames * n_bins:
        sys.stderr.write("payload size inconsistent with header\n")
        return 1
    pairs = np.frombuffer(data, dtype="<f4", offset=24).reshape(
        n_frames, n_bins, 2).astype(np.float64)
    values = pairs[..., 0] + 1j * pairs[..., 1]
    values = values * wiener_gain(values)
    out = np.empty((n_frames, n_bins, 2), dtype="<f4")
    out[..., 0] = values.real
    out[..., 1] = values.imag
    with open(out_path, "wb") as fh:
        fh.write(data[:24])
        fh.write(out.tobytes())
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
