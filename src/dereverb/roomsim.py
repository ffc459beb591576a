"""Room-acoustics scene synthesis: image-source RIRs, reverberant mixing,
noise addition and early-reflection reference generation."""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ArgumentError, GeometryError
from .signals import (MultichannelTimeSignal, TimeSignal, check_noise,
                      convolve, convolve_each, scaled_noise_segment)

SPEED_OF_SOUND = 343.0
EARLY_WINDOW_S = 0.050
T60_FIT_RANGE = (-5.0, -35.0)  # dB levels of the decay curve measure_t60 fits
MIC_WALL_MARGIN = 0.1
ARRAY_SPACING = 0.040
NUM_MICS = 4


@dataclass(frozen=True)
class RoomPreset:
    name: str
    length_range: tuple
    height_range: tuple
    t60_range: tuple
    min_source_wall: float
    min_source_mic: float


PRESETS = {
    "A": RoomPreset("A", (8.0, 13.0), (2.8, 3.8), (0.4, 0.8), 0.5, 0.8),
    "B": RoomPreset("B", (15.0, 20.0), (3.0, 4.0), (0.8, 1.2), 0.8, 1.3),
}


@dataclass(frozen=True)
class RoomSpec:
    dimensions: tuple
    t60: float
    source: tuple
    mics: tuple
    sample_rate: int = 16000
    rir_length: int = 0

    def __post_init__(self):
        if len(self.dimensions) != 3 or any(d <= 0 for d in self.dimensions):
            raise ArgumentError("dimensions must be three positive lengths")
        if not self.t60 > 0:
            raise ArgumentError("t60 must be > 0")
        for point in (self.source, *self.mics):
            if len(point) != 3:
                raise ArgumentError("positions must be 3-D")
            if not all(0 < point[i] < self.dimensions[i] for i in range(3)):
                raise ArgumentError("positions must be strictly inside the room")
        if self.rir_length == 0:
            object.__setattr__(self, "rir_length",
                               default_rir_length(self.t60, self.sample_rate))
        if self.rir_length < 1:
            raise ArgumentError("rir_length must be >= 1")

    @property
    def num_mics(self):
        return len(self.mics)


def default_rir_length(t60, sample_rate):
    """Long enough to capture the decay below -60 dB."""
    return int(math.ceil(1.25 * t60 * sample_rate))


def sample_room(preset, seed, sample_rate=16000):
    """Rejection-sample a room layout within the preset's ranges.

    Linear 4-mic array with 40 mm spacing at random position/orientation in
    the horizontal plane; all mics >= 0.1 m from walls; source respects the
    preset's wall and array distances.
    """
    if preset not in PRESETS:
        raise ArgumentError(f"unknown preset: {preset}")
    cfg = PRESETS[preset]
    rng = np.random.default_rng(seed)
    offsets = (np.arange(NUM_MICS) - (NUM_MICS - 1) / 2.0) * ARRAY_SPACING
    for _ in range(1000):
        length = rng.uniform(*cfg.length_range)
        width = rng.uniform(*cfg.length_range)
        height = rng.uniform(*cfg.height_range)
        t60 = rng.uniform(*cfg.t60_range)
        angle = rng.uniform(0.0, 2.0 * np.pi)
        margin = MIC_WALL_MARGIN + ARRAY_SPACING * NUM_MICS
        center = np.array([
            rng.uniform(margin, length - margin),
            rng.uniform(margin, width - margin),
            rng.uniform(max(MIC_WALL_MARGIN, 1.0),
                        min(height - MIC_WALL_MARGIN, 2.0)),
        ])
        direction = np.array([np.cos(angle), np.sin(angle), 0.0])
        mics = center[None, :] + offsets[:, None] * direction[None, :]
        dims = np.array([length, width, height])
        if np.any(mics < MIC_WALL_MARGIN) or np.any(
                mics > dims[None, :] - MIC_WALL_MARGIN):
            continue
        sw = cfg.min_source_wall
        source = np.array([
            rng.uniform(sw, length - sw),
            rng.uniform(sw, width - sw),
            rng.uniform(sw, height - sw),
        ])
        if np.min(np.linalg.norm(mics - source[None, :], axis=1)) < cfg.min_source_mic:
            continue
        return RoomSpec(
            dimensions=(length, width, height),
            t60=t60,
            source=tuple(source),
            mics=tuple(tuple(m) for m in mics),
            sample_rate=sample_rate,
        )
    raise GeometryError(f"could not satisfy preset {preset} constraints")


def reflection_coefficient(spec):
    """Uniform wall reflection from T60 via the Sabine relation.

    absorption a = 0.161*V/(S*t60); reflection r = sqrt(1 - a), with r
    clamped to [0, 0.999].
    """
    lx, ly, lz = spec.dimensions
    volume = lx * ly * lz
    surface = 2.0 * (lx * ly + lx * lz + ly * lz)
    absorption = 0.161 * volume / (surface * spec.t60)
    if absorption >= 1.0:
        return 0.0
    return min(math.sqrt(1.0 - absorption), 0.999)


def image_source_rir(spec, mic_index, reflection=None):
    """Shoebox image-source impulse response for one microphone.

    Each image within reach, (rir_length - 1) / fs seconds of travel,
    contributes amplitude reflection^order / (4*pi*distance) at the nearest
    sample round(distance/c * fs). Only images within reach are built: two
    runs of z images for each (x, y) column of the image lattice, about a
    third of the lattice's bounding box in a preset-B room.
    """
    if not 0 <= mic_index < spec.num_mics:
        raise ArgumentError("mic_index out of range")
    if reflection is None:
        reflection = reflection_coefficient(spec)
    fs = spec.sample_rate
    mic = np.asarray(spec.mics[mic_index])
    src = np.asarray(spec.source)
    d_max = (spec.rir_length - 1) / fs * SPEED_OF_SOUND

    coords = []
    orders = []
    for axis in range(3):
        size = spec.dimensions[axis]
        m_range = int(math.ceil(d_max / (2.0 * size))) + 1
        m = np.arange(-m_range, m_range + 1)
        plus = 2.0 * m * size + src[axis]
        minus = 2.0 * m * size - src[axis]
        coords.append(np.concatenate([plus, minus]) - mic[axis])
        orders.append(np.concatenate([2 * np.abs(m), np.abs(2 * m - 1)]))

    # Each half of the z images (plus, minus) is sorted, so the images
    # within reach of one (x, y) column are two runs of z indices. The runs
    # are found with a bound loosened by 1e-9 of reach**2; the exact test
    # then keeps the images a test of the whole (x, y, z) grid would keep,
    # in the grid's order, so the taps sum in the same order.
    reach = d_max + 1e-9
    xy2 = (coords[0][:, None] ** 2 + coords[1][None, :] ** 2).ravel()
    xy_order = (orders[0][:, None] + orders[1][None, :]).ravel()
    z = coords[2]
    half = len(z) // 2
    z_reach = np.sqrt(np.maximum(reach**2 - xy2, 0.0) + 1e-9 * reach**2)
    starts, stops = (
        np.stack([np.searchsorted(z[:half], edge, side),
                  half + np.searchsorted(z[half:], edge, side)],
                 axis=1).ravel()
        for edge, side in ((-z_reach, "left"), (z_reach, "right")))
    runs = stops - starts
    column = np.repeat(np.arange(len(xy2)), runs[0::2] + runs[1::2])
    first = np.cumsum(runs) - runs
    k = np.arange(runs.sum()) + np.repeat(starts - first, runs)
    dist = np.sqrt(xy2[column] + z[k] ** 2)
    inside = dist <= reach
    dist = dist[inside]
    order = (xy_order[column] + orders[2][k])[inside]
    gain = float(reflection) ** np.arange(order.max(initial=0) + 1)
    amp = gain[order] / (4.0 * np.pi * np.maximum(dist, 1e-9))
    taps = np.rint(dist / SPEED_OF_SOUND * fs).astype(np.int64)
    # bincount adds the weights in input order, as np.add.at would.
    rir = np.bincount(taps, amp, minlength=spec.rir_length)[:spec.rir_length]
    return TimeSignal(rir, fs)


def white_noise(length, seed, sample_rate=16000):
    """Seeded standard Gaussian noise."""
    if length <= 0:
        raise ArgumentError("length must be > 0")
    rng = np.random.default_rng(seed)
    return TimeSignal(rng.standard_normal(length), sample_rate)


@dataclass(frozen=True)
class Scene:
    observed: MultichannelTimeSignal
    reference: TimeSignal
    clean: TimeSignal
    rirs: tuple


def render_scene(spec, clean, noise=None, snr_db=None, noise_seed=0):
    """Convolve clean speech with the room RIRs and optionally add noise.

    The microphone channels are one signals.convolve_each call: overlap-add
    in blocks of fft_length(2 * rir_length) points (65536 for a preset-B
    room), whose clean spectra are taken once and shared by all the RIRs,
    each channel written into one (mics, length) array. The reference keeps
    microphone 0's direct path plus 50 ms of early reflections, convolved
    on its own (signals.convolve) in blocks sized to that short kernel
    (4096 points for a preset-B room). Noise is scaled against microphone
    0's reverberant signal, and the same scaled segment is added in place
    to every channel. All signals are trimmed to the clean length. The
    sample rates, an empty clean signal, snr_db and the noise length are
    checked before any RIR is built.
    """
    if clean.sample_rate != spec.sample_rate:
        raise ArgumentError("clean signal sample rate must match the room")
    if len(clean) == 0:
        raise ArgumentError("clean signal is empty")
    if noise is not None:
        if snr_db is None:
            raise ArgumentError("snr_db required when noise is given")
        check_noise(clean, noise)
    rirs = tuple(image_source_rir(spec, q) for q in range(spec.num_mics))
    length = len(clean)
    observed = convolve_each(clean, rirs, length)

    ref_rir = rirs[0].samples
    nonzero = np.nonzero(ref_rir)[0]
    if nonzero.size == 0:
        raise GeometryError("reference RIR is all zero")
    cutoff = int(nonzero[0]) + int(round(EARLY_WINDOW_S * spec.sample_rate))
    early = TimeSignal(ref_rir[:cutoff + 1], spec.sample_rate)
    reference = TimeSignal(convolve(clean, early).samples[:length],
                           spec.sample_rate)

    if noise is not None:
        rev_ref = TimeSignal(observed[0], spec.sample_rate)
        observed += scaled_noise_segment(rev_ref, noise, snr_db, noise_seed)

    return Scene(
        observed=MultichannelTimeSignal.from_array(observed, spec.sample_rate),
        reference=reference,
        clean=clean,
        rirs=rirs,
    )


def measure_t60(rir):
    """Reverberation time from Schroeder backward integration.

    Fits a line to the energy decay curve between the T60_FIT_RANGE dB
    levels and extrapolates to -60 dB.
    """
    energy = rir.samples**2
    total = float(np.sum(energy))
    if total <= 0:
        raise ArgumentError("RIR has no energy")
    edc = np.cumsum(energy[::-1])[::-1] / total
    with np.errstate(divide="ignore"):
        db = 10.0 * np.log10(np.maximum(edc, 1e-300))
    hi, lo = T60_FIT_RANGE
    start = int(np.argmax(db <= hi))
    ends = np.nonzero(db <= lo)[0]
    if db[start] > hi or ends.size == 0:
        raise ArgumentError("decay range insufficient for the fit")
    end = int(ends[0])
    if end <= start + 1:
        raise ArgumentError("decay range insufficient for the fit")
    t = np.arange(start, end)
    slope, _ = np.polyfit(t, db[start:end], 1)
    if slope >= 0:
        raise ArgumentError("non-decaying energy curve")
    return float(-60.0 / (slope * rir.sample_rate))
