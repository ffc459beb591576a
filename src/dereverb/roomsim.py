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
MIC_WALL_MARGIN = 0.1
ARRAY_SPACING = 0.040
NUM_MICS = 4


@dataclass(frozen=True)
class RoomPreset:
    length_range: tuple
    height_range: tuple
    t60_range: tuple
    min_source_wall: float
    min_source_mic: float


PRESETS = {
    "A": RoomPreset((8.0, 13.0), (2.8, 3.8), (0.4, 0.8), 0.5, 0.8),
    "B": RoomPreset((15.0, 20.0), (3.0, 4.0), (0.8, 1.2), 0.8, 1.3),
}


@dataclass(frozen=True)
class RoomSpec:
    dimensions: tuple
    t60: float
    source: tuple
    mics: tuple
    sample_rate = 16000

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

    @property
    def rir_length(self):
        return default_rir_length(self.t60, self.sample_rate)

    @property
    def num_mics(self):
        return len(self.mics)


def default_rir_length(t60, sample_rate):
    """Long enough to capture the decay below -60 dB."""
    return int(math.ceil(1.25 * t60 * sample_rate))


def sample_room(preset, seed):
    """Rejection-sample a room layout within the preset's ranges.

    Linear 4-mic array with 40 mm spacing at random position/orientation in
    the horizontal plane; all mics >= 0.1 m from walls; source respects the
    preset's wall and array distances. The rate is RoomSpec's, 16 kHz.
    """
    if preset not in PRESETS:
        raise ArgumentError(f"unknown preset: {preset}")
    if seed < 0:
        raise ArgumentError(f"seed must be non-negative, got {seed}")
    cfg = PRESETS[preset]
    rng = np.random.default_rng(seed)
    offsets = (np.arange(NUM_MICS) - (NUM_MICS - 1) / 2.0) * ARRAY_SPACING
    for _ in range(1000):
        length = rng.uniform(*cfg.length_range)
        width = rng.uniform(*cfg.length_range)
        height = rng.uniform(*cfg.height_range)
        t60 = rng.uniform(*cfg.t60_range)
        angle = rng.uniform(0.0, 2.0 * np.pi)
        # Mics lie within 1.5 spacings of the centre, so this margin keeps
        # them 0.2 m from the x/y walls; z in [1, 2] m is inside any height.
        margin = MIC_WALL_MARGIN + ARRAY_SPACING * NUM_MICS
        center = np.array([
            rng.uniform(margin, length - margin),
            rng.uniform(margin, width - margin),
            rng.uniform(max(MIC_WALL_MARGIN, 1.0),
                        min(height - MIC_WALL_MARGIN, 2.0)),
        ])
        direction = np.array([np.cos(angle), np.sin(angle), 0.0])
        mics = center[None, :] + offsets[:, None] * direction[None, :]
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


def image_source_rir(spec, mic_index):
    """Shoebox image-source impulse response for one microphone.

    Each image within reach, (rir_length - 1) / fs seconds of travel,
    contributes amplitude r^order / (4*pi*distance) at the nearest sample
    round(distance/c * fs), where r = reflection_coefficient(spec) and c =
    SPEED_OF_SOUND.
    """
    if not 0 <= mic_index < spec.num_mics:
        raise ArgumentError("mic_index out of range")
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

    dist = np.sqrt((coords[0][:, None] ** 2 + coords[1][None, :] ** 2)
                   [:, :, None] + coords[2] ** 2).ravel()
    inside = dist <= d_max + 1e-9
    dist = dist[inside]
    order = (orders[0][:, None, None] + orders[1][None, :, None]
             + orders[2]).ravel()[inside]
    gain = reflection_coefficient(spec) ** np.arange(order.max(initial=0) + 1)
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
    sample rates, an empty clean signal, a finite snr_db and the noise
    length are checked before any RIR is built.
    """
    if clean.sample_rate != spec.sample_rate:
        raise ArgumentError(
            f"clean signal is sampled at {clean.sample_rate} Hz, the room at "
            f"{spec.sample_rate} Hz")
    if len(clean) == 0:
        raise ArgumentError("clean signal is empty")
    if noise is not None:
        if snr_db is None or not math.isfinite(snr_db):
            raise ArgumentError("a finite snr_db is required with noise")
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
        # Views observed[0]: read in full before the += writes to it.
        rev_ref = TimeSignal(observed[0], spec.sample_rate)
        observed += scaled_noise_segment(rev_ref, noise, snr_db, noise_seed)

    return Scene(
        observed=MultichannelTimeSignal.from_array(observed, spec.sample_rate),
        reference=reference,
        rirs=rirs,
    )

