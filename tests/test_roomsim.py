import dataclasses
import math

import numpy as np
import pytest

from dereverb import roomsim
from dereverb.errors import ArgumentError
from dereverb.roomsim import (ARRAY_SPACING, EARLY_WINDOW_S, PRESETS,
                              RoomSpec, SPEED_OF_SOUND, default_rir_length,
                              image_source_rir, reflection_coefficient,
                              render_scene, sample_room, white_noise)
from dereverb.signals import (TimeSignal, convolve, fft_length,
                              scaled_noise_segment)

from helpers import image_source_rir_grid, measure_t60, speech_like


# --- geometry sampling -------------------------------------------------------

def test_sample_room_deterministic():
    a = sample_room("A", seed=3)
    b = sample_room("A", seed=3)
    assert a == b


def test_unknown_preset():
    with pytest.raises(ArgumentError):
        sample_room("C", seed=0)


@pytest.mark.parametrize("preset", ["A", "B"])
def test_sampled_specs_obey_preset_constraints(preset):
    cfg = PRESETS[preset]
    for seed in range(30):
        spec = sample_room(preset, seed)
        lx, ly, lz = spec.dimensions
        assert cfg.length_range[0] <= lx <= cfg.length_range[1]
        assert cfg.length_range[0] <= ly <= cfg.length_range[1]
        assert cfg.height_range[0] <= lz <= cfg.height_range[1]
        assert cfg.t60_range[0] <= spec.t60 <= cfg.t60_range[1]
        mics = np.array(spec.mics)
        assert mics.shape == (4, 3)
        dims = np.array(spec.dimensions)
        assert np.all(mics >= 0.1) and np.all(mics <= dims - 0.1)
        src = np.array(spec.source)
        walls = np.minimum(src, dims - src)
        assert np.min(walls) >= cfg.min_source_wall
        dists = np.linalg.norm(mics - src, axis=1)
        assert np.min(dists) >= cfg.min_source_mic
        spacing = np.linalg.norm(np.diff(mics, axis=0), axis=1)
        assert np.allclose(spacing, ARRAY_SPACING, atol=1e-12)
        # array is linear and horizontal
        assert np.allclose(mics[:, 2], mics[0, 2], atol=1e-12)


def test_room_spec_validation():
    with pytest.raises(ArgumentError):
        RoomSpec(dimensions=(4.0, 5.0), t60=0.5, source=(1, 1, 1),
                 mics=((2, 2, 1),))
    with pytest.raises(ArgumentError):
        RoomSpec(dimensions=(4, 5, 3), t60=0.0, source=(1, 1, 1),
                 mics=((2, 2, 1),))
    with pytest.raises(ArgumentError):
        RoomSpec(dimensions=(4, 5, 3), t60=0.5, source=(5, 1, 1),
                 mics=((2, 2, 1),))


def test_default_rir_length():
    """RoomSpec derives its rate and RIR length; neither is a field."""
    assert default_rir_length(0.5, 16000) == 10000
    spec = RoomSpec(dimensions=(4, 5, 3), t60=0.5, source=(1, 1, 1),
                    mics=((2, 2, 1),))
    assert [field.name for field in dataclasses.fields(RoomSpec)] == [
        "dimensions", "t60", "source", "mics"]
    assert spec.rir_length == 10000 and spec.sample_rate == 16000


# --- reflection coefficient ---------------------------------------------------

def test_reflection_coefficient_formula():
    spec = RoomSpec(dimensions=(4, 5, 3), t60=0.5, source=(1, 1, 1),
                    mics=((2, 2, 1),))
    volume = 60.0
    surface = 2 * (20.0 + 12.0 + 15.0)
    absorption = 0.161 * volume / (surface * 0.5)
    assert abs(reflection_coefficient(spec)
               - math.sqrt(1 - absorption)) < 1e-12


def test_reflection_coefficient_clamps():
    dead = RoomSpec(dimensions=(4, 5, 3), t60=0.01, source=(1, 1, 1),
                    mics=((2, 2, 1),))
    assert reflection_coefficient(dead) == 0.0
    live = RoomSpec(dimensions=(4, 5, 3), t60=1e6, source=(1, 1, 1),
                    mics=((2, 2, 1),))
    assert reflection_coefficient(live) == 0.999


# --- image-source RIR ----------------------------------------------------------

def _small_spec(**kw):
    defaults = dict(dimensions=(4.0, 5.0, 3.0), t60=0.3,
                    source=(1.0, 1.2, 1.5), mics=((2.5, 3.0, 1.4),))
    defaults.update(kw)
    return RoomSpec(**defaults)


@pytest.fixture
def short_rirs(monkeypatch):
    """300-tap RIRs, few enough images for the brute-force oracles."""
    monkeypatch.setattr(roomsim, "default_rir_length", lambda t60, fs: 300)


def test_free_field_single_tap(monkeypatch, short_rirs):
    monkeypatch.setattr(roomsim, "reflection_coefficient", lambda spec: 0.0)
    spec = _small_spec()
    rir = image_source_rir(spec, 0)
    d = np.linalg.norm(np.array(spec.source) - np.array(spec.mics[0]))
    tap = int(round(d / SPEED_OF_SOUND * spec.sample_rate))
    nonzero = np.nonzero(rir.samples)[0]
    assert nonzero.tolist() == [tap]
    assert abs(rir.samples[tap] - 1.0 / (4 * np.pi * d)) < 1e-12


def test_rir_matches_brute_force_image_oracle(monkeypatch, short_rirs):
    spec = _small_spec()
    r = 0.6
    monkeypatch.setattr(roomsim, "reflection_coefficient", lambda spec: r)
    rir = image_source_rir(spec, 0).samples
    fs = spec.sample_rate
    d_max = (spec.rir_length - 1) / fs * SPEED_OF_SOUND
    src, mic = np.array(spec.source), np.array(spec.mics[0])
    dims = spec.dimensions
    expected = np.zeros(spec.rir_length)
    # independent enumeration: loop over image indices and parities per axis
    span = int(math.ceil(d_max / (2 * min(dims)))) + 2
    for mx in range(-span, span + 1):
        for px in (0, 1):
            for my in range(-span, span + 1):
                for py in (0, 1):
                    for mz in range(-span, span + 1):
                        for pz in (0, 1):
                            pos = np.empty(3)
                            order = 0
                            for ax, (m, par) in enumerate(
                                    ((mx, px), (my, py), (mz, pz))):
                                if par == 0:
                                    pos[ax] = 2 * m * dims[ax] + src[ax]
                                    order += 2 * abs(m)
                                else:
                                    pos[ax] = 2 * m * dims[ax] - src[ax]
                                    order += abs(2 * m - 1)
                            d = float(np.linalg.norm(pos - mic))
                            if d > d_max + 1e-9:
                                continue
                            tap = int(round(d / SPEED_OF_SOUND * fs))
                            if tap >= spec.rir_length:
                                continue
                            gain = 1.0 if order == 0 else r ** order
                            expected[tap] += gain / (4 * np.pi * max(d, 1e-9))
    assert np.allclose(rir, expected, rtol=1e-12, atol=1e-14)


@pytest.mark.parametrize("preset", ["A", "B"])
def test_rir_equals_the_whole_lattice_reference_byte_for_byte(monkeypatch,
                                                             preset):
    """Both sides enumerate the whole image lattice in the same order; the
    reference differs by summing with np.add.at, a per-image gain and a
    mask of the taps past the end, so every tap must sum to the same bits.
    Besides the preset's rooms, seeded random rooms in its ranges get short
    RIRs, the first one tap long, where no image is within reach."""
    for seed in range(3):
        spec = sample_room(preset, seed)
        for q in range(spec.num_mics):
            rir = image_source_rir(spec, q).samples
            assert rir.tobytes() == image_source_rir_grid(spec, q).tobytes()
    cfg = PRESETS[preset]
    rng = np.random.default_rng(ord(preset))
    for length in [1, *rng.integers(2, 3001, size=5)]:
        monkeypatch.setattr(roomsim, "default_rir_length",
                            lambda t60, fs, n=int(length): n)
        dims = (*rng.uniform(*cfg.length_range, size=2),
                rng.uniform(*cfg.height_range))
        source, mic = (tuple(rng.uniform(0.05, 0.95, size=3) * dims)
                       for _ in range(2))
        spec = RoomSpec(dimensions=dims, t60=rng.uniform(*cfg.t60_range),
                        source=source, mics=(mic,))
        rir = image_source_rir(spec, 0).samples
        assert rir.tobytes() == image_source_rir_grid(spec, 0).tobytes()
        if length == 1:
            assert rir.tolist() == [0.0]


def test_first_tap_is_direct_path():
    for seed in range(5):
        spec = sample_room("A", seed)
        rir = image_source_rir(spec, 0)
        d = np.linalg.norm(np.array(spec.source) - np.array(spec.mics[0]))
        tap = int(round(d / SPEED_OF_SOUND * spec.sample_rate))
        assert np.nonzero(rir.samples)[0][0] == tap


def test_mic_index_validated():
    with pytest.raises(ArgumentError):
        image_source_rir(_small_spec(), 1)


@pytest.mark.parametrize("t60,dims,src,mic", [
    (0.4, (6.0, 6.0, 5.0), (2.0, 2.2, 2.4), (4.0, 3.9, 2.6)),
    (0.6, (9.0, 8.5, 7.0), (3.0, 3.2, 3.4), (6.0, 5.5, 3.6)),
])
def test_measured_t60_tracks_requested(t60, dims, src, mic):
    # rooms sized so the wall absorption sits where the Sabine inversion is
    # accurate for the specular image model
    spec = RoomSpec(dimensions=dims, t60=t60, source=src, mics=(mic,))
    measured = measure_t60(image_source_rir(spec, 0))
    assert abs(measured - t60) / t60 < 0.2


# --- T60 measurement ------------------------------------------------------------

def test_measure_t60_on_ideal_exponential_decay():
    fs = 16000
    t60 = 0.5
    t = np.arange(int(1.2 * t60 * fs)) / fs
    rir = TimeSignal(10.0 ** (-3.0 * t / t60), fs)
    assert abs(measure_t60(rir) - t60) / t60 < 0.02


def test_measure_t60_error_cases():
    with pytest.raises(ArgumentError):
        measure_t60(TimeSignal(np.zeros(100), 16000))
    with pytest.raises(ArgumentError):
        measure_t60(TimeSignal(np.ones(100), 16000))


# --- noise ------------------------------------------------------------------------

def test_white_noise_deterministic():
    a = white_noise(1000, seed=5)
    b = white_noise(1000, seed=5)
    assert np.array_equal(a.samples, b.samples)


def test_white_noise_statistics():
    x = white_noise(1_000_000, seed=1).samples
    assert abs(np.mean(x)) < 5.0 / np.sqrt(len(x))
    assert abs(np.var(x) - 1.0) < 0.01


def test_white_noise_length_validated():
    with pytest.raises(ArgumentError):
        white_noise(0, seed=0)


# --- scene rendering ----------------------------------------------------------------

def _clean(rng, n=8000, fs=16000):
    return TimeSignal(rng.standard_normal(n), fs)


def test_free_field_scene_reference_equals_observed():
    rng = np.random.default_rng(0)
    # t60 small enough that the Sabine absorption saturates: reflection 0
    spec = _small_spec(t60=0.05)
    assert reflection_coefficient(spec) == 0.0
    clean = _clean(rng)
    scene = render_scene(spec, clean)
    obs = scene.observed.channels[0].samples
    assert np.allclose(scene.reference.samples, obs, atol=1e-14)
    d = np.linalg.norm(np.array(spec.source) - np.array(spec.mics[0]))
    tap = int(round(d / SPEED_OF_SOUND * spec.sample_rate))
    amp = 1.0 / (4 * np.pi * d)
    clean = clean.samples
    assert np.allclose(obs[tap:], amp * clean[:len(clean) - tap], atol=1e-12)


def test_scene_noise_power_at_zero_db():
    rng = np.random.default_rng(1)
    spec = _small_spec()
    clean = _clean(rng)
    noise = white_noise(len(clean) + 16000, seed=7)
    noiseless = render_scene(spec, clean)
    noisy = render_scene(spec, clean, noise, snr_db=0.0, noise_seed=3)
    added = (noisy.observed.channels[0].samples
             - noiseless.observed.channels[0].samples)
    p_ref = np.mean(noiseless.observed.channels[0].samples ** 2)
    assert abs(np.mean(added ** 2) - p_ref) / p_ref < 1e-6


def test_reference_energy_not_above_observed():
    rng = np.random.default_rng(2)
    for seed in range(3):
        spec = sample_room("A", seed)
        scene = render_scene(spec, _clean(rng, n=6000))
        e_ref = np.sum(scene.reference.samples ** 2)
        e_obs = np.sum(scene.observed.channels[0].samples ** 2)
        assert e_ref <= e_obs * (1 + 1e-9)


def test_render_scene_deterministic():
    rng = np.random.default_rng(3)
    clean = _clean(rng, n=5000)
    spec = sample_room("A", 11)
    noise = white_noise(len(clean) + 16000, seed=2)
    a = render_scene(spec, clean, noise, snr_db=10.0, noise_seed=4)
    b = render_scene(spec, clean, noise, snr_db=10.0, noise_seed=4)
    assert np.array_equal(a.observed.as_array(), b.observed.as_array())


def test_render_scene_validates_rates():
    spec = _small_spec()
    with pytest.raises(ArgumentError):
        render_scene(spec, TimeSignal(np.ones(100), 8000))
    with pytest.raises(ArgumentError):
        render_scene(spec, TimeSignal(np.ones(100), 16000),
                     white_noise(200, 0), snr_db=None)


def _one_convolution_each(spec, clean):
    """render_scene's channels without noise, and its reference, one
    full-length signals.convolve call of one kernel each, trimmed to the
    clean length."""
    n = len(clean)

    def full(kernel):
        return convolve(clean, (kernel,), n + len(kernel) - 1)[0, :n]

    channels = [full(image_source_rir(spec, q)) for q in range(spec.num_mics)]
    rir = image_source_rir(spec, 0).samples
    cutoff = (int(np.flatnonzero(rir)[0])
              + int(round(EARLY_WINDOW_S * spec.sample_rate)))
    return channels, full(TimeSignal(rir[:cutoff + 1], spec.sample_rate))


@pytest.mark.parametrize("preset,seed", [("A", 2), ("B", 4)])
def test_scene_is_one_convolution_per_microphone_byte_for_byte(preset, seed):
    """Sharing the clean spectrum among the RIRs and stopping at the clean
    length change no rounding: each observed channel is the full
    convolution of clean with its RIR, trimmed, plus the scaled noise
    segment, and the reference is the trimmed full convolution with the
    early RIR, to the byte."""
    spec = sample_room(preset, seed)
    clean = speech_like(1.5, seed=seed)
    noise = white_noise(len(clean) + 16000, seed=5)
    channels, reference = _one_convolution_each(spec, clean)
    segment = scaled_noise_segment(TimeSignal(channels[0], 16000), noise,
                                   10.0, seed=6)
    for scene, added in ((render_scene(spec, clean), 0.0),
                         (render_scene(spec, clean, noise, 10.0, 6), segment)):
        assert scene.observed.num_channels == spec.num_mics
        for channel, expected in zip(scene.observed.channels, channels):
            assert channel.samples.tobytes() == (expected + added).tobytes()
        assert scene.reference.samples.tobytes() == reference.tobytes()


def test_render_scene_transforms_are_at_most_twice_the_rir(monkeypatch):
    """Every rfft and irfft of an 8 s preset-B scene is at most
    fft_length(2 * rir_length) points long: overlap-add blocks, not one
    transform of the whole convolution."""
    lengths = []
    real_rfft, real_irfft = np.fft.rfft, np.fft.irfft

    def rfft(a, n=None, axis=-1, **kwargs):
        lengths.append(np.shape(a)[axis] if n is None else n)
        return real_rfft(a, n, axis, **kwargs)

    def irfft(a, n=None, axis=-1, **kwargs):
        out = real_irfft(a, n, axis, **kwargs)
        lengths.append(out.shape[axis])
        return out

    monkeypatch.setattr(np.fft, "rfft", rfft)
    monkeypatch.setattr(np.fft, "irfft", irfft)
    spec = sample_room("B", 4)
    render_scene(spec, speech_like(8.0, seed=0))
    assert fft_length(2 * spec.rir_length) == 65536
    assert lengths and max(lengths) <= 65536


def test_render_scene_checks_the_noise_before_building_any_rir(monkeypatch):
    def no_rir(*args):
        raise AssertionError("an RIR was built before the noise was checked")

    monkeypatch.setattr(roomsim, "image_source_rir", no_rir)
    spec = _small_spec()
    clean = TimeSignal(np.ones(100), 16000)
    for noise, snr_db in ((white_noise(200, 0, sample_rate=8000), 10.0),
                          (white_noise(200, 0), None),
                          (white_noise(200, 0), float("nan")),
                          (white_noise(200, 0), float("inf")),
                          (white_noise(99, 0), 10.0)):
        with pytest.raises(ArgumentError):
            render_scene(spec, clean, noise, snr_db)
