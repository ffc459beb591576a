"""Shared test utilities: synthetic speech surrogate, scene builders,
reference STFT analysis and synthesis, a channel stack, per-frame
regressor and prediction oracles, reference accumulators of the weighted
normal equations and their augmented Gram, a reference PnPWPE loop, a
whole-lattice image-source RIR, a Schroeder T60 measurement, a
direct-form alignment oracle and fuzzing strategies."""
import math
from dataclasses import dataclass

import numpy as np
import scipy.signal
from hypothesis import HealthCheck, strategies as st

from dereverb.errors import ArgumentError
from dereverb.pnpwpe import AdmmState, update_r
from dereverb.roomsim import (SPEED_OF_SOUND, reflection_coefficient,
                              render_scene, sample_room, white_noise)
from dereverb.signals import TimeSignal
from dereverb.stft import Spectrogram, hann
from dereverb.wpe import (FilterBank, IterationRecord, estimate_psd, prepare,
                          relative_change, solve_all_bands)

T60_FIT_RANGE = (-5.0, -35.0)  # dB levels of the decay curve measure_t60 fits


def speech_like(duration, fs=16000, seed=0):
    """Speech surrogate: noise-excited, piecewise-stationary formant filters
    under a syllabic envelope.

    Noise excitation keeps the signal linearly unpredictable beyond a few
    milliseconds (like real speech), so delayed linear prediction removes
    reverberation rather than the signal itself; sustained harmonic
    surrogates fail that property.
    """
    rng = np.random.default_rng(seed)
    n = int(duration * fs)
    segment = int(0.12 * fs)
    x = np.zeros(n)
    pos = 0
    while pos < n:
        length = min(segment, n - pos)
        a = np.array([1.0])
        for f in rng.uniform([300.0, 800.0, 1800.0], [800.0, 1800.0, 3200.0]):
            r = rng.uniform(0.94, 0.985)
            theta = 2 * np.pi * f / fs
            a = np.convolve(a, [1.0, -2 * r * np.cos(theta), r * r])
        drive = rng.standard_normal(length)
        x[pos:pos + length] = (scipy.signal.lfilter([1.0], a, drive)
                               * rng.uniform(0.2, 1.0))
        pos += length
    t = np.arange(n) / fs
    env = 0.5 * (1 + np.sin(2 * np.pi * 3.0 * t
                            + rng.uniform(0, 2 * np.pi))) ** 1.5 + 0.2
    x *= env
    x /= np.max(np.abs(x))
    return TimeSignal(0.5 * x, fs)


def make_scene(preset="A", seed=0, noise_kind="none", snr_db=10.0,
               duration=4.0):
    spec = sample_room(preset, seed)
    clean = speech_like(duration, spec.sample_rate, seed=seed + 1000)
    noise = None
    if noise_kind == "wgn":
        noise = white_noise(len(clean) + spec.sample_rate, seed + 2000,
                            spec.sample_rate)
    return render_scene(spec, clean, noise,
                        snr_db if noise is not None else None,
                        noise_seed=seed + 3000)


def analyze_gather(signal, config):
    """Reference STFT: the tail zero-padded by one frame, and the N =
    len // hop + 1 frames gathered through a (frames, frame_len) index
    array, then windowed and transformed."""
    x = signal.samples
    padded = np.concatenate([x, np.zeros(config.frame_len)])
    n_frames = len(x) // config.hop + 1
    window = hann(config.frame_len)
    idx = (np.arange(n_frames)[:, None] * config.hop
           + np.arange(config.frame_len)[None, :])
    frames = padded[idx] * window[None, :]
    values = np.fft.rfft(frames, n=config.frame_len, axis=1)
    return Spectrogram(values, config, signal.sample_rate, len(x))


def synthesize_loop(spec):
    """Reference weighted overlap-add: one frame at a time in frame order,
    each frame and its squared window added at its offset, the sum divided
    by the envelope floored at 1e-12, then cut or zero-padded to
    signal_length."""
    config = spec.config
    window = hann(config.frame_len)
    frames = np.fft.irfft(spec.values, n=config.frame_len, axis=1)
    frames = frames * window[None, :]
    out_len = (spec.num_frames - 1) * config.hop + config.frame_len
    buf = np.zeros(out_len)
    wsum = np.zeros(out_len)
    for n in range(spec.num_frames):
        start = n * config.hop
        buf[start:start + config.frame_len] += frames[n]
        wsum[start:start + config.frame_len] += window**2
    out = buf / np.maximum(wsum, 1e-12)
    target = min(spec.signal_length, out_len)
    trimmed = np.zeros(spec.signal_length)
    trimmed[:target] = out[:target]
    return TimeSignal(trimmed, spec.sample_rate)


def stack_channels(spec):
    """The channels of a MultichannelSpectrogram as one (Q, frames, bins)
    complex array."""
    return np.stack([ch.values for ch in spec.channels])


def build_regressor(spec, n, k, delay, order):
    """Channel-major delayed regressor of length L*Q for frame n, bin k.

    Channel q contributes (X_q(n-D,k), ..., X_q(n-D-L+1,k)); frames with
    negative index contribute zeros.
    """
    obs = stack_channels(spec)
    out = np.zeros(order * spec.num_channels, dtype=np.complex128)
    for q in range(spec.num_channels):
        for l in range(order):
            frame = n - delay - l
            if frame >= 0:
                out[q * order + l] = obs[q, frame, k]
    return out


def regressor_block(regressors, k0, k1):
    """The regressors of bins k0..k1-1 as a (k1-k0, L*Q, frames) array, read
    from the strided window view wpe.Regressors.windows."""
    return regressors.windows[k0:k1].reshape(k1 - k0, *regressors.shape[1:])


def predict(spec, weights, delay, order):
    """w^H x for every frame and bin, one build_regressor at a time:
    the (frames, bins) prediction of the filters `weights` (bins, L*Q)."""
    num_bins = spec.channels[0].config.num_bins
    prediction = np.empty((spec.num_frames, num_bins), dtype=np.complex128)
    for n in range(spec.num_frames):
        for k in range(num_bins):
            prediction[n, k] = np.vdot(
                weights[k], build_regressor(spec, n, k, delay, order))
    return prediction


@dataclass(frozen=True)
class NormalEquations:
    Z: np.ndarray
    q: np.ndarray

    def __post_init__(self):
        Z = np.asarray(self.Z, dtype=np.complex128)
        q = np.asarray(self.q, dtype=np.complex128)
        if Z.ndim != 2 or Z.shape[0] != Z.shape[1]:
            raise ArgumentError("Z must be square")
        if q.shape != (Z.shape[0],):
            raise ArgumentError("q length must match Z")
        if np.max(np.abs(Z - Z.conj().T), initial=0.0) > 1e-12 * max(
                1.0, float(np.max(np.abs(Z), initial=0.0))):
            raise ArgumentError("Z must be Hermitian")
        object.__setattr__(self, "Z", Z)
        object.__setattr__(self, "q", q)

    @property
    def size(self):
        return self.q.shape[0]


def accumulate_normal_equations(terms, size=None):
    """Accumulate weighted normal equations from (vector, target, weight).

    Z = sum v v^H / weight, q = sum v conj(target) / weight. Hermitian
    symmetry is enforced by accumulating the lower triangle and mirroring.
    """
    terms = list(terms)
    if not terms:
        if size is None:
            raise ArgumentError("size required for an empty term sequence")
        return NormalEquations(np.zeros((size, size), dtype=np.complex128),
                               np.zeros(size, dtype=np.complex128))
    dim = np.asarray(terms[0][0]).shape[0]
    if size is not None and size != dim:
        raise ArgumentError("size inconsistent with vector length")
    Z = np.zeros((dim, dim), dtype=np.complex128)
    q = np.zeros(dim, dtype=np.complex128)
    lower = np.tril_indices(dim)
    for vector, target, weight in terms:
        v = np.asarray(vector, dtype=np.complex128)
        if v.shape != (dim,):
            raise ArgumentError("inconsistent vector length")
        if not weight > 0:
            raise ArgumentError("weights must be positive")
        outer = np.outer(v, v.conj()) / weight
        Z[lower] += outer[lower]
        q += v * np.conj(target) / weight
    Z = np.tril(Z) + np.tril(Z, -1).conj().T
    np.fill_diagonal(Z, Z.diagonal().real)
    return NormalEquations(Z, q)


def accumulate_batch(vectors, targets, weights):
    """Vectorized accumulation over rows of `vectors` ((M, L) complex)."""
    vectors = np.asarray(vectors, dtype=np.complex128)
    targets = np.asarray(targets, dtype=np.complex128)
    weights = np.asarray(weights, dtype=np.float64)
    if np.any(weights <= 0):
        raise ArgumentError("weights must be positive")
    scaled = vectors / weights[:, None]
    Z = scaled.T @ vectors.conj()
    Z = 0.5 * (Z + Z.conj().T)
    q = scaled.T @ targets.conj()
    return NormalEquations(Z, q)


def augmented_gram(Z, q, c=None):
    """conj([Z q; q^H c]) in a new F-ordered complex128 buffer: the layout
    numerics.herk_lower writes from the rows [x; t], with Z = sum x x^H,
    q = sum x t* and c = sum |t|^2, and numerics.solve_hpd solves from.
    Every entry is written, Z's upper triangle as given. c defaults to
    q^H pinv(Z) q, the least value that keeps the buffer positive
    semidefinite where Z is, with Z read from its lower triangle."""
    Z = np.asarray(Z, dtype=np.complex128)
    q = np.asarray(q, dtype=np.complex128)
    n = len(q)
    if c is None:
        hermitian = np.tril(Z) + np.tril(Z, -1).conj().T
        c = np.vdot(q, np.linalg.pinv(hermitian, hermitian=True) @ q).real
    gram = np.empty((n + 1, n + 1), dtype=np.complex128, order="F")
    gram[:n, :n] = Z.conj()
    gram[:n, n] = q.conj()
    gram[n, :n] = q
    gram[n, n] = c
    return gram


def pnpwpe_loop(observed, params):
    """Reference of pnpwpe.run_pnpwpe, written from the equations and the
    stop rule of its docstring with each expression's operands in the same
    order, so the two agree byte for byte. Returns (estimate, AdmmState,
    IterationRecord list); S stands for S_hat."""
    wpe = params.wpe
    reference, regressors = prepare(observed, wpe)
    x_ref = reference.values
    s = x_ref
    r = v = p = np.zeros_like(x_ref)
    trace = []
    for _ in range(wpe.iterations):
        sigma = estimate_psd(s, wpe.epsilon)
        lam = 2.0 * sigma / (2.0 + params.rho * sigma)
        targets = x_ref - 0.5 * params.rho * lam * (r + v - p)
        weights, prediction = solve_all_bands(regressors, targets, lam)
        s = x_ref - prediction
        r_tilde = reference.with_values(s - v + p)
        r_old = r
        r = update_r(r_tilde, params.denoiser, params.mu,
                     params.inner_iters).values
        v = s - r + p
        p = p + s - v - r
        error = float(np.mean(np.abs(r - s - v) ** 2))
        trace.append(IterationRecord(error, relative_change(r, r_old)))
        if len(trace) >= 2:
            prev = trace[-2].error
            if (abs(error - prev) / max(prev, 1e-300) < params.stop_tol
                    and trace[-1].change < params.stop_tol):
                break
    state = AdmmState(filters=FilterBank(weights), s_hat=s, r=r, v=v, p=p)
    return reference.with_values(r), state, trace


def image_source_rir_grid(spec, mic_index):
    """Whole-lattice reference of roomsim.image_source_rir: the distance of
    every image in the bounding box of the lattice, the ones within reach
    kept in that box's order and summed tap by tap with np.add.at."""
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
        coords.append(np.concatenate([2.0 * m * size + src[axis],
                                      2.0 * m * size - src[axis]]) - mic[axis])
        orders.append(np.concatenate([2 * np.abs(m), np.abs(2 * m - 1)]))
    dist = np.sqrt(coords[0][:, None, None] ** 2
                   + coords[1][None, :, None] ** 2
                   + coords[2][None, None, :] ** 2).ravel()
    order = (orders[0][:, None, None] + orders[1][None, :, None]
             + orders[2][None, None, :]).ravel()
    mask = dist <= d_max + 1e-9
    dist = dist[mask]
    order = order[mask]
    gain = np.where(order == 0, 1.0, float(reflection) ** order)
    amp = gain / (4.0 * np.pi * np.maximum(dist, 1e-9))
    taps = np.rint(dist / SPEED_OF_SOUND * fs).astype(np.int64)
    keep = taps < spec.rir_length
    rir = np.zeros(spec.rir_length)
    np.add.at(rir, taps[keep], amp[keep])
    return rir


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


def align_direct(reference, estimate, max_shift=1024):
    """Direct-form oracle of metrics.align: (shift, ref trimmed, est trimmed).

    np.correlate over every lag, the lags within +/- max_shift, the first
    maximum; then both arrays trimmed to their overlap.
    """
    ref = np.asarray(reference, dtype=np.float64)
    est = np.asarray(estimate, dtype=np.float64)
    corr = np.correlate(est, ref, mode="full")
    lags = np.arange(-(len(ref) - 1), len(est))
    window = np.abs(lags) <= max_shift
    shift = int(lags[window][np.argmax(corr[window])])
    if shift >= 0:
        ref_al, est_al = ref, est[shift:]
    else:
        ref_al, est_al = ref[-shift:], est
    n = min(len(ref_al), len(est_al))
    return shift, ref_al[:n], est_al[:n]


# --- fuzzing -----------------------------------------------------------------

U32 = st.integers(0, 0xFFFFFFFF)

# Settings of the binary-reader fuzz tests: the same examples on every run,
# each written to the test's tmp_path.
FUZZ_SETTINGS = dict(
    derandomize=True, database=None, max_examples=300, deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture])


def often(draw, usual, other):
    """A draw from usual about seven times in eight, else from other."""
    return draw(draw(st.sampled_from((usual,) * 7 + (other,))))


def cut_short_sometimes(draw, raw):
    """raw, or about one time in eight a prefix of it."""
    return often(draw, st.just(raw),
                 st.integers(0, len(raw)).map(lambda n: raw[:n]))
