import numpy as np
import pytest

from dereverb.errors import AlignmentError, ArgumentError, MetricError
from dereverb.metrics import (FRAME_LEN, HOP, LOG_FLOOR, MetricReport,
                              _fwsegsnr, align, cepstral_distance,
                              evaluate_pair, fw_seg_snr, mel_filterbank)
from dereverb.signals import TimeSignal
from dereverb.stft import hann

from helpers import align_direct

FS = 16000


def _speechy(rng, n=20000):
    t = np.arange(n) / FS
    x = (np.sin(2 * np.pi * 220 * t) + 0.5 * np.sin(2 * np.pi * 440 * t)
         + 0.1 * rng.standard_normal(n))
    env = 0.5 * (1 + np.sin(2 * np.pi * 2.0 * t))
    return TimeSignal(x * env, FS)


# --- fixed points and invariances -------------------------------------------

def test_cd_identical_signals_is_zero():
    x = _speechy(np.random.default_rng(0))
    assert cepstral_distance(x, x) == 0.0


def test_cd_gain_invariant():
    x = _speechy(np.random.default_rng(1))
    doubled = TimeSignal(2.0 * x.samples, FS)
    assert cepstral_distance(x, doubled) < 1e-6


def test_fwsegsnr_identical_signals_is_ceiling():
    x = _speechy(np.random.default_rng(2))
    assert fw_seg_snr(x, x) == 35.0


def test_fwsegsnr_is_continuous_at_zero_error():
    """Bands whose reference energy is under LOG_FLOOR score the same with
    no error as with an error energy of about 1e-30."""
    ref = np.full((1, FRAME_LEN // 2 + 1), 1e-7 + 0j)
    bank = mel_filterbank()
    assert np.all(np.abs(ref) ** 2 @ bank.T < LOG_FLOOR)
    est = ref + 1e-15
    assert np.all(np.abs(ref - est) ** 2 @ bank.T < 1e-28)
    score = _fwsegsnr(ref, ref, FS)
    assert abs(score - 35.0) < 1e-12
    assert _fwsegsnr(ref, est, FS) == score


def test_fwsegsnr_zero_estimate_scores_low():
    x = _speechy(np.random.default_rng(3))
    silent = TimeSignal(np.zeros(len(x)), FS)
    assert fw_seg_snr(x, silent) <= 0.0


def test_cd_symmetric_under_same_mask():
    rng = np.random.default_rng(4)
    x = _speechy(rng)
    y = TimeSignal(x.samples + 0.05 * rng.standard_normal(len(x)), FS)
    # both directions use a mask from their own first argument; use signals
    # with identical frame energies above threshold
    assert abs(cepstral_distance(x, y) - cepstral_distance(y, x)) < 0.2


# --- monotonicity -------------------------------------------------------------

def _with_noise(x, snr_db, seed):
    rng = np.random.default_rng(seed)
    noise = rng.standard_normal(len(x))
    g = np.sqrt(np.mean(x.samples ** 2)
                / (np.mean(noise ** 2) * 10 ** (snr_db / 10)))
    return TimeSignal(x.samples + g * noise, FS)


def test_cd_monotone_in_noise_level():
    x = _speechy(np.random.default_rng(5))
    assert (cepstral_distance(x, _with_noise(x, 0.0, 6))
            > cepstral_distance(x, _with_noise(x, 20.0, 6)))


def test_fwsegsnr_monotone_in_noise_level():
    x = _speechy(np.random.default_rng(7))
    assert (fw_seg_snr(x, _with_noise(x, 20.0, 8))
            > fw_seg_snr(x, _with_noise(x, 0.0, 8)))


# --- oracles -----------------------------------------------------------------

def test_cd_matches_per_frame_oracle():
    rng = np.random.default_rng(9)
    x = _speechy(rng, n=4000)
    y = _with_noise(x, 10.0, 10)
    got = cepstral_distance(x, y)

    window = hann(FRAME_LEN)
    n_frames = (len(x) - FRAME_LEN) // HOP + 1
    energies = []
    frames = []
    for j in range(n_frames):
        fr = x.samples[j * HOP:j * HOP + FRAME_LEN] * window
        fe = y.samples[j * HOP:j * HOP + FRAME_LEN] * window
        energies.append(np.sum(fr ** 2))
        frames.append((fr, fe))
    peak = max(energies)
    dists = []
    for (fr, fe), e in zip(frames, energies):
        if e <= peak * 1e-4:
            continue
        cr = np.fft.irfft(np.log(np.abs(np.fft.rfft(fr)) ** 2 + 1e-10),
                          n=FRAME_LEN)
        ce = np.fft.irfft(np.log(np.abs(np.fft.rfft(fe)) ** 2 + 1e-10),
                          n=FRAME_LEN)
        d = (10 / np.log(10)) * np.sqrt(2 * np.sum((cr[1:25] - ce[1:25]) ** 2))
        dists.append(min(max(d, 0.0), 10.0))
    assert abs(got - np.mean(dists)) < 1e-10


def test_mel_filterbank_structure():
    bank = mel_filterbank()
    assert bank.shape == (23, FRAME_LEN // 2 + 1)
    assert np.all(bank >= 0) and np.all(bank <= 1)
    # every band has support, peaks near its centre, and centres ascend
    peaks = np.argmax(bank, axis=1)
    assert np.all(np.sum(bank, axis=1) > 0)
    assert np.all(np.diff(peaks) > 0)
    # first edge via the HTK mel formula
    mel_max = 2595 * np.log10(1 + 8000 / 700)
    first_centre_hz = 700 * (10 ** (mel_max / 24 / 2595) - 1)
    assert abs(peaks[0] * FS / FRAME_LEN - first_centre_hz) < FS / FRAME_LEN


# --- input validation ----------------------------------------------------------

def test_metric_input_validation():
    x = _speechy(np.random.default_rng(11))
    short = TimeSignal(x.samples[:-5], FS)
    with pytest.raises(ArgumentError):
        cepstral_distance(x, short)
    other_rate = TimeSignal(x.samples, 8000)
    with pytest.raises(ArgumentError):
        fw_seg_snr(x, other_rate)


def test_silent_reference_rejected():
    silent = TimeSignal(np.zeros(4000), FS)
    with pytest.raises(MetricError):
        cepstral_distance(silent, silent)


def test_too_short_signal_rejected():
    tiny = TimeSignal(np.ones(100), FS)
    with pytest.raises(MetricError):
        cepstral_distance(tiny, tiny)


def test_vad_skips_quiet_frames():
    rng = np.random.default_rng(12)
    x = np.zeros(16000)
    x[:4000] = rng.standard_normal(4000)
    x[4000:] = 1e-5 * rng.standard_normal(12000)
    sig = TimeSignal(x, FS)
    report = evaluate_pair(sig, sig)
    total_frames = (len(x) - FRAME_LEN) // HOP + 1
    assert 1 <= report.frames_used < total_frames / 2


# --- alignment -------------------------------------------------------------------

def test_align_detects_shift():
    rng = np.random.default_rng(13)
    x = rng.standard_normal(8000)
    ref = TimeSignal(x, FS)
    est = TimeSignal(np.concatenate([np.zeros(100), x[:-100]]), FS)
    ref_al, est_al = align(ref, est)
    assert np.array_equal(ref_al.samples, est_al.samples)


def test_align_zero_shift_is_identity():
    rng = np.random.default_rng(14)
    x = TimeSignal(rng.standard_normal(5000), FS)
    ref_al, est_al = align(x, x)
    assert np.array_equal(ref_al.samples, x.samples)
    assert np.array_equal(est_al.samples, x.samples)


def test_align_robust_to_noise():
    rng = np.random.default_rng(15)
    x = rng.standard_normal(8000)
    for trial in range(10):
        shift = int(rng.integers(1, 500))
        noisy = np.concatenate([np.zeros(shift), x[:-shift]])
        noisy = noisy + 0.3 * rng.standard_normal(len(noisy))  # ~10 dB
        ref_al, est_al = align(TimeSignal(x, FS), TimeSignal(noisy, FS))
        assert len(ref_al) == 8000 - shift
        resid = est_al.samples - ref_al.samples
        assert np.mean(resid ** 2) < 0.5 * np.mean(x ** 2)


def test_align_rejects_silence():
    x = TimeSignal(np.random.default_rng(16).standard_normal(2000), FS)
    silent = TimeSignal(np.zeros(2000), FS)
    with pytest.raises(AlignmentError):
        align(x, silent)
    with pytest.raises(AlignmentError):
        align(silent, x)


def _assert_align_matches_oracle(x, y, max_shift=1024):
    ref_al, est_al = align(TimeSignal(x, FS), TimeSignal(y, FS), max_shift)
    shift, ref_expected, est_expected = align_direct(x, y, max_shift)
    assert np.array_equal(ref_al.samples, ref_expected)
    assert np.array_equal(est_al.samples, est_expected)
    return shift


def test_align_matches_direct_oracle_for_random_shifts():
    rng = np.random.default_rng(18)
    x = rng.standard_normal(6000)
    for _ in range(8):
        shift = int(rng.integers(-900, 901))
        y = np.roll(x, shift) + 0.3 * rng.standard_normal(len(x))
        assert _assert_align_matches_oracle(x, y) == shift


def test_align_matches_direct_oracle_for_unequal_lengths():
    rng = np.random.default_rng(19)
    x = rng.standard_normal(7500)
    shorter = x[300:5300] + 0.1 * rng.standard_normal(5000)
    assert _assert_align_matches_oracle(x, shorter) == -300
    assert _assert_align_matches_oracle(shorter, x) == 300


def test_align_matches_direct_oracle_below_max_shift():
    rng = np.random.default_rng(20)
    x = rng.standard_normal(500)
    y = np.concatenate([np.zeros(40), x[:260]])
    assert _assert_align_matches_oracle(x, y) == 40
    assert _assert_align_matches_oracle(y, x) == -40


@pytest.mark.parametrize("longer", ["reference", "estimate"])
@pytest.mark.parametrize("reach", [4095, 4096, 4097])
def test_align_matches_direct_oracle_around_a_power_of_two(reach, longer):
    """max(len) + max_shift just below, at and just above 4096, where align's
    FFT length steps from 4096 to 8192; true shifts include both edges of
    the +/- max_shift window."""
    max_shift = 100
    n_long = reach - max_shift
    n_short = n_long - 150
    rng = np.random.default_rng(reach)
    base = rng.standard_normal(n_long + 2 * max_shift)
    long_part = base[max_shift:max_shift + n_long]
    for shift in (-max_shift, -37, 0, 58, max_shift):
        start = max_shift + shift
        short_part = (base[start:start + n_short]
                      + 0.1 * rng.standard_normal(n_short))
        if longer == "reference":
            assert _assert_align_matches_oracle(
                long_part, short_part, max_shift) == -shift
        else:
            assert _assert_align_matches_oracle(
                short_part, long_part, max_shift) == shift


@pytest.mark.parametrize("n", [3997, 4076, 4096])
def test_align_window_never_sees_a_wrapped_lag(n):
    """The only correlation sits at lag -/+(4096 - 100), which a circular
    correlation of 4096 points would fold onto the window's edge, lag
    +/-100. With n + 100 above 4096, align's FFT must be long enough to
    keep it out."""
    width = n + 100 - 4096
    pattern = np.random.default_rng(n).standard_normal(width)
    early = np.zeros(n)
    late = np.zeros(n)
    early[:width] = pattern
    late[-width:] = pattern
    for ref, est in ((late, early), (early, late)):
        with pytest.raises(AlignmentError):
            align(TimeSignal(ref, FS), TimeSignal(est, FS), max_shift=100)


def test_align_rejects_correlation_outside_window_at_any_length():
    rng = np.random.default_rng(21)
    for n in (300, 3000, 30000):
        x = np.zeros(n)
        y = np.zeros(n)
        x[:50] = rng.standard_normal(50)
        y[-50:] = rng.standard_normal(50)
        with pytest.raises(AlignmentError):
            align(TimeSignal(x, FS), TimeSignal(y, FS), max_shift=100)


def test_evaluate_pair_equals_the_metrics_of_the_aligned_pair():
    """evaluate_pair shares one rfft a frame between CD and F-SNR; its
    scores are exactly those of the two metric functions on align's
    output."""
    rng = np.random.default_rng(23)
    x = _speechy(rng)
    est = TimeSignal(np.concatenate([np.zeros(90), 0.8 * x.samples[:-120]])
                     + 0.2 * rng.standard_normal(len(x) - 30), FS)
    report = evaluate_pair(x, est)
    ref_al, est_al = align(x, est)
    assert 0.0 < report.cd < 10.0 and -10.0 < report.fwsegsnr < 35.0
    assert report.cd == cepstral_distance(ref_al, est_al)
    assert report.fwsegsnr == fw_seg_snr(ref_al, est_al)


def test_evaluate_pair_aligned_copy():
    x = _speechy(np.random.default_rng(17))
    shifted = TimeSignal(np.concatenate([np.zeros(64), x.samples[:-64]]), FS)
    report = evaluate_pair(x, shifted)
    assert isinstance(report, MetricReport)
    assert report.cd < 1e-6
    assert report.fwsegsnr == 35.0
    assert report.frames_used >= 1
