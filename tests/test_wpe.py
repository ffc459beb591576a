import contextlib
import sys
import threading
import tracemalloc
import warnings

import numpy as np
import pytest

from dereverb import numerics, wpe
from dereverb.denoisers import (IdentityDenoiser, SoftThresholdDenoiser,
                                WienerDenoiser)
from dereverb.errors import ArgumentError, SingularBandError
from dereverb.numerics import solve_hpd
from dereverb.pnpwpe import PnpParams, run_pnpwpe
from dereverb.roomsim import EARLY_WINDOW_S
from dereverb.stft import (MultichannelSpectrogram, StftConfig, analyze,
                           analyze_multichannel, synthesize)
from dereverb.wpe import (IterationRecord, WpeParams, prepare,
                          relative_change, run_wpe, solve_all_bands,
                          stack_regressors)
from helpers import (SMALL, accumulate_batch, augmented_gram,
                     build_regressor, make_scene, mc_spec, predict, random_mc,
                     regressor_block, stack_channels)


# --- regressor construction -------------------------------------------------

def test_build_regressor_direct_read():
    rng = np.random.default_rng(0)
    spec = random_mc(rng, 2, 6)
    obs = stack_channels(spec)
    d = 3
    v = build_regressor(spec, d, 2, delay=d, order=1)
    assert v.tolist() == [obs[0, 0, 2], obs[1, 0, 2]]


def test_build_regressor_boundary_zero_fill():
    rng = np.random.default_rng(1)
    spec = random_mc(rng, 3, 6)
    for d in (1, 2, 5):
        assert np.all(build_regressor(spec, 0, 1, delay=d, order=4) == 0)


def test_build_regressor_index_arithmetic():
    rng = np.random.default_rng(2)
    spec = random_mc(rng, 1, 8)
    obs = stack_channels(spec)
    v = build_regressor(spec, 5, 0, delay=2, order=3)
    assert v.tolist() == [obs[0, 3, 0], obs[0, 2, 0], obs[0, 1, 0]]


def test_stack_matches_per_frame_loop():
    rng = np.random.default_rng(3)
    spec = random_mc(rng, 2, 12)
    obs = stack_channels(spec)
    delay, order = 2, 3
    taps = stack_regressors(obs, delay, order)
    assert taps.shape == (SMALL.num_bins, order * 2, spec.num_frames)
    for n in range(spec.num_frames):
        for k in range(SMALL.num_bins):
            expected = build_regressor(spec, n, k, delay, order)
            assert np.array_equal(regressor_block(taps, k, k + 1)[0, :, n],
                                  expected)


def test_stack_holds_only_the_padded_observation():
    obs = np.zeros((2, 12, SMALL.num_bins), dtype=np.complex128)
    taps = stack_regressors(obs, delay=2, order=3)
    assert taps.nbytes == obs.nbytes * (12 + 3 - 1) // 12


# --- PSD estimate -----------------------------------------------------------

@pytest.mark.parametrize("floor_share", [0.0, 0.03])
def test_prepare_holds_one_copy_of_the_observation(floor_share):
    # the regressors' zero-padded copy is read from the channels in place,
    # with no stacked (Q, frames, bins) copy beside it, and the per-bin
    # floor's |X_ref|^2 is freed before that copy is made
    spec = random_mc(np.random.default_rng(19), 4, 501, StftConfig())
    tracemalloc.start()
    try:
        _, regressors, _ = prepare(
            spec, WpeParams(filter_order=10, floor_share=floor_share))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.1 * regressors.nbytes


def _prepare_psd(**params):
    """prepare's psd on a two-channel scene whose reference bins hold mean
    powers 0, 1, 5, 2 and 0."""
    x_ref = np.array([[0.0, 1.0, 3.0j, 2.0, 0.0], [0.0, 1.0j, 1.0, 0.0, 0.0]])
    spec = mc_spec(np.stack([x_ref, x_ref]))
    return prepare(spec, WpeParams(filter_order=1, delay=1, **params))[2]


def test_estimate_psd_floor_and_passthrough():
    """prepare's psd is max(|S|^2, floor): above the floor, |S|^2 passes
    through."""
    values = np.array([[0.0, np.sqrt(0.5), 3 + 4j, 0.0, 1.0]])
    absolute = _prepare_psd(epsilon=1e-4)(values)
    assert absolute[0, [0, 3]].tolist() == [1e-4, 1e-4]
    assert abs(absolute[0, 1] - 0.5) < 1e-15
    assert absolute[0, [2, 4]].tolist() == [25.0, 1.0]
    # a floor per bin, for every frame
    per_bin = _prepare_psd(epsilon=1e-3, floor_share=0.1)
    assert per_bin(np.vstack([values, values])).tolist() == [
        [1e-3, absolute[0, 1], 25.0, 0.1 * 2.0, 1.0]] * 2


def test_psd_floor_is_epsilon_or_a_share_of_each_bins_mean_power():
    """The floor is epsilon at share 0, else the share of each bin's mean
    |X_ref|^2, and epsilon in a bin where that is 0."""
    zeros = np.zeros((2, 5))
    assert _prepare_psd(epsilon=1e-3)(zeros).tolist() == [[1e-3] * 5] * 2
    floor = [1e-3, 0.1 * 1.0, 0.1 * 5.0, 0.1 * 2.0, 1e-3]
    per_bin = _prepare_psd(epsilon=1e-3, floor_share=0.1)
    assert per_bin(zeros).tolist() == [floor] * 2
    for share in (-0.1, np.inf, np.nan):
        with pytest.raises(ArgumentError):
            WpeParams(floor_share=share)


# --- per-band solve ---------------------------------------------------------

def test_solve_all_bands_matches_per_band_oracle():
    rng = np.random.default_rng(4)
    n_frames = 50
    spec = random_mc(rng, 3, n_frames)
    taps = stack_regressors(stack_channels(spec), delay=2, order=1)
    targets = (rng.standard_normal((n_frames, SMALL.num_bins))
               + 1j * rng.standard_normal((n_frames, SMALL.num_bins)))
    weights = rng.uniform(0.5, 2.0, (n_frames, SMALL.num_bins))
    filters, _ = solve_all_bands(taps, targets, weights)
    for k in range(SMALL.num_bins):
        vectors = regressor_block(taps, k, k + 1)[0].T
        ne = accumulate_batch(vectors, targets[:, k], weights[:, k])
        oracle = solve_hpd(augmented_gram(ne.Z, ne.q))
        assert np.allclose(filters[k], oracle, rtol=1e-10, atol=1e-12)


def test_solve_all_bands_matches_per_frame_oracle():
    rng = np.random.default_rng(14)
    delay, order, n_frames = 2, 3, 40
    spec = random_mc(rng, 3, n_frames)
    taps = stack_regressors(stack_channels(spec), delay, order)
    targets = spec.channels[0].values
    weights = rng.uniform(0.5, 2.0, (n_frames, SMALL.num_bins))
    filters, prediction = solve_all_bands(taps, targets, weights)
    for k in range(SMALL.num_bins):
        vectors = np.array([build_regressor(spec, n, k, delay, order)
                            for n in range(n_frames)])
        ne = accumulate_batch(vectors, targets[:, k], weights[:, k])
        oracle = solve_hpd(augmented_gram(ne.Z, ne.q))
        np.testing.assert_allclose(filters[k], oracle, rtol=1e-10)
        np.testing.assert_allclose(prediction[:, k],
                                   vectors @ oracle.conj(), rtol=1e-10)


def test_solve_all_bands_reports_failing_band():
    obs = np.ones((2, 10, 3), dtype=np.complex128)
    obs[:, :, 2] = np.nan
    taps = stack_regressors(obs, delay=1, order=1)
    targets = np.ones((10, 3), dtype=np.complex128)
    weights = np.ones((10, 3))
    with pytest.raises(SingularBandError, match=r"^band 2: "):
        solve_all_bands(taps, targets, weights)


def test_failing_band_is_named_in_the_message():
    obs = np.ones((2, 10, 3), dtype=np.complex128)
    obs[:, :, 1] = np.nan
    taps = stack_regressors(obs, delay=1, order=1)
    with pytest.raises(SingularBandError, match=r"\bband 1\b"):
        solve_all_bands(taps, np.ones((10, 3)), np.ones((10, 3)))


def test_fused_prediction_matches_unscaled_predict():
    # weights over eight decades: the prediction is made from rows scaled
    # by 1/sqrt(weight) and unscaled afterwards, against w^H x made from
    # the unscaled per-frame regressors
    rng = np.random.default_rng(17)
    delay, order, n_frames = 2, 3, 40
    spec = random_mc(rng, 3, n_frames)
    taps = stack_regressors(stack_channels(spec), delay, order)
    targets = spec.channels[0].values
    weights = 10.0 ** rng.uniform(-4, 4, (n_frames, SMALL.num_bins))
    filters, prediction = solve_all_bands(taps, targets, weights)
    np.testing.assert_allclose(prediction,
                               predict(spec, filters, delay, order),
                               rtol=1e-10)


def test_failing_target_band_reports_its_index():
    rng = np.random.default_rng(15)
    spec = random_mc(rng, 2, 12)
    taps = stack_regressors(stack_channels(spec), delay=1, order=1)
    targets = spec.channels[0].values.copy()
    targets[:, 3] = np.nan
    with pytest.raises(SingularBandError, match=r"^band 3: "):
        solve_all_bands(taps, targets, np.ones(targets.shape))


# --- worker threads ---------------------------------------------------------

def _band_problem(seed, n_bins, n_ch=2, n_frames=30):
    """Regressors (D=1, L=2), targets and weights of a random problem."""
    rng = np.random.default_rng(seed)
    obs = (rng.standard_normal((n_ch, n_frames, n_bins))
           + 1j * rng.standard_normal((n_ch, n_frames, n_bins)))
    weights = rng.uniform(0.5, 2.0, (n_frames, n_bins))
    return stack_regressors(obs, delay=1, order=2), obs[0], weights


def _blas_count():
    """numpy's OpenBLAS thread count, 1 where openblas() finds none."""
    library = numerics.openblas()
    return library.openblas_get_num_threads() if library else 1


def _workers(monkeypatch, workers):
    """Makes solve_all_bands run `workers` threads: its hold yields that
    count from inside numerics' real one_blas_thread."""
    @contextlib.contextmanager
    def hold():
        with numerics.one_blas_thread():
            yield workers

    monkeypatch.setattr(wpe, "one_blas_thread", hold)


@pytest.mark.parametrize("n_bins", [3, 40])
def test_solve_all_bands_is_bit_identical_for_any_worker_count(monkeypatch,
                                                               n_bins):
    # 5 workers on 3 bins: one per bin
    problem = _band_problem(20, n_bins)
    solvers = []

    def recording_solve(gram):
        solvers.append(threading.current_thread())
        return solve_hpd(gram)

    monkeypatch.setattr(numerics, "solve_hpd", recording_solve)
    blas_before = _blas_count()
    results = set()
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)  # threads swap as often as they can
    try:
        for workers in (1, 2, 3, 5):
            _workers(monkeypatch, workers)
            solvers.clear()
            filters, prediction = solve_all_bands(*problem)
            assert len(solvers) == n_bins
            assert len(set(solvers)) == min(workers, n_bins)
            assert _blas_count() == blas_before
            results.add(filters.tobytes() + prediction.tobytes())
    finally:
        sys.setswitchinterval(interval)
    assert len(results) == 1


@pytest.mark.parametrize("failing, named", [
    ({10}, 10),            # in the last range only
    ({1, 4, 7, 10}, 1),    # in every range
])
def test_failing_band_in_a_worker_range(monkeypatch, failing, named):
    # 4 workers over 12 bins: bins 0-2, 3-5, 6-8 and 9-11
    regressors, targets, weights = _band_problem(21, 12)
    targets = targets.copy()
    targets[:, sorted(failing)] = 0.0
    calls = []

    def failing_solve(gram):
        calls.append((threading.current_thread(), _blas_count()))
        if not gram[-1, :-1].any():  # only the bands with zero targets
            raise SingularBandError("made to fail")
        return solve_hpd(gram)

    monkeypatch.setattr(numerics, "solve_hpd", failing_solve)
    _workers(monkeypatch, 4)
    blas_before = _blas_count()
    running = set(threading.enumerate())
    with pytest.raises(SingularBandError, match=rf"^band {named}: "):
        solve_all_bands(regressors, targets, weights)
    solvers = {thread for thread, _ in calls}
    assert len(solvers) == 4
    assert not any(thread.is_alive() for thread in solvers - running)
    assert set(threading.enumerate()) == running
    assert _blas_count() == blas_before
    assert {threads for _, threads in calls} == {1}


def test_a_solve_overlapping_a_blas_hold_waits_for_it(monkeypatch):
    """A solve started while another thread holds one_blas_thread waits
    for that hold to end, then runs at the configured worker count with
    every band at one BLAS thread, and the count is restored after both."""
    library = numerics.openblas()
    if library is None:
        pytest.skip("no OpenBLAS to hold")
    calls = []

    def recording_solve(gram):
        calls.append((threading.current_thread(),
                      library.openblas_get_num_threads()))
        return solve_hpd(gram)

    monkeypatch.setattr(numerics, "solve_hpd", recording_solve)
    problem = _band_problem(22, 6)
    held, solved = threading.Event(), threading.Event()
    overlapped = []

    def hold():
        with numerics.one_blas_thread():
            held.set()
            # the solve finishes inside this hold only if it skips the hold
            overlapped.append(solved.wait(timeout=0.5))

    def solve():
        solve_all_bands(*problem)
        solved.set()

    configured = library.openblas_get_num_threads()
    library.openblas_set_num_threads(2)
    try:
        holder = threading.Thread(target=hold)
        holder.start()
        assert held.wait(timeout=1.0)
        solver = threading.Thread(target=solve)
        solver.start()
        holder.join(timeout=1.0)
        solver.join(timeout=1.0)
        assert not holder.is_alive() and not solver.is_alive()
        assert solved.is_set() and len(calls) == 6
        assert {threads for _, threads in calls} == {1}
        assert len({thread for thread, _ in calls}) == 2  # the workers
        assert library.openblas_get_num_threads() == 2
        assert overlapped == [False]
    finally:
        library.openblas_set_num_threads(configured)


def test_solve_all_bands_takes_each_worker_buffer_address_once(monkeypatch):
    # a4-shaped: 257 bins, 4 channels at L = 10, 501 frames, two workers.
    # Each band_solver takes its two buffers' addresses when it is made;
    # per band, only solve_hpd takes two (the Gram and its last row)
    rng = np.random.default_rng(23)
    obs = (rng.standard_normal((4, 501, 257))
           + 1j * rng.standard_normal((4, 501, 257)))
    regressors = stack_regressors(obs, delay=6, order=10)
    weights = rng.uniform(0.5, 2.0, (501, 257))
    taken = []
    address = numerics._address

    def counting_address(array):
        taken.append(array.shape)
        return address(array)

    monkeypatch.setattr(numerics, "_address", counting_address)
    _workers(monkeypatch, 2)
    solve_all_bands(regressors, obs[0], weights)
    assert len(taken) <= 2 * 257 + 2 * 2


def test_solve_all_bands_works_in_one_band_of_memory(monkeypatch):
    # many bins of short rows: beyond its outputs (filters, prediction and
    # the (bins, frames) scale), each of the two worker threads holds one
    # band's scaled rows at a time, plus numpy's casting buffer of
    # np.getbufsize() complex elements for the final unscaling
    _workers(monkeypatch, 2)
    rng = np.random.default_rng(18)
    config = StftConfig()
    delay, order, n_frames = 2, 2, 200
    spec = random_mc(rng, 2, n_frames, config)
    taps = stack_regressors(stack_channels(spec), delay, order)
    targets = spec.channels[0].values
    weights = rng.uniform(0.5, 2.0, (n_frames, config.num_bins))
    solve_all_bands(taps, targets, weights)  # loads the BLAS module
    tracemalloc.start()
    try:
        filters, prediction = solve_all_bands(taps, targets, weights)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    band = 16 * (taps.shape[1] + 1) * n_frames
    working = peak - filters.nbytes - prediction.nbytes - weights.nbytes
    assert working <= 4 * band + 16 * np.getbufsize()


# --- run_wpe ----------------------------------------------------------------

def test_early_frames_pass_through_unchanged():
    # frames before the delay have all-zero regressors for any filter
    rng = np.random.default_rng(8)
    spec = random_mc(rng, 2, 12)
    out, filters, _ = run_wpe(spec, WpeParams(filter_order=1, delay=3,
                                              iterations=2))
    ref = spec.channels[0].values
    assert np.any(filters.weights != 0)
    assert np.array_equal(out.values[:3], ref[:3])


def _ar_scene(rng, n_frames=60, delay=2, config=SMALL):
    """Per-band AR recursion X(n) = S(n) + c*X(n-D) with S supported on
    the first D frames only, so the prediction system is exactly
    consistent and the true filter is recoverable."""
    n_bins = config.num_bins
    c = 0.9 * np.exp(2j * np.pi * rng.uniform(size=n_bins))
    s = np.zeros((n_frames, n_bins), dtype=np.complex128)
    s[:delay] = (rng.standard_normal((delay, n_bins))
                 + 1j * rng.standard_normal((delay, n_bins)))
    x = np.zeros_like(s)
    for n in range(n_frames):
        x[n] = s[n] + (c * x[n - delay] if n >= delay else 0.0)
    return mc_spec(x[None, :, :], config), s, c


def test_run_wpe_recovers_ar_filter():
    rng = np.random.default_rng(9)
    spec, s, c = _ar_scene(rng)
    params = WpeParams(filter_order=1, delay=2, iterations=2)
    estimate, filters, trace = run_wpe(spec, params)
    assert np.max(np.abs(filters.weights[:, 0] - c.conj())) < 1e-6
    assert np.max(np.abs(estimate.values - s)) < 1e-6
    assert len(trace) == 2


def test_run_wpe_records_residual_power_and_change_of_s_hat():
    rng = np.random.default_rng(17)
    spec = random_mc(rng, 2, 30)
    first, _, one = run_wpe(spec, WpeParams(filter_order=2, iterations=1))
    estimate, _, trace = run_wpe(spec, WpeParams(filter_order=2,
                                                 iterations=3))
    assert all(isinstance(record, IterationRecord) for record in trace)
    # the first iteration compares S_hat with the observed reference
    ref = spec.channels[0].values
    assert trace[0] == one[0]
    assert trace[0].change == relative_change(first.values, ref)
    assert trace[-1].error == float(np.mean(np.abs(estimate.values) ** 2))


def test_relative_change_of_a_zero_estimate():
    zero = np.zeros((3, 5), dtype=np.complex128)
    ones = np.ones((3, 5), dtype=np.complex128)
    assert relative_change(ones, zero) == np.inf
    assert relative_change(zero, zero) == 0.0
    assert relative_change(zero, ones) == 1.0
    assert relative_change(3 * ones, ones) == 2.0


def test_run_wpe_null_on_unpredictable_input():
    # support gated so every regressor frame is zero whenever the target
    # frame is nonzero: the cross term q vanishes and the filters are zero
    rng = np.random.default_rng(11)
    n_frames, n_ch = 40, 2
    arr = np.zeros((n_ch, n_frames, SMALL.num_bins), dtype=np.complex128)
    live = np.arange(n_frames) % 4 == 0
    arr[:, live, :] = (rng.standard_normal((n_ch, live.sum(), SMALL.num_bins))
                       + 1j * rng.standard_normal((n_ch, live.sum(),
                                                   SMALL.num_bins)))
    spec = mc_spec(arr)
    params = WpeParams(filter_order=2, delay=2, iterations=3)
    estimate, filters, _ = run_wpe(spec, params)
    assert np.max(np.abs(filters.weights)) <= 1e-5
    ref = spec.channels[0].values
    assert np.max(np.abs(estimate.values - ref)) <= 1e-6 * np.max(np.abs(ref))


def test_run_wpe_zero_input():
    spec = mc_spec(np.zeros((2, 10, SMALL.num_bins), dtype=np.complex128))
    for floor_share in (0.0, 0.03):  # every bin silent: epsilon's floor
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            estimate, filters, _ = run_wpe(spec, WpeParams(
                filter_order=2, delay=2, iterations=1,
                floor_share=floor_share))
        assert np.all(estimate.values == 0)
        assert np.all(filters.weights == 0)


def test_run_wpe_objective_does_not_increase():
    # with sigma frozen from the previous iterate, the solved filter can
    # only lower the weighted residual cost relative to the zero filter
    rng = np.random.default_rng(12)
    spec = random_mc(rng, 2, 40)
    obs = stack_channels(spec)
    ref = obs[0]
    params = WpeParams(filter_order=2, delay=2, epsilon=1e-4, iterations=1)
    sigma = np.maximum(np.abs(ref) ** 2, params.epsilon)
    taps = stack_regressors(obs, params.delay, params.filter_order)
    w, _ = solve_all_bands(taps, ref, sigma)
    block = regressor_block(taps, 0, SMALL.num_bins)
    residual = ref - np.einsum("ki,kin->nk", w.conj(), block)
    cost_before = np.sum(np.abs(ref) ** 2 / sigma)
    cost_after = np.sum(np.abs(residual) ** 2 / sigma)
    assert cost_after <= cost_before + 1e-10


@pytest.mark.parametrize("preset, noise_kind, seed, order, floor_share", [
    pytest.param(*case, share,
                 id="-".join(map(str, case)) + (f"-share{share}" if share
                                                else ""))
    for case in [("A", "none", 0, 10), ("B", "wgn", 0, 20),
                 ("A", "wgn", 1, 10), ("B", "none", 1, 20)]
    for share in (0.0, 0.03)
])
def test_run_wpe_descends_its_objective_at_every_half_step(
        monkeypatch, preset, noise_kind, seed, order, floor_share):
    """run_wpe is coordinate descent on L = mean(|S_hat|^2 / sigma + ln
    sigma), sigma >= floor_k, the floor of the run's psd in bin k. Each sigma
    update lands at L's minimum over sigma, as |S_hat|^2 / sigma + ln sigma
    is least at max(|S_hat|^2, floor_k), and each band solve minimises L
    over the filter, up to the diagonal loading; so L falls at every
    half-step. Both hold within a slack relative to LOADING. Each
    iteration's sigma and prediction are taken from its solve_all_bands
    call."""
    scene = make_scene(preset, seed=seed, noise_kind=noise_kind,
                       duration=3.0)
    observed = analyze_multichannel(scene.observed)
    params = WpeParams(filter_order=order, iterations=6,
                       floor_share=floor_share)
    calls = []

    def recording_solve_all_bands(regressors, targets, weights):
        filters, prediction = solve_all_bands(regressors, targets, weights)
        calls.append((weights, prediction))
        return filters, prediction

    monkeypatch.setattr(wpe, "solve_all_bands", recording_solve_all_bands)
    run_wpe(observed, params)
    assert len(calls) == params.iterations

    def objective(s_hat, sigma):
        return np.mean(np.abs(s_hat) ** 2 / sigma + np.log(sigma))

    def slack(value):
        return 1e3 * numerics.LOADING * abs(value)

    ref = observed.channels[0].values
    floor = prepare(observed, params)[2](np.zeros_like(ref))
    s_hat, values = ref, []
    for sigma, prediction in calls:
        assert np.all(sigma >= floor)
        least = objective(s_hat, np.maximum(np.abs(s_hat) ** 2, floor))
        values.append(objective(s_hat, sigma))  # after the sigma update
        assert values[-1] <= least + slack(least)
        s_hat = ref - prediction
        values.append(objective(s_hat, sigma))  # after the filter update
    for before, after in zip(values, values[1:]):
        assert after <= before + slack(before)


def test_run_wpe_memory_stays_bounded():
    # the full (bins, L*Q, frames) regressor tensor would be 549 MiB
    rng = np.random.default_rng(16)
    config = StftConfig()
    spec = random_mc(rng, 4, 1000, config)
    params = WpeParams(filter_order=35, iterations=1)
    full = 16 * config.num_bins * 35 * 4 * 1000
    tracemalloc.start()
    try:
        run_wpe(spec, params)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < full / 8


def _si_sdr(reference, estimate):
    target = reference * (np.dot(estimate, reference)
                          / np.dot(reference, reference))
    return 10 * np.log10(np.sum(target ** 2)
                         / np.sum((estimate - target) ** 2))


def test_oracle_weights_beat_run_wpe_by_3_db():
    """The weights path keeps its headroom: one solve with the oracle
    weights psd(S_ref) of the clean reference, from the run's own psd,
    beats run_wpe on SI-SDR (17.4 against 11.7 dB on this scene)."""
    scene = make_scene("A", seed=0, noise_kind="none")
    params = WpeParams(filter_order=10, delay=6, iterations=3)
    observed = analyze_multichannel(scene.observed)
    reference, regressors, psd = prepare(observed, params)
    weights = psd(analyze(scene.reference).values)
    _, prediction = solve_all_bands(regressors, reference.values, weights)
    oracle = synthesize(reference.with_values(reference.values - prediction))
    estimate = synthesize(run_wpe(observed, params)[0])
    clean = scene.reference.samples[512:]
    assert (_si_sdr(clean, oracle.samples[512:])
            >= _si_sdr(clean, estimate.samples[512:]) + 3.0)


def _level_change(run, observed, params, gain):
    """The relative change of run(g*X)/g against run(X), for the estimate
    spectrogram that run returns first."""
    scaled = MultichannelSpectrogram(tuple(
        ch.with_values(gain * ch.values) for ch in observed.channels))
    estimate = run(observed, params)[0].values
    return relative_change(run(scaled, params)[0].values / gain, estimate)


@pytest.fixture(scope="module")
def level_observed():
    return analyze_multichannel(make_scene("A", seed=0, duration=3.0).observed)


@pytest.mark.parametrize("floor_share", [
    pytest.param(0.0, marks=pytest.mark.xfail(strict=True, reason=(
        "ROADMAP item 22: the absolute floor epsilon pins most weights, so "
        "WPE's answer depends on the input's level"))),
    0.03,
], ids=["absolute-floor", "per-bin-floor"])
@pytest.mark.parametrize("gain", [1e-2, 1e2])
def test_run_wpe_answer_does_not_depend_on_the_input_level(
        level_observed, gain, floor_share):
    """A WAV's level is arbitrary: run_wpe of g*X, divided by g, is run_wpe
    of X to 1e-6 relative. The per-bin floor scales with g^2, as every
    weight does."""
    params = WpeParams(filter_order=10, iterations=2, floor_share=floor_share)
    assert _level_change(run_wpe, level_observed, params, gain) <= 1e-6


@pytest.mark.xfail(strict=True, reason=(
    "ROADMAP item 3: rho is absolute, so PnPWPE's answer depends on the "
    "input's level"))
@pytest.mark.parametrize("denoiser", [
    IdentityDenoiser(), WienerDenoiser(0.3, 0.1), SoftThresholdDenoiser(0.5),
], ids=["identity", "wiener", "soft_threshold"])
@pytest.mark.parametrize("gain", [1e-2, 1e2])
def test_run_pnpwpe_answer_does_not_depend_on_the_input_level(
        level_observed, gain, denoiser):
    """As run_wpe's, on the per-bin floor, so that only rho is absolute."""
    params = PnpParams(wpe=WpeParams(filter_order=10, iterations=2,
                                     floor_share=0.03), denoiser=denoiser)
    assert _level_change(run_pnpwpe, level_observed, params, gain) <= 1e-6


def test_run_wpe_validates_inputs():
    rng = np.random.default_rng(13)
    spec = random_mc(rng, 2, 4)
    with pytest.raises(ArgumentError):
        run_wpe(spec, WpeParams(delay=5))
    with pytest.raises(ArgumentError):
        run_wpe(spec, WpeParams(delay=2, reference_channel=2))


def test_default_delay_is_the_last_frame_inside_the_early_window():
    assert WpeParams.delay == round(EARLY_WINDOW_S * 16000) // StftConfig.hop


def test_wpe_params_invariants():
    with pytest.raises(ArgumentError):
        WpeParams(filter_order=0)
    with pytest.raises(ArgumentError):
        WpeParams(delay=0)
    for epsilon in (0.0, np.inf, np.nan):
        with pytest.raises(ArgumentError):
            WpeParams(epsilon=epsilon)
    with pytest.raises(ArgumentError):
        WpeParams(iterations=0)
