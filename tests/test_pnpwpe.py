import numpy as np
import pytest

from dereverb import pnpwpe, wpe
from dereverb.denoisers import (IdentityDenoiser, SoftThresholdDenoiser,
                                WienerDenoiser)
from dereverb.errors import ArgumentError
from dereverb.pnpwpe import PnpParams, plateau_iteration, run_pnpwpe, update_r
from dereverb.signals import MultichannelTimeSignal
from dereverb.stft import (Spectrogram, StftConfig, analyze_multichannel,
                           synthesize)
from dereverb.wpe import (IterationRecord, WpeParams, prepare, run_wpe,
                          solve_all_bands, stack_regressors)
from helpers import (SMALL, mc_spec, pnpwpe_loop, random_mc, small_spec,
                     stack_channels)


def _random_matrix(rng, n=4):
    return (rng.standard_normal((n, SMALL.num_bins))
            + 1j * rng.standard_normal((n, SMALL.num_bins)))


# --- parameters -------------------------------------------------------------

def test_params_validation():
    for rho in (0.0, np.inf, np.nan):
        with pytest.raises(ArgumentError):
            PnpParams(rho=rho)
    with pytest.raises(ArgumentError):
        PnpParams(mu=0.0)
    with pytest.raises(ArgumentError):
        PnpParams(mu=1.5)
    with pytest.raises(ArgumentError):
        PnpParams(inner_iters=0)
    for stop_tol in (-1.0, np.inf, np.nan):
        with pytest.raises(ArgumentError):
            PnpParams(stop_tol=stop_tol)


# --- the iteration ----------------------------------------------------------

def _recorded_run(monkeypatch, observed, params):
    """run_pnpwpe with the sigma of each iteration and the targets and
    weights of each band solve recorded: (its output, sigmas, solves)."""
    sigmas, solves = [], []

    def psd(s_hat, epsilon):
        sigmas.append(wpe.estimate_psd(s_hat, epsilon))
        return sigmas[-1]

    def solve(regressors, targets, weights):
        solves.append((targets, weights))
        return wpe.solve_all_bands(regressors, targets, weights)

    monkeypatch.setattr(pnpwpe, "estimate_psd", psd)
    monkeypatch.setattr(pnpwpe, "solve_all_bands", solve)
    return run_pnpwpe(observed, params), sigmas, solves


class _Recording:
    """A denoiser that records each input of an inner one it calls."""

    def __init__(self, inner):
        self.inner = inner
        self.inputs = []

    def denoise(self, spec):
        self.inputs.append(spec.values)
        return self.inner.denoise(spec)


@pytest.mark.parametrize(
    "denoiser, iterations, inner_iters, stop_tol, floor_share", [
        (WienerDenoiser(0.3, 0.1), 5, 2, 0.0, 0.0),
        (SoftThresholdDenoiser(0.5), 5, 2, 0.0, 0.0),
        (WienerDenoiser(0.3, 0.1), 40, 1, 0.05, 0.0),
        (WienerDenoiser(0.3, 0.1), 5, 2, 0.0, 0.03),
    ], ids=["wiener", "soft_threshold", "wiener_stops", "wiener_floor_share"])
def test_run_pnpwpe_matches_the_reference_loop_byte_for_byte(
        denoiser, iterations, inner_iters, stop_tol, floor_share):
    spec = random_mc(np.random.default_rng(14))
    params = _params(iterations=iterations, inner_iters=inner_iters,
                     stop_tol=stop_tol, rho=0.7, denoiser=denoiser,
                     floor_share=floor_share)
    estimate, state, trace = run_pnpwpe(spec, params)
    ref_estimate, ref_state, ref_trace = pnpwpe_loop(spec, params)
    if stop_tol:
        assert len(trace) < iterations  # the stop rule fired
    assert estimate.values.tobytes() == ref_estimate.values.tobytes()
    for name in ("s_hat", "r", "v", "p"):
        assert getattr(state, name).tobytes() == \
            getattr(ref_state, name).tobytes(), name
    assert (state.filters.weights.tobytes()
            == ref_state.filters.weights.tobytes())
    records = [[record.error, record.change] for record in trace]
    ref_records = [[record.error, record.change] for record in ref_trace]
    assert np.array(records).tobytes() == np.array(ref_records).tobytes()


def test_lambda_closed_form(monkeypatch):
    spec = random_mc(np.random.default_rng(0))
    params = _params(iterations=3, stop_tol=0.0, rho=0.3,
                     denoiser=WienerDenoiser(0.3, 0.1))
    _, sigmas, solves = _recorded_run(monkeypatch, spec, params)
    assert len(sigmas) == len(solves) == 3
    for sigma, (_, lam) in zip(sigmas, solves):
        assert np.array_equal(lam, 2.0 * sigma / (2.0 + 0.3 * sigma))


def test_lambda_small_rho_limit(monkeypatch):
    spec = random_mc(np.random.default_rng(1))
    _, sigmas, solves = _recorded_run(monkeypatch, spec, _params(
        iterations=3, stop_tol=0.0, rho=1e-12))
    for sigma, (_, lam) in zip(sigmas, solves):
        assert np.all(np.abs(lam - sigma) < 1e-9 * sigma)


def test_lambda_large_sigma_limit(monkeypatch):
    spec = random_mc(np.random.default_rng(2))
    loud = mc_spec(1e7 * stack_channels(spec))
    _, sigmas, solves = _recorded_run(monkeypatch, loud, _params(rho=0.1))
    sigma, (_, lam) = sigmas[0], solves[0]
    large = sigma > 1e12
    assert np.count_nonzero(large) > large.size // 2
    assert np.all(np.abs(lam[large] - 20.0) < 1e-9 * 20.0)


def test_lambda_bounds(monkeypatch):
    spec = random_mc(np.random.default_rng(3))
    for rho in (0.01, 0.1, 1.0):
        _, sigmas, solves = _recorded_run(monkeypatch, spec, _params(
            iterations=3, stop_tol=0.0, rho=rho,
            denoiser=WienerDenoiser(0.3, 0.1)))
        for sigma, (_, lam) in zip(sigmas, solves):
            assert np.all(lam > 0)
            assert np.all(lam < np.minimum(sigma, 2.0 / rho))


def test_xtilde_identity_when_state_zero(monkeypatch):
    spec = random_mc(np.random.default_rng(4))
    params = _params(iterations=2, stop_tol=0.0,
                     denoiser=WienerDenoiser(0.3, 0.1))
    _, _, solves = _recorded_run(monkeypatch, spec, params)
    x_ref = prepare(spec, params.wpe)[0].values
    assert np.array_equal(solves[0][0], x_ref)
    assert not np.array_equal(solves[1][0], x_ref)


def _consecutive_states(monkeypatch):
    """X_ref and the AdmmState `before` of a two-iteration Wiener run, in
    which P is no longer exactly 0; then, of the same run to three
    iterations, the AdmmState `after`, the trace, and the third
    iteration's (targets, weights) and denoiser input."""
    spec = random_mc(np.random.default_rng(5))
    kw = {"stop_tol": 0.0, "rho": 0.7}
    _, before, _ = run_pnpwpe(spec, _params(
        iterations=2, denoiser=WienerDenoiser(0.3, 0.1), **kw))
    assert np.any(before.p)
    recording = _Recording(WienerDenoiser(0.3, 0.1))
    params = _params(iterations=3, denoiser=recording, **kw)
    (_, after, trace), _, solves = _recorded_run(monkeypatch, spec, params)
    x_ref = prepare(spec, params.wpe)[0].values
    return x_ref, before, after, trace, solves[2], recording.inputs[2]


def test_xtilde_scalar_oracle(monkeypatch):
    x_ref, before, _, _, (targets, lam), _ = _consecutive_states(monkeypatch)
    r, v, p = before.r, before.v, before.p
    for (i, j), _ in np.ndenumerate(x_ref):
        expected = x_ref[i, j] - 0.5 * 0.7 * lam[i, j] * (
            r[i, j] + v[i, j] - p[i, j])
        assert abs(targets[i, j] - expected) < 1e-12


def test_rtilde_cases(monkeypatch):
    _, before, after, _, _, r_tilde = _consecutive_states(monkeypatch)
    assert np.array_equal(r_tilde, after.s_hat - before.v + before.p)


def test_update_v_cases(monkeypatch):
    _, before, after, _, _, _ = _consecutive_states(monkeypatch)
    assert np.array_equal(after.v, after.s_hat - after.r + before.p)


def test_update_p_cases(monkeypatch):
    _, before, after, _, _, _ = _consecutive_states(monkeypatch)
    assert np.array_equal(after.p,
                          before.p + after.s_hat - after.v - after.r)


def test_constraint_error_cases(monkeypatch):
    _, before, after, trace, _, _ = _consecutive_states(monkeypatch)
    for k, state in enumerate((before, after), 1):
        assert trace[k].error == float(
            np.mean(np.abs(state.r - state.s_hat - state.v) ** 2))


# --- fixed-point denoising step ----------------------------------------------

def test_update_r_mu_one_is_passthrough():
    spec = small_spec(_random_matrix(np.random.default_rng(8)))
    out = update_r(spec, SoftThresholdDenoiser(0.9), mu=1.0)
    assert np.array_equal(out.values, spec.values)


def test_update_r_identity_denoiser_fixed_point():
    spec = small_spec(_random_matrix(np.random.default_rng(9)))
    for mu in (0.2, 0.5, 1.0):
        out = update_r(spec, IdentityDenoiser(), mu=mu, inner_iters=3)
        assert np.allclose(out.values, spec.values, atol=1e-15)


def test_update_r_soft_threshold_closed_form():
    rng = np.random.default_rng(10)
    phases = rng.uniform(0, 2 * np.pi, (4, SMALL.num_bins))
    spec = small_spec(np.exp(1j * phases))  # uniform magnitude 1
    mu = 0.3
    out = update_r(spec, SoftThresholdDenoiser(0.5), mu=mu, inner_iters=1)
    expected = mu * spec.values + (1 - mu) * 0.5 * spec.values
    assert np.allclose(out.values, expected, atol=1e-12)


class _OneFrameDenoiser:
    """A plug-in that returns only the first frame of its input."""

    def __init__(self):
        self.calls = 0

    def denoise(self, spec):
        self.calls += 1
        return Spectrogram(spec.values[:1], spec.config, spec.sample_rate,
                           spec.signal_length)


def test_denoiser_that_changes_the_shape_is_rejected():
    observed = random_mc(np.random.default_rng(11))
    denoiser = _OneFrameDenoiser()
    params = PnpParams(wpe=WpeParams(filter_order=2, delay=1),
                       denoiser=denoiser)
    shapes = rf"\(30, {SMALL.num_bins}\) -> \(1, {SMALL.num_bins}\)"
    with pytest.raises(ArgumentError, match=shapes):
        run_pnpwpe(observed, params)
    assert denoiser.calls == 1


# --- filter update -----------------------------------------------------------

def _params(**kw):
    wpe_kw = {"filter_order": kw.pop("filter_order", 2),
              "delay": kw.pop("delay", 2),
              "epsilon": kw.pop("epsilon", 1e-4),
              "floor_share": kw.pop("floor_share", 0.0),
              "iterations": kw.pop("iterations", 1)}
    return PnpParams(wpe=WpeParams(**wpe_kw), **kw)


def update_filters(observed, params):
    """The filters of run_pnpwpe's first iteration: solved from R = V = P
    = 0, so for the targets X_ref and the weights of sigma = max(|X_ref|²,
    epsilon)."""
    _, state, _ = run_pnpwpe(observed, params)
    return state.filters


def test_update_filters_zero_observed():
    spec = mc_spec(np.zeros((2, 10, SMALL.num_bins), dtype=np.complex128))
    filters = update_filters(spec, _params())
    assert np.all(filters.weights == 0)


def test_update_filters_toy_scalar_system():
    # two frames, one channel, L=1, D=1: a single 1x1 normal equation
    x0, x1 = 1.0 + 1.0j, 2.0 - 0.5j
    arr = np.zeros((1, 2, SMALL.num_bins), dtype=np.complex128)
    arr[0, 0, 0] = x0
    arr[0, 1, 0] = x1
    spec = mc_spec(arr)
    filters = update_filters(spec, _params(filter_order=1, delay=1, rho=0.4))
    # xtilde = x; only frame 1 has a nonzero regressor, so its lambda
    # cancels: w = (x0 x1*/lam)* / (|x0|^2/lam) = (x1/x0)*
    expected = np.conj(x1 / x0)
    assert abs(filters.weights[0, 0] - expected) < 1e-9
    assert np.max(np.abs(filters.weights[1:])) == 0.0


def test_update_filters_reduces_to_wpe_at_small_rho():
    rng = np.random.default_rng(11)
    spec = random_mc(rng)
    obs = stack_channels(spec)
    ref = obs[0]
    sigma = np.maximum(np.abs(ref) ** 2, 1e-4)
    filters = update_filters(spec, _params(rho=1e-12))
    taps = stack_regressors(obs, 2, 2)
    expected, _ = solve_all_bands(taps, ref, sigma)
    scale = np.max(np.abs(expected))
    assert np.max(np.abs(filters.weights - expected)) < 1e-5 * scale


# --- full solver -------------------------------------------------------------

def test_identity_denoiser_null_property():
    rng = np.random.default_rng(12)
    spec = random_mc(rng)
    params = _params(iterations=10, stop_tol=0.0)
    estimate, state, trace = run_pnpwpe(spec, params)
    assert np.max(np.abs(state.v)) < 1e-12
    assert np.max(np.abs(state.p)) < 1e-12
    assert np.array_equal(state.r, state.s_hat)
    assert np.array_equal(estimate.values, state.r)
    assert len(trace) == 10 and all(record.error < 1e-25 for record in trace)


def test_small_rho_identity_matches_vanilla_wpe():
    rng = np.random.default_rng(13)
    spec = random_mc(rng)
    iters = 3
    params = PnpParams(wpe=WpeParams(filter_order=2, delay=2,
                                     iterations=iters),
                       rho=1e-12, stop_tol=0.0)
    estimate, state, _ = run_pnpwpe(spec, params)
    wpe_est, wpe_filters, _ = run_wpe(spec, params.wpe)
    scale = np.max(np.abs(wpe_est.values))
    assert np.max(np.abs(estimate.values - wpe_est.values)) < 1e-5 * scale
    wscale = max(np.max(np.abs(wpe_filters.weights)), 1e-30)
    assert np.max(np.abs(state.filters.weights
                         - wpe_filters.weights)) < 1e-5 * wscale


def test_zero_observed_gives_zero_everything():
    spec = mc_spec(np.zeros((2, 12, SMALL.num_bins), dtype=np.complex128))
    estimate, state, trace = run_pnpwpe(spec, _params(iterations=3,
                                                      stop_tol=0.0))
    assert np.all(estimate.values == 0)
    assert all(record.error == 0.0 for record in trace)
    # R stays zero, so every change compares two zero estimates
    assert all(record.change == 0.0 for record in trace)


def _settled(trace, i, tol):
    """Whether iteration i+1 meets run_pnpwpe's stop rule."""
    prev, record = trace[i - 1].error, trace[i]
    return (abs(record.error - prev) / max(prev, 1e-300) < tol
            and record.change < tol)


def test_early_stop_on_flat_error():
    rng = np.random.default_rng(14)
    spec = random_mc(rng)
    _, _, trace = run_pnpwpe(spec, _params(iterations=10, stop_tol=0.05))
    # identity denoiser: the error is exactly 0 every iteration, so the run
    # goes on while R still moves and stops once it settles
    assert all(record.error == 0.0 for record in trace)
    assert trace[1].change >= 0.05
    assert len(trace) == 3 and trace[-1].change < 0.05


def test_early_stop_waits_for_error_and_change_to_settle():
    rng = np.random.default_rng(14)
    spec = random_mc(rng)
    tol, iterations = 0.05, 40
    _, _, trace = run_pnpwpe(spec, _params(
        iterations=iterations, stop_tol=tol,
        denoiser=WienerDenoiser(0.3, 0.1)))
    stop = len(trace) - 1
    assert 2 <= stop < iterations - 1
    assert _settled(trace, stop, tol)
    assert not any(_settled(trace, i, tol) for i in range(1, stop))
    # an earlier iteration had a settled change but a moving error
    assert any(trace[i].change < tol for i in range(1, stop))


def test_scaling_equivariance_at_small_rho():
    rng = np.random.default_rng(15)
    spec = random_mc(rng)
    alpha = 4.2
    # epsilon is kept far below any iterate power so the PSD floor never
    # binds; a binding floor is not scale-equivariant
    params = _params(rho=1e-12, epsilon=1e-20, iterations=1, stop_tol=0.0)
    est1, state1, _ = run_pnpwpe(spec, params)
    est2, state2, _ = run_pnpwpe(mc_spec(alpha * stack_channels(spec)), params)
    scale = np.max(np.abs(est1.values))
    assert np.max(np.abs(est2.values - alpha * est1.values)) < 1e-8 * alpha * scale
    wscale = max(np.max(np.abs(state1.filters.weights)), 1e-30)
    assert np.max(np.abs(state2.filters.weights
                         - state1.filters.weights)) < 1e-8 * wscale
    # across further iterations the 1/|S_hat|^2 reweighting amplifies
    # rounding at near-null residual entries, so only a looser bound holds
    params3 = _params(rho=1e-12, epsilon=1e-20, iterations=3, stop_tol=0.0)
    est1, _, _ = run_pnpwpe(spec, params3)
    est2, _, _ = run_pnpwpe(mc_spec(alpha * stack_channels(spec)), params3)
    scale = np.max(np.abs(est1.values))
    assert np.max(np.abs(est2.values - alpha * est1.values)) < 1e-5 * alpha * scale


# --- plateau detection --------------------------------------------------------

def _records(changes):
    return [IterationRecord(error=0.0, change=c) for c in changes]


def test_plateau_iteration_basic():
    assert plateau_iteration(_records([1.0, 0.5, 0.01, 0.02])) == 3
    assert plateau_iteration(_records([1.0, 0.5, 0.2, 0.1])) is None
    assert plateau_iteration(_records([1.0, 0.5, 0.2, 0.01])) == 4
    assert plateau_iteration(_records([1.0, 0.01, 0.2, 0.01])) == 4
    assert plateau_iteration(_records([0.5, 0.01])) == 2
    assert plateau_iteration(_records([np.inf, 0.01, 0.02])) == 2


def test_run_pnpwpe_records_error_and_change_of_r():
    rng = np.random.default_rng(17)
    spec = random_mc(rng)
    params = _params(iterations=3, stop_tol=0.0,
                     denoiser=WienerDenoiser(0.3, 0.1))
    _, state, trace = run_pnpwpe(spec, params)
    assert len(trace) == 3
    assert all(isinstance(record, IterationRecord) for record in trace)
    # R starts at zero, so the first change has no finite relative size
    assert trace[0].change == np.inf
    assert all(np.isfinite(record.change) for record in trace[1:])
    assert trace[-1].error == float(
        np.mean(np.abs(state.r - state.s_hat - state.v) ** 2))


class _CountingPassThrough:
    """A denoiser that is no dereverb class: it counts its calls and
    returns its input."""

    def __init__(self):
        self.calls = 0

    def denoise(self, spec):
        self.calls += 1
        return spec


def test_any_object_with_denoise_plugs_in():
    rng = np.random.default_rng(19)
    spec = random_mc(rng)
    fake = _CountingPassThrough()
    kw = {"iterations": 3, "inner_iters": 2, "stop_tol": 0.0}
    estimate, state, trace = run_pnpwpe(spec, _params(denoiser=fake, **kw))
    assert fake.calls == 6 and len(trace) == 3
    ref_est, ref_state, _ = run_pnpwpe(
        spec, _params(denoiser=IdentityDenoiser(), **kw))
    assert np.array_equal(estimate.values, ref_est.values)
    assert np.array_equal(state.r, ref_state.r)
    assert np.array_equal(state.s_hat, ref_state.s_hat)
    assert np.array_equal(state.filters.weights, ref_state.filters.weights)


# --- time-domain pipeline: analyze -> run_pnpwpe -> synthesize --------------

def _two_channel_spectrogram(rng, n=6000, fs=16000):
    from dereverb.signals import TimeSignal
    x = rng.standard_normal(n)
    signal = MultichannelTimeSignal((TimeSignal(x, fs),
                                     TimeSignal(np.roll(x, 3), fs)))
    return analyze_multichannel(signal, StftConfig())


def test_pipeline_preserves_length_and_is_deterministic():
    rng = np.random.default_rng(17)
    observed = _two_channel_spectrogram(rng)
    params = PnpParams(wpe=WpeParams(filter_order=4, delay=2, iterations=2),
                       stop_tol=0.0)
    out1, _, _ = run_pnpwpe(observed, params)
    out2, _, _ = run_pnpwpe(observed, params)
    assert len(synthesize(out1)) == 6000
    assert np.array_equal(out1.values, out2.values)


def test_pipeline_mu_one_matches_identity_denoiser():
    rng = np.random.default_rng(18)
    observed = _two_channel_spectrogram(rng)
    base = PnpParams(wpe=WpeParams(filter_order=4, delay=2, iterations=3),
                     stop_tol=0.0)
    with_prior_off = PnpParams(wpe=base.wpe, mu=1.0, stop_tol=0.0,
                               denoiser=SoftThresholdDenoiser(0.5))
    out_id, _, _ = run_pnpwpe(observed, base)
    out_mu1, _, _ = run_pnpwpe(observed, with_prior_off)
    assert np.allclose(synthesize(out_mu1).samples,
                       synthesize(out_id).samples, atol=1e-12)
