"""PnPWPE: WPE's reweighted per-band linear prediction with a denoising
prior, in the form of an ADMM iteration over a speech iterate R, a noise
iterate V and a scaled dual P. run_pnpwpe states the iteration as it
runs: V and P do no work in it yet, so R does not reach the filters.
estimate runs WPE or PnPWPE and synthesizes, as the CLI writes its output.
"""
from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .denoisers import IdentityDenoiser
from .errors import ArgumentError
from .stft import synthesize
from .wpe import (FilterBank, IterationRecord, WpeParams, estimate_psd,
                  prepare, relative_change, run_wpe, solve_all_bands)

PLATEAU_THRESHOLD = 0.05  # the change of R plateau_iteration calls settled


@dataclass(frozen=True)
class PnpParams:
    wpe: WpeParams = WpeParams()  # wpe.iterations counts outer iterations
    rho: float = 0.1
    mu: float = 0.5
    inner_iters: int = 1
    denoiser: object = IdentityDenoiser()  # has denoise(spec) -> spec
    stop_tol: float = 1e-4

    def __post_init__(self):
        if not 0 < self.rho < np.inf:
            raise ArgumentError("rho must be finite and > 0")
        if not 0 < self.mu <= 1:
            raise ArgumentError("mu must be in (0, 1]")
        if self.inner_iters < 1:
            raise ArgumentError("inner_iters must be >= 1")
        if not 0 <= self.stop_tol < np.inf:
            raise ArgumentError("stop_tol must be finite and >= 0")


@dataclass
class AdmmState:
    filters: FilterBank
    s_hat: np.ndarray
    r: np.ndarray
    v: np.ndarray
    p: np.ndarray


def update_r(r_tilde, denoiser, mu, inner_iters=1):
    """Fixed-point mixing: R_i = mu*R_tilde + (1-mu)*Omega(R_{i-1}), from
    R_0 = R_tilde: the first inner step denoises R_tilde itself, each later
    one the previous inner iterate.
    The denoiser is the one value from outside the program: an output
    whose shape differs from its input raises ArgumentError.
    """
    r = r_tilde
    for _ in range(inner_iters):
        denoised = denoiser.denoise(r)
        if denoised.values.shape != r.values.shape:
            raise ArgumentError(
                f"denoiser changed the shape: {r.values.shape} -> "
                f"{denoised.values.shape}")
        r = r_tilde.with_values(
            mu * r_tilde.values + (1.0 - mu) * denoised.values)
    return r


def run_pnpwpe(observed, params):
    """Full solver loop; returns (speech estimate R, AdmmState,
    IterationRecord list of the consensus error and the change of R).

    Ŝ starts at the reference channel X_ref, and R, V and P at 0. Each
    iteration, elementwise, with sigma = max(|Ŝ|², floor) of the last Ŝ and
    the run's wpe.psd_floor:
        lambda = 2*sigma/(2 + rho*sigma)
        X~ = X_ref - (rho/2)*lambda*(R + V - P)
        Ŝ = X_ref - the prediction of the bands solved for X~ and lambda
        R~ = Ŝ - V + P, and R = update_r(R~)
        V = Ŝ - R + P
        P += Ŝ - V - R
        error = mean|R - Ŝ - V|²
    lambda lies in (0, min(sigma, 2/rho)) and tends to sigma as rho -> 0.
    As written, P returns to 0 up to rounding and V takes all of Ŝ - R,
    so the error is 4*mean|R - Ŝ|², and X~ is X_ref - (rho/2)*lambda*Ŝ of
    the iteration before (X_ref in the first): R never reaches the filters.

    From the second iteration on, the run stops once the relative change
    of the error and the change of R are both below stop_tol."""
    wpe_params = params.wpe
    reference, regressors, floor = prepare(observed, wpe_params)
    x_ref = reference.values
    s_hat = x_ref
    r = np.zeros_like(x_ref)
    v = np.zeros_like(x_ref)
    p = np.zeros_like(x_ref)
    trace = []

    for _ in range(wpe_params.iterations):
        sigma = estimate_psd(s_hat, floor)
        lam = 2.0 * sigma / (2.0 + params.rho * sigma)
        xtilde = x_ref - 0.5 * params.rho * lam * (r + v - p)
        weights, prediction = solve_all_bands(regressors, xtilde, lam)
        s_hat = x_ref - prediction
        r_prev, r = r, update_r(reference.with_values(s_hat - v + p),
                                params.denoiser, params.mu,
                                params.inner_iters).values
        v = s_hat - r + p
        p = p + s_hat - v - r

        error = float(np.mean(np.abs(r - s_hat - v) ** 2))
        trace.append(IterationRecord(error, relative_change(r, r_prev)))
        # The error alone cannot end the run: with the identity denoiser
        # it is 0 in every iteration while R still moves.
        if len(trace) >= 2:
            prev = trace[-2].error
            if (abs(error - prev) / max(prev, 1e-300) < params.stop_tol
                    and trace[-1].change < params.stop_tol):
                break

    state = AdmmState(filters=FilterBank(weights), s_hat=s_hat, r=r, v=v, p=p)
    return reference.with_values(r), state, trace


def plateau_iteration(trace):
    """First iteration, from the second on, whose change and every later one
    stay below PLATEAU_THRESHOLD; None if there is none, as when the last
    change is not below it."""
    for i in range(1, len(trace)):
        if all(record.change < PLATEAU_THRESHOLD for record in trace[i:]):
            return i + 1
    return None


def estimate(observed, params):
    """(out, trace) of run_pnpwpe for a PnpParams or of run_wpe for a
    WpeParams; out is synthesized and rounded through float32 as write_wav
    stores it, so that what is scored is the file dereverb writes."""
    run = run_pnpwpe if isinstance(params, PnpParams) else run_wpe
    spec, _, trace = run(observed, params)
    out = synthesize(spec)
    return replace(out, samples=out.samples.astype("<f4")), trace
