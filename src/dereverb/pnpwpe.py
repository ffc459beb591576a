"""ADMM dereverberation with a denoising prior and explicit noise variable.

Each outer iteration reweights the per-band linear-prediction solve with
lambda = 2*sigma/(2 + rho*sigma) and shifted targets, then alternates a
denoiser-driven fixed-point update of the speech iterate R, a closed-form
noise update V, and the scaled dual update P.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .denoisers import IdentityDenoiser
from .errors import ArgumentError
from .stft import StftConfig, analyze_multichannel, synthesize
from .wpe import (FilterBank, IterationRecord, WpeParams, estimate_psd,
                  prepare, relative_change, solve_all_bands)


@dataclass(frozen=True)
class PnpParams:
    wpe: WpeParams = WpeParams()  # wpe.iterations counts outer iterations
    rho: float = 0.1
    mu: float = 0.5
    inner_iters: int = 1
    denoiser: object = IdentityDenoiser()  # has denoise(spec) -> spec
    stop_tol: float = 1e-4

    def __post_init__(self):
        if not self.rho > 0:
            raise ArgumentError("rho must be > 0")
        if not 0 < self.mu <= 1:
            raise ArgumentError("mu must be in (0, 1]")
        if self.inner_iters < 1:
            raise ArgumentError("inner_iters must be >= 1")
        if self.stop_tol < 0:
            raise ArgumentError("stop_tol must be >= 0")


@dataclass
class AdmmState:
    filters: FilterBank
    s_hat: np.ndarray
    r: np.ndarray
    v: np.ndarray
    p: np.ndarray


def compute_lambda(sigma, rho):
    """2*sigma/(2 + rho*sigma); always in (0, min(sigma, 2/rho))."""
    sigma = np.asarray(sigma, dtype=np.float64)
    if np.any(sigma <= 0):
        raise ArgumentError("sigma must be positive")
    if not rho > 0:
        raise ArgumentError("rho must be > 0")
    return 2.0 * sigma / (2.0 + rho * sigma)


def _check_shapes(*arrays):
    shape = np.shape(arrays[0])
    for a in arrays[1:]:
        if np.shape(a) != shape:
            raise ArgumentError("shape mismatch")


def compute_xtilde(x_ref, r, v, p, lam, rho):
    """Shifted targets: X_ref - (rho/2)*lambda*(R + V - P)."""
    _check_shapes(x_ref, r, v, p, lam)
    return x_ref - 0.5 * rho * lam * (r + v - p)


def compute_rtilde(s_hat, v, p):
    """Denoiser input: S_hat - V + P."""
    _check_shapes(s_hat, v, p)
    return s_hat - v + p


def update_r(r_tilde, denoiser, mu, inner_iters=1):
    """Fixed-point mixing: R_i = mu*R_tilde + (1-mu)*Omega(arg_i).

    The first inner step denoises R_tilde itself; subsequent steps denoise
    the previous inner iterate.
    """
    if not 0 < mu <= 1:
        raise ArgumentError("mu must be in (0, 1]")
    if inner_iters < 1:
        raise ArgumentError("inner_iters must be >= 1")
    arg = r_tilde
    r = r_tilde
    for _ in range(inner_iters):
        denoised = denoiser.denoise(arg)
        r = r_tilde.with_values(
            mu * r_tilde.values + (1.0 - mu) * denoised.values)
        arg = r
    return r


def update_v(s_hat, r, p):
    """Closed-form noise update: V = S_hat - R + P."""
    _check_shapes(s_hat, r, p)
    return s_hat - r + p


def update_p(p, s_hat, v, r):
    """Scaled dual update: P = P + S_hat - V - R."""
    _check_shapes(p, s_hat, v, r)
    return p + s_hat - v - r


def constraint_error(r, s_hat, v):
    """Mean-square consensus error: mean |R - S_hat - V|^2."""
    _check_shapes(r, s_hat, v)
    return float(np.mean(np.abs(r - s_hat - v) ** 2))


def run_pnpwpe(observed, params):
    """Full solver loop; returns (speech estimate R, AdmmState,
    IterationRecord list of the consensus error and the change of R)."""
    wpe_params = params.wpe
    reference, regressors = prepare(observed, wpe_params)
    x_ref = reference.values

    shape = x_ref.shape
    s_hat = x_ref.copy()
    r = np.zeros(shape, dtype=np.complex128)
    v = np.zeros(shape, dtype=np.complex128)
    p = np.zeros(shape, dtype=np.complex128)
    trace = []

    for _ in range(wpe_params.iterations):
        sigma = estimate_psd(s_hat, wpe_params.epsilon)
        lam = compute_lambda(sigma, params.rho)
        xtilde = compute_xtilde(x_ref, r, v, p, lam, params.rho)
        weights, prediction = solve_all_bands(regressors, xtilde, lam)
        s_hat = x_ref - prediction
        r_tilde = compute_rtilde(s_hat, v, p)
        r_prev, r = r, update_r(reference.with_values(r_tilde),
                                params.denoiser, params.mu,
                                params.inner_iters).values
        v = update_v(s_hat, r, p)
        p = update_p(p, s_hat, v, r)

        error = constraint_error(r, s_hat, v)
        trace.append(IterationRecord(error, relative_change(r, r_prev)))
        if len(trace) >= 2:
            prev = trace[-2].error
            if abs(error - prev) / max(prev, 1e-300) < params.stop_tol:
                break

    state = AdmmState(filters=FilterBank(weights), s_hat=s_hat, r=r, v=v, p=p)
    return reference.with_values(r), state, trace


def plateau_iteration(trace, threshold=0.05):
    """First iteration, from the second on, whose change and every later one
    stay below threshold; None if there is none, as when the last change
    is not below threshold."""
    for i in range(1, len(trace)):
        if all(record.change < threshold for record in trace[i:]):
            return i + 1
    return None


def time_domain_pipeline(signal, params, stft_config=StftConfig()):
    """analyze -> run_pnpwpe -> synthesize; output length matches input."""
    observed = analyze_multichannel(signal, stft_config)
    estimate, _, _ = run_pnpwpe(observed, params)
    return synthesize(estimate)
