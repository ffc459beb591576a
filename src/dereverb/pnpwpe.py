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
from .wpe import (FilterBank, IterationRecord, WpeParams, estimate_psd,
                  prepare, relative_change, solve_all_bands)

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
    """2*sigma/(2 + rho*sigma); in (0, min(sigma, 2/rho)) for sigma > 0
    (estimate_psd floors it at epsilon) and rho > 0 (PnpParams checks it)."""
    return 2.0 * sigma / (2.0 + rho * sigma)


def compute_xtilde(x_ref, r, v, p, lam, rho):
    """Shifted targets: X_ref - (rho/2)*lambda*(R + V - P)."""
    return x_ref - 0.5 * rho * lam * (r + v - p)


def compute_rtilde(s_hat, v, p):
    """Denoiser input: S_hat - V + P."""
    return s_hat - v + p


def update_r(r_tilde, denoiser, mu, inner_iters=1):
    """Fixed-point mixing: R_i = mu*R_tilde + (1-mu)*Omega(arg_i).

    The first inner step denoises R_tilde itself; subsequent steps denoise
    the previous inner iterate.
    The denoiser is the one value from outside the program: an output
    whose shape differs from its input raises ArgumentError.
    """
    arg = r_tilde
    r = r_tilde
    for _ in range(inner_iters):
        denoised = denoiser.denoise(arg)
        if denoised.values.shape != arg.values.shape:
            raise ArgumentError(
                f"denoiser changed the shape: {arg.values.shape} -> "
                f"{denoised.values.shape}")
        r = r_tilde.with_values(
            mu * r_tilde.values + (1.0 - mu) * denoised.values)
        arg = r
    return r


def update_v(s_hat, r, p):
    """Closed-form noise update: V = S_hat - R + P."""
    return s_hat - r + p


def update_p(p, s_hat, v, r):
    """Scaled dual update: P = P + S_hat - V - R."""
    return p + s_hat - v - r


def constraint_error(r, s_hat, v):
    """Mean-square consensus error: mean |R - S_hat - V|^2."""
    return float(np.mean(np.abs(r - s_hat - v) ** 2))


def run_pnpwpe(observed, params):
    """Full solver loop; returns (speech estimate R, AdmmState,
    IterationRecord list of the consensus error and the change of R).

    From the second iteration on, the run stops once the relative change
    of the error and the change of R are both below stop_tol."""
    wpe_params = params.wpe
    reference, regressors = prepare(observed, wpe_params)
    x_ref = reference.values
    s_hat = x_ref
    r = np.zeros_like(x_ref)
    v = np.zeros_like(x_ref)
    p = np.zeros_like(x_ref)
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
