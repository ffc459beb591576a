"""Workload definitions and the seeded speech surrogate they feed the CLI.

Each workload names the CLI steps of one job; runner.py fills in the paths
from a per-run scene directory. Why each workload exists is recorded in
BENCHMARK.json and README.md.
"""
from __future__ import annotations

import os
import shlex
import sys
from dataclasses import dataclass

import numpy as np
import scipy.signal

FS = 16000

# The room geometry (and, for noisy scenes, the noise draw) comes from
# `dereverb simulate --seed ROOM_SEED`: one fixed preset-A and one fixed
# preset-B room, the scenes ROADMAP quotes. The workload seed draws the speech
# surrogate, so run-to-run differences in job time and in CD / F-SNR come
# from the speech and the machine, not from a different T60 and RIR length.
ROOM_SEED = 4

HERE = os.path.dirname(os.path.abspath(__file__))
EXTERNAL_DENOISER = os.path.join(HERE, "pnpspec_wiener.py")


@dataclass(frozen=True)
class Workload:
    name: str
    preset: str
    duration_s: float
    noise: str             # "none" or "wgn" (10 dB SNR, the CLI default)
    # flags after `dereverb --input X --out Y`; () makes the job
    # `simulate` + `evaluate` instead
    dereverb_args: tuple
    scenes: int            # distinct speech inputs a run; jobs cycle them

    @property
    def simulate_in_job(self):
        return not self.dereverb_args


def speech_like(duration, fs=FS, seed=0):
    """Speech surrogate: noise-excited, piecewise-stationary formant filters
    under a syllabic envelope (the construction of tests/helpers.speech_like;
    `seed` may be anything numpy.random.default_rng accepts)."""
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
    return 0.5 * x


def external_command():
    """`--denoiser-command` value running the shipped PNPSPEC1 fixture."""
    return shlex.join([sys.executable, EXTERNAL_DENOISER])


WORKLOADS = {w.name: w for w in (
    Workload(
        "a4-wpe",
        "A", 4.0, "none", ("--method", "wpe", "--preset", "A"), 2),
    Workload(
        "b8-pnpwpe-wiener", "B", 8.0, "wgn",
        ("--method", "pnpwpe", "--denoiser", "wiener", "--preset", "B"), 1),
    Workload(
        "a4-pnpwpe-external", "A", 4.0, "wgn",
        ("--method", "pnpwpe", "--preset", "A", "--filter-order", "10",
         "--delay", "6", "--inner-iters", "3", "--denoiser", "external"), 2),
    Workload(
        "b8-simulate-eval", "B", 8.0, "wgn", (), 2),
)}


def dereverb_argv(workload, observed, out):
    argv = ["dereverb", "--input", observed, "--out", out,
            *workload.dereverb_args]
    if "external" in workload.dereverb_args:
        argv += ["--denoiser-command", external_command()]
    return argv


def simulate_argv(workload, clean, out_dir):
    return ["simulate", "--preset", workload.preset, "--seed", str(ROOM_SEED),
            "--clean", clean, "--noise", workload.noise, "--out-dir", out_dir]


def evaluate_argv(reference, estimate, csv_path):
    return ["evaluate", "--reference", reference, "--estimate", estimate,
            "--csv", csv_path]
