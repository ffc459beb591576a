"""Timing spans around dereverb's module boundaries, recorded from outside.

`Tracer.install()` wraps the functions listed in `TRACED` (plus the
`denoise` method of every denoiser class) and rebinds every name in every
loaded `dereverb.*` module that refers to the original function, so a name
imported with `from .wpe import solve_all_bands` is traced as well. Each call
records a span (name, start, end, parent index, and shape-derived numbers);
spans stay in memory until the caller writes them out. `layer_metrics()`
turns the spans of one or more traced CLI processes into the per-layer
metrics of BENCHMARK.json. Self time is a span's time minus the time its
child spans cover.
"""
from __future__ import annotations

import functools
import importlib
import math
import statistics
import sys
import time
import tracemalloc

import numpy as np

# The module-boundary functions the per-layer metrics are made from.
TRACED = {
    "wpe": ("run_wpe", "stack_regressors", "solve_all_bands"),
    "numerics": ("solve_hpd",),
    "pnpwpe": ("run_pnpwpe",),
    "roomsim": ("image_source_rir", "render_scene"),
    "signals": ("read_wav", "write_wav", "convolve"),
    "stft": ("analyze", "synthesize"),
    "metrics": ("evaluate_pair", "align"),
}
# Solver entry points whose peak Python-heap use is measured with tracemalloc.
PEAK_MEMORY = ("wpe.run_wpe", "pnpwpe.run_pnpwpe")
DENOISE = "denoisers.denoise"
MIB = 2.0 ** 20


def count_images(spec, mic_index):
    """Image sources within the RIR length, by image_source_rir's rule."""
    from dereverb.roomsim import SPEED_OF_SOUND
    d_max = (spec.rir_length - 1) / spec.sample_rate * SPEED_OF_SOUND
    mic = np.asarray(spec.mics[mic_index])
    src = np.asarray(spec.source)
    coords = []
    for axis in range(3):
        size = spec.dimensions[axis]
        m = np.arange(-(math.ceil(d_max / (2.0 * size)) + 1),
                      math.ceil(d_max / (2.0 * size)) + 2)
        coords.append(np.concatenate([2.0 * m * size + src[axis],
                                      2.0 * m * size - src[axis]]) - mic[axis])
    dist = np.sqrt(coords[0][:, None, None] ** 2
                   + coords[1][None, :, None] ** 2
                   + coords[2][None, None, :] ** 2)
    return int(np.count_nonzero(dist <= d_max + 1e-9))


# Array whose shape a span records: the regressor of a band solve, the
# spectrogram handed to a denoiser (args[0] of a method is self).
SHAPE_ARG = {
    "wpe.solve_all_bands": lambda args: args[0],
    DENOISE: lambda args: args[1].values,
}


def _annotate(name, args, result):
    """Numbers computed from a call's arguments and result, for its span."""
    if name == "wpe.stack_regressors":
        return {"bytes": int(result.nbytes)}
    if name == "metrics.evaluate_pair":
        return {"frames_used": int(result.frames_used)}
    if name == "roomsim.image_source_rir":
        return {"images": count_images(args[0], args[1])}
    return {}


class Tracer:
    """Records spans for the wrapped functions while installed."""

    def __init__(self):
        self.spans = []
        self._stack = []
        self._patches = []

    def _wrap(self, name, fn):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = {"name": name, "start": time.perf_counter(), "end": None,
                    "parent": tracer._stack[-1] if tracer._stack else None}
            tracer._stack.append(len(tracer.spans))
            tracer.spans.append(span)
            measure = name in PEAK_MEMORY and not tracemalloc.is_tracing()
            if measure:
                tracemalloc.start()
            if name in SHAPE_ARG:
                span["shape"] = list(SHAPE_ARG[name](args).shape)
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                span["error"] = type(exc).__name__
                raise
            finally:
                span["end"] = time.perf_counter()
                if measure:
                    span["peak_traced_bytes"] = (
                        tracemalloc.get_traced_memory()[1])
                    tracemalloc.stop()
                tracer._stack.pop()
            span.update(_annotate(name, args, result))
            return result

        return traced

    def _patch(self, owner, attr, value):
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self):
        modules = {short: importlib.import_module(f"dereverb.{short}")
                   for short in (*TRACED, "denoisers")}
        loaded = [m for n, m in sys.modules.items() if m is not None
                  and (n == "dereverb" or n.startswith("dereverb."))]
        for short, names in TRACED.items():
            for fname in names:
                original = getattr(modules[short], fname)
                wrapped = self._wrap(f"{short}.{fname}", original)
                for module in loaded:
                    for attr, value in list(vars(module).items()):
                        if value is original:
                            self._patch(module, attr, wrapped)
        for cls in vars(modules["denoisers"]).values():
            if (isinstance(cls, type) and "denoise" in vars(cls)
                    and cls.__module__ == "dereverb.denoisers"):
                self._patch(cls, "denoise", self._wrap(DENOISE, cls.denoise))

    def uninstall(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)


PER_LAYER_UNITS = {
    "wpe.solve_all_bands_s": "s",
    "wpe.cov_accum_s": "s",
    "wpe.cov_accum_gflop": "gflop",
    "wpe.cov_accum_gflops": "gflop/s",
    "wpe.stack_regressors_s": "s",
    "wpe.regressor_mib": "MiB",
    "wpe.peak_traced_mib": "MiB",
    "wpe.run_self_s": "s",
    "wpe.iterations": "count",
    "pnpwpe.peak_traced_mib": "MiB",
    "pnpwpe.run_self_s": "s",
    "pnpwpe.outer_iters": "count",
    "numerics.solve_hpd_s": "s",
    "numerics.solve_hpd_calls": "count",
    "numerics.singular_bands": "count",
    "denoisers.denoise_s": "s",
    "denoisers.denoise_calls": "count",
    "denoisers.denoise_ms_p50": "ms",
    "denoisers.pnpspec_mib": "MiB",
    "roomsim.image_source_rir_s": "s",
    "roomsim.render_scene_s": "s",
    "roomsim.images": "count",
    "signals.convolve_s": "s",
    "signals.read_wav_s": "s",
    "signals.write_wav_s": "s",
    "stft.analyze_s": "s",
    "stft.synthesize_s": "s",
    "metrics.evaluate_pair_s": "s",
    "metrics.align_s": "s",
    "metrics.frames_used": "count",
    "cli.import_s": "s",
    "trace.overhead_frac": "ratio",
}


def _enclosing(spans, index, names):
    """Name of the nearest ancestor of spans[index] whose name is in names."""
    parent = spans[index]["parent"]
    while parent is not None:
        if spans[parent]["name"] in names:
            return spans[parent]["name"]
        parent = spans[parent]["parent"]
    return None


def layer_metrics(steps):
    """Per-layer metrics (everything in PER_LAYER_UNITS but the overhead)
    from traced CLI processes, each a dict with "import_s" and "spans"."""
    total, self_time, calls = {}, {}, {}
    denoise_ms, gflop, singular = [], 0.0, 0
    regressor_bytes = pnpspec_bytes = images = frames_used = 0
    peak = {name: 0 for name in PEAK_MEMORY}
    iterations = {"wpe.run_wpe": 0, "pnpwpe.run_pnpwpe": 0}
    for step in steps:
        spans = step["spans"]
        covered = [0.0] * len(spans)
        for span in spans:
            if span["parent"] is not None:
                covered[span["parent"]] += span["end"] - span["start"]
        for i, span in enumerate(spans):
            name, dur = span["name"], span["end"] - span["start"]
            total[name] = total.get(name, 0.0) + dur
            self_time[name] = self_time.get(name, 0.0) + dur - covered[i]
            calls[name] = calls.get(name, 0) + 1
            if name in peak:
                peak[name] = max(peak[name], span.get("peak_traced_bytes", 0))
            elif name == "wpe.solve_all_bands":
                k, taps, frames = span["shape"]
                # Z = (x/lambda) x^H: 8 flops per complex MAC; q, scaling: 10
                gflop += (8.0 * k * taps * taps * frames
                          + 10.0 * k * taps * frames) / 1e9
                owner = _enclosing(spans, i, iterations)
                if owner is not None:
                    iterations[owner] += 1
            elif name == "wpe.stack_regressors":
                regressor_bytes = max(regressor_bytes, span["bytes"])
            elif name == "numerics.solve_hpd":
                singular += span.get("error") == "SingularBandError"
            elif name == DENOISE:
                denoise_ms.append(1e3 * dur)
                n_frames, n_bins = span["shape"]
                pnpspec_bytes = max(pnpspec_bytes, 24 + 8 * n_frames * n_bins)
            elif name == "roomsim.image_source_rir":
                images += span["images"]
            elif name == "metrics.evaluate_pair":
                frames_used += span["frames_used"]
    solve = total.get("wpe.solve_all_bands", 0.0)
    hpd = total.get("numerics.solve_hpd", 0.0)
    cov = solve - hpd
    return {
        "wpe.solve_all_bands_s": solve,
        "wpe.cov_accum_s": cov,
        "wpe.cov_accum_gflop": gflop,
        "wpe.cov_accum_gflops": gflop / cov if cov > 0 else 0.0,
        "wpe.stack_regressors_s": total.get("wpe.stack_regressors", 0.0),
        "wpe.regressor_mib": regressor_bytes / MIB,
        "wpe.peak_traced_mib": peak["wpe.run_wpe"] / MIB,
        "wpe.run_self_s": self_time.get("wpe.run_wpe", 0.0),
        "wpe.iterations": iterations["wpe.run_wpe"],
        "pnpwpe.peak_traced_mib": peak["pnpwpe.run_pnpwpe"] / MIB,
        "pnpwpe.run_self_s": self_time.get("pnpwpe.run_pnpwpe", 0.0),
        "pnpwpe.outer_iters": iterations["pnpwpe.run_pnpwpe"],
        "numerics.solve_hpd_s": hpd,
        "numerics.solve_hpd_calls": calls.get("numerics.solve_hpd", 0),
        "numerics.singular_bands": singular,
        "denoisers.denoise_s": total.get(DENOISE, 0.0),
        "denoisers.denoise_calls": calls.get(DENOISE, 0),
        "denoisers.denoise_ms_p50": (statistics.median(denoise_ms)
                                     if denoise_ms else 0.0),
        "denoisers.pnpspec_mib": pnpspec_bytes / MIB,
        "roomsim.image_source_rir_s": total.get("roomsim.image_source_rir",
                                                0.0),
        "roomsim.render_scene_s": total.get("roomsim.render_scene", 0.0),
        "roomsim.images": images,
        "signals.convolve_s": total.get("signals.convolve", 0.0),
        "signals.read_wav_s": total.get("signals.read_wav", 0.0),
        "signals.write_wav_s": total.get("signals.write_wav", 0.0),
        "stft.analyze_s": total.get("stft.analyze", 0.0),
        "stft.synthesize_s": total.get("stft.synthesize", 0.0),
        "metrics.evaluate_pair_s": total.get("metrics.evaluate_pair", 0.0),
        "metrics.align_s": total.get("metrics.align", 0.0),
        "metrics.frames_used": frames_used,
        "cli.import_s": statistics.median(s["import_s"] for s in steps),
    }


def count_problems(steps):
    """Inconsistencies between the exact counters: every band solve belongs
    to one solver iteration of one solve_all_bands call."""
    problems = []
    for step in steps:
        spans = step["spans"]
        calls = [i for i, s in enumerate(spans)
                 if s["name"] == "wpe.solve_all_bands"]
        expected = sum(spans[i]["shape"][0] for i in calls)
        solves = sum(s["name"] == "numerics.solve_hpd" for s in spans)
        if solves != expected:
            problems.append(f"{solves} band solves, expected {expected} "
                            "(bins x iterations)")
        if any(_enclosing(spans, i, PEAK_MEMORY) is None for i in calls):
            problems.append("solve_all_bands called outside a solver run")
    return problems
