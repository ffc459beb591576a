"""Batch command-line front end: scene simulation, dereverberation,
evaluation, parameter sweeps and convergence traces.

Exit codes: 0 success, 2 bad arguments, 3 I/O errors, 4 numeric/metric
errors, 5 external denoiser failures.
"""
from __future__ import annotations

import argparse
import csv
import dataclasses
import functools
import itertools
import os
import pathlib
import shlex
import sys
import tempfile

from .denoisers import (ExternalDenoiser, IdentityDenoiser,
                        SoftThresholdDenoiser, WienerDenoiser)
from .errors import (AlignmentError, ArgumentError, DenoiserError,
                     FormatError, GeometryError, MetricError, ProtocolError,
                     SingularBandError)
from .metrics import evaluate_pair
from .pnpwpe import PnpParams, plateau_iteration, run_pnpwpe
from .roomsim import PRESETS, render_scene, sample_room, white_noise
from .signals import MultichannelTimeSignal, read_wav, write_wav
from .stft import StftConfig, analyze_multichannel, synthesize
from .wpe import WpeParams, run_wpe

EXIT_OK = 0
EXIT_ARGS = 2
EXIT_IO = 3
EXIT_NUMERIC = 4
EXIT_DENOISER = 5

# Per-preset taps per channel, from a seeded sweep at the default delay and
# iteration count (CHANGES.md): the lowest mean CD on noise-free scenes.
PRESET_FILTER_ORDER = {"A": 10, "B": 20}


def _atomic_write(path, write):
    """Call write(tmp) on a new temp file beside path, then rename it over
    path; on any failure the temp file is removed and path is untouched."""
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=directory, suffix=".tmp")
    os.close(fd)
    try:
        write(tmp)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


# Each --denoiser kind and how the denoiser flags build it.
DENOISERS = {
    "identity": lambda args: IdentityDenoiser(),
    "soft_threshold": lambda args: SoftThresholdDenoiser(args.threshold),
    "wiener": lambda args: WienerDenoiser(args.quantile, args.min_gain),
    "external": lambda args: ExternalDenoiser(
        shlex.split(args.denoiser_command or "")),
}


def _add_solver_flags(parser):
    """The STFT, WPE and PnPWPE flags of dereverb, sweep and convergence."""
    parser.add_argument("--frame-len", type=int, default=StftConfig.frame_len)
    parser.add_argument("--hop", type=int, default=StftConfig.hop)
    parser.add_argument("--filter-order", type=int, default=None,
                        help=f"taps per channel (default "
                             f"{WpeParams.filter_order}; "
                             f"{PRESET_FILTER_ORDER['A']} for preset A, "
                             f"{PRESET_FILTER_ORDER['B']} for preset B)")
    parser.add_argument("--delay", type=int, default=WpeParams.delay)
    parser.add_argument("--epsilon", type=float, default=WpeParams.epsilon)
    parser.add_argument("--iterations", type=int,
                        default=WpeParams.iterations)
    parser.add_argument("--reference-channel", type=int,
                        default=WpeParams.reference_channel)
    parser.add_argument("--preset", choices=sorted(PRESETS), default=None)
    parser.add_argument("--rho", type=float, default=PnpParams.rho)
    parser.add_argument("--mu", type=float, default=PnpParams.mu)
    parser.add_argument("--inner-iters", type=int,
                        default=PnpParams.inner_iters)
    parser.add_argument("--stop-tol", type=float, default=PnpParams.stop_tol)
    parser.add_argument("--denoiser", default="identity",
                        choices=list(DENOISERS))
    parser.add_argument("--threshold", type=float, default=0.5)
    parser.add_argument("--quantile", type=float, default=0.3)
    parser.add_argument("--min-gain", type=float, default=0.1)
    parser.add_argument("--denoiser-command", default=None,
                        help="command line for the external denoiser")


def _filter_order(args):
    if args.filter_order is not None:
        return args.filter_order
    if args.preset is not None:
        return PRESET_FILTER_ORDER[args.preset]
    return WpeParams.filter_order


def _wpe_params(args):
    return WpeParams(
        filter_order=_filter_order(args),
        delay=args.delay,
        epsilon=args.epsilon,
        iterations=args.iterations,
        reference_channel=args.reference_channel,
    )


def _denoiser(args):
    """The --denoiser kind, built from the denoiser flags; sweep's grid
    kinds come here unchecked by argparse."""
    if args.denoiser not in DENOISERS:
        raise ArgumentError(f"unknown denoiser kind: {args.denoiser}")
    return DENOISERS[args.denoiser](args)


def _pnp_params(args):
    return PnpParams(
        wpe=_wpe_params(args),
        rho=args.rho,
        mu=args.mu,
        inner_iters=args.inner_iters,
        denoiser=_denoiser(args),
        stop_tol=args.stop_tol,
    )


def _write_trace_csv(path, trace):
    lines = ["iteration,error,change"]
    lines += [f"{i},{record.error:.12g},{record.change:.12g}"
              for i, record in enumerate(trace, 1)]
    text = "\n".join(lines) + "\n"
    _atomic_write(path, lambda tmp: pathlib.Path(tmp).write_text(text))


def cmd_simulate(args):
    clean_mc = read_wav(args.clean)
    if clean_mc.sample_rate != 16000:
        raise ArgumentError("clean input must be sampled at 16 kHz")
    clean = clean_mc.channels[0]
    spec = sample_room(args.preset, args.seed)
    noise = None
    if args.noise == "wgn":
        noise = white_noise(len(clean) + clean.sample_rate,
                            args.seed + 1, clean.sample_rate)
    elif args.noise != "none":
        noise_mc = read_wav(args.noise)
        noise = noise_mc.channels[0]
    snr_db = args.snr_db if noise is not None else None
    scene = render_scene(spec, clean, noise, snr_db, noise_seed=args.seed)
    os.makedirs(args.out_dir, exist_ok=True)
    outputs = {
        "observed.wav": scene.observed,
        "reference.wav": MultichannelTimeSignal((scene.reference,)),
        "clean.wav": MultichannelTimeSignal((scene.clean,)),
        "rirs.wav": MultichannelTimeSignal(scene.rirs),
    }
    for name, signal in outputs.items():
        _atomic_write(os.path.join(args.out_dir, name),
                      functools.partial(write_wav, signal))
    meta = {
        "preset": args.preset,
        "seed": args.seed,
        "t60": f"{spec.t60:.6f}",
        "snr_db": "none" if snr_db is None else f"{snr_db:g}",
        "noise": args.noise,
    }
    meta_text = "".join(f"{key}={value}\n" for key, value in meta.items())
    _atomic_write(os.path.join(args.out_dir, "meta"),
                  lambda tmp: pathlib.Path(tmp).write_text(meta_text))
    sys.stdout.write(meta_text)
    return EXIT_OK


def _stft_config(args):
    return StftConfig(frame_len=args.frame_len, hop=args.hop)


def cmd_dereverb(args):
    observed = analyze_multichannel(read_wav(args.input), _stft_config(args))
    if args.method == "wpe":
        estimate, _, trace = run_wpe(observed, _wpe_params(args))
    else:
        estimate, _, trace = run_pnpwpe(observed, _pnp_params(args))
    out = synthesize(estimate)
    _atomic_write(args.out, functools.partial(
        write_wav, MultichannelTimeSignal((out,))))
    if args.trace_csv:
        _write_trace_csv(args.trace_csv, trace)
    return EXIT_OK


def cmd_evaluate(args):
    reference = read_wav(args.reference).channels[0]
    estimate = read_wav(args.estimate).channels[0]
    report = evaluate_pair(reference, estimate)
    row = [args.estimate, f"{report.cd:.6f}", f"{report.fwsegsnr:.6f}",
           str(report.frames_used)]
    new_file = not os.path.exists(args.csv)
    with open(args.csv, "a", newline="") as fh:
        writer = csv.writer(fh)
        if new_file:
            writer.writerow(["file", "cd", "fwsegsnr", "frames_used"])
        writer.writerow(row)
    sys.stdout.write(",".join(row) + "\n")
    return EXIT_OK


def _parse_grid(args, name, cast):
    """The comma-separated values of the --NAME flag, each cast; [] when
    the flag is absent or holds no value."""
    values = []
    for tok in (getattr(args, name) or "").split(","):
        if not tok.strip():
            continue
        try:
            values.append(cast(tok))
        except ValueError:
            flag = "--" + name.replace("_", "-")
            raise ArgumentError(f"{flag}: invalid value {tok!r}") from None
    return values


def cmd_sweep(args):
    rhos = _parse_grid(args, "rho_grid", float) or [args.rho]
    mus = _parse_grid(args, "mu_grid", float) or [args.mu]
    orders = (_parse_grid(args, "filter_order_grid", int)
              or [_filter_order(args)])
    kinds = _parse_grid(args, "denoiser_grid", str) or [args.denoiser]
    config = _stft_config(args)
    grid = list(itertools.product(rhos, mus, orders, kinds))
    rows = []
    for scene_dir in args.scenes:
        try:
            observed = analyze_multichannel(
                read_wav(os.path.join(scene_dir, "observed.wav")), config)
            reference = read_wav(
                os.path.join(scene_dir, "reference.wav")).channels[0]
        except Exception as exc:
            rows += [[scene_dir, *point, "", "", "", "", f"error:{exc}"]
                     for point in grid]
            continue
        for rho, mu, order, kind in grid:
            point = argparse.Namespace(**(vars(args) | {
                "rho": rho, "mu": mu, "filter_order": order,
                "denoiser": kind}))
            try:
                estimate, _, trace = run_pnpwpe(observed, _pnp_params(point))
                out = synthesize(estimate)
                # Scored as dereverb writes it, through float32 samples, so
                # that dereverb + evaluate reproduce the row.
                out = dataclasses.replace(
                    out, samples=out.samples.astype("<f4"))
                report = evaluate_pair(reference, out)
                rows.append([scene_dir, rho, mu, order, kind,
                             f"{report.cd:.6f}", f"{report.fwsegsnr:.6f}",
                             f"{trace[-1].error:.12g}",
                             plateau_iteration(trace) or "none", "ok"])
            except Exception as exc:
                rows.append([scene_dir, rho, mu, order, kind,
                             "", "", "", "", f"error:{exc}"])
    lines = ["scene,rho,mu,L,denoiser,cd,fwsegsnr,final_error,plateau_iter,"
             "status"]
    lines += [",".join(str(v) for v in row) for row in rows]
    text = "\n".join(lines) + "\n"
    _atomic_write(args.out, lambda tmp: pathlib.Path(tmp).write_text(text))
    return EXIT_OK


def cmd_convergence(args):
    observed = analyze_multichannel(read_wav(args.input), _stft_config(args))
    _, _, trace = run_pnpwpe(observed, _pnp_params(args))
    _write_trace_csv(args.trace_csv, trace)
    sys.stdout.write(f"iterations={len(trace)} "
                     f"plateau_iter={plateau_iteration(trace) or 'none'}\n")
    return EXIT_OK


def build_parser():
    parser = argparse.ArgumentParser(
        prog="dereverb",
        description="Multichannel speech dereverberation toolkit")
    sub = parser.add_subparsers(dest="subcommand", required=True)

    p = sub.add_parser("simulate", help="render a reverberant scene bundle")
    p.add_argument("--preset", choices=sorted(PRESETS), required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--clean", required=True)
    p.add_argument("--noise", default="none",
                   help="'wgn', 'none', or a WAV path")
    p.add_argument("--snr-db", type=float, default=10.0)
    p.add_argument("--out-dir", required=True)
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("dereverb", help="dereverberate a multichannel WAV")
    p.add_argument("--input", required=True)
    p.add_argument("--method", choices=["wpe", "pnpwpe"], default="pnpwpe")
    p.add_argument("--out", required=True)
    p.add_argument("--trace-csv", default=None)
    _add_solver_flags(p)
    p.set_defaults(func=cmd_dereverb)

    p = sub.add_parser("evaluate", help="compute CD and F-SNR")
    p.add_argument("--reference", required=True)
    p.add_argument("--estimate", required=True)
    p.add_argument("--csv", required=True)
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("sweep", help="grid sweep over scenes")
    p.add_argument("--scenes", nargs="+", required=True,
                   help="scene bundle directories")
    p.add_argument("--rho-grid", default=None)
    p.add_argument("--mu-grid", default=None)
    p.add_argument("--filter-order-grid", default=None)
    p.add_argument("--denoiser-grid", default=None)
    p.add_argument("--out", required=True)
    _add_solver_flags(p)
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("convergence", help="emit the solver error trace")
    p.add_argument("--input", required=True)
    p.add_argument("--trace-csv", required=True)
    _add_solver_flags(p)
    p.set_defaults(func=cmd_convergence)
    return parser


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if exc.code is not None else EXIT_ARGS
    try:
        return args.func(args)
    except ArgumentError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_ARGS
    except (DenoiserError, ProtocolError) as exc:
        sys.stderr.write(f"denoiser error: {exc}\n")
        return EXIT_DENOISER
    except (FileNotFoundError, OSError, FormatError) as exc:
        sys.stderr.write(f"i/o error: {exc}\n")
        return EXIT_IO
    except (SingularBandError, GeometryError, MetricError,
            AlignmentError) as exc:
        sys.stderr.write(f"numeric error: {exc}\n")
        return EXIT_NUMERIC


if __name__ == "__main__":
    sys.exit(main())
