"""Batch command-line front end: scene simulation, dereverberation (with
its convergence trace), evaluation and parameter sweeps.

Exit codes: 0 success, 2 bad arguments, 3 I/O errors, 4 numeric/metric
errors, 5 external denoiser failures.
"""
from __future__ import annotations

import argparse
import csv
import dataclasses
import functools
import gc
import io
import itertools
import os
import pathlib
import shlex
import sys

from .errors import ArgumentError, DenoiserError, FormatError, NumericError

# Each cmd_* imports the modules it runs, and main adds the flags of the
# subcommand it runs only, as their defaults come from those modules; so
# `import dereverb.cli` loads no numpy and no submodule but errors.

EXIT_OK = 0
EXIT_ARGS = 2
EXIT_IO = 3
EXIT_NUMERIC = 4
EXIT_DENOISER = 5

# Per-preset taps per channel, from a seeded sweep at the default delay and
# iteration count (CHANGES.md): the lowest mean CD on noise-free scenes.
# Its keys are the solver flags' --preset choices, so those need no roomsim;
# a test holds them equal to roomsim.PRESETS.
PRESET_FILTER_ORDER = {"A": 10, "B": 20}

# --method wpe's own defaults, where they are not the library's: 2
# iterations on a PSD floor of 0.03 of each bin's mean power, from a seeded
# comparison (CHANGES.md). These flags parse to None when not given, and
# _settings picks their value by method.
WPE_DEFAULTS = {"iterations": 2, "floor_share": 0.03}

BUILT_FIELDS = ("wpe", "denoiser")  # PnpParams fields other flags build

SWEPT = ("rho", "mu", "filter_order", "denoiser")  # sweep's grid axes

SNR_DB = 10.0  # simulate's --snr-db default; --noise none reads no SNR


def _atomic_write(path, write):
    """Call write(tmp) on a new temp file beside path, then rename it over
    path; on any failure the temp file is removed and path is untouched.
    The temp file gets the mode open(path, "w") gives a new file, 0o666
    less the umask, where tempfile.mkstemp's would be 0o600."""
    tmp = os.path.join(os.path.dirname(os.path.abspath(path)),
                       f"tmp{os.urandom(8).hex()}.tmp")
    try:
        os.close(os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666))
    except OSError as exc:  # name the file asked for, not the temp file
        raise OSError(exc.errno, exc.strerror, path) from None
    try:
        write(tmp)
        try:
            os.replace(tmp, path)
        except OSError as exc:  # name the file asked for alone
            raise OSError(exc.errno, exc.strerror, path) from None
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _denoiser_command(command):
    try:
        return shlex.split(command)
    except ValueError as exc:  # an unclosed quote or a trailing escape
        raise ArgumentError(f"--denoiser-command: {exc}") from None


# Each --denoiser kind: the denoiser flags it reads, at their defaults, and
# how their values build it from the denoisers module. No other kind reads
# a kind's flags.
DENOISERS = {
    "identity": ({}, lambda d: d.IdentityDenoiser()),
    "soft_threshold": ({"threshold": 0.5},
                       lambda d, t: d.SoftThresholdDenoiser(t)),
    "wiener": ({"quantile": 0.3, "min_gain": 0.1},
               lambda d, q, g: d.WienerDenoiser(q, g)),
    "external": ({"denoiser_command": ""},
                 lambda d, c: d.ExternalDenoiser(_denoiser_command(c))),
}


def _add_solver_flags(parser, several=()):
    """The STFT, WPE, PnPWPE and denoiser flags of dereverb and sweep:
    --FIELD-NAME at its default for each field of the three configs, and
    --NAME for each flag a denoiser kind reads. The flags of the settings
    in several take one or more values; their defaults stay single."""
    from .pnpwpe import PnpParams
    from .stft import StftConfig
    from .wpe import WpeParams
    # The flags that parse to None instead, for --preset or --method to
    # pick their value, and their help, which names both defaults.
    picked_help = {name: f"(default {getattr(WpeParams, name)}; {value} "
                         "for dereverb --method wpe)"
                   for name, value in WPE_DEFAULTS.items()}
    picked_help["filter_order"] = (
        f"taps per channel (default {WpeParams.filter_order}; "
        f"{PRESET_FILTER_ORDER['A']} for preset A, "
        f"{PRESET_FILTER_ORDER['B']} for preset B)")
    for cls in (StftConfig, WpeParams, PnpParams):
        for field in dataclasses.fields(cls):
            if field.name in BUILT_FIELDS:
                continue
            parser.add_argument(
                "--" + field.name.replace("_", "-"), type=type(field.default),
                default=None if field.name in picked_help else field.default,
                nargs="+" if field.name in several else None,
                help=picked_help.get(field.name))
    parser.add_argument("--preset", choices=sorted(PRESET_FILTER_ORDER),
                        default=None)
    parser.add_argument("--denoiser", default="identity",
                        choices=list(DENOISERS),
                        nargs="+" if "denoiser" in several else None)
    for kind, (flags, _) in DENOISERS.items():
        for name, default in flags.items():
            parser.add_argument("--" + name.replace("_", "-"), default=default,
                                type=type(default),
                                help=f"read by --denoiser {kind}")


def _config(cls, args, **derived):
    """cls from its fields' solver flags in args, but for those in derived."""
    return cls(**{field.name: getattr(args, field.name)
                  for field in dataclasses.fields(cls)
                  if field.name not in derived}, **derived)


def _filter_order(args):
    from .wpe import WpeParams
    if args.filter_order is not None:
        return args.filter_order
    return PRESET_FILTER_ORDER.get(args.preset, WpeParams.filter_order)


def _denoiser(kind, args):
    """The denoiser of kind, built from the denoiser flags it reads."""
    from . import denoisers
    flags, build = DENOISERS[kind]
    return build(denoisers, *(getattr(args, name) for name in flags))


def _settings(args, method="pnpwpe", **point):
    """WpeParams for method "wpe", else PnpParams, from the solver flags but
    for those in point: a sweep grid point, one value per SWEPT name. A
    WPE_DEFAULTS flag not given takes method's default."""
    from .pnpwpe import PnpParams
    from .wpe import WpeParams
    own = WPE_DEFAULTS if method == "wpe" else {}
    picked = {name: own.get(name, getattr(WpeParams, name))
              for name in WPE_DEFAULTS if getattr(args, name) is None}
    args = argparse.Namespace(**{**vars(args), **picked,
                                 "filter_order": _filter_order(args), **point})
    wpe = _config(WpeParams, args)
    return wpe if method == "wpe" else _config(
        PnpParams, args, wpe=wpe, denoiser=_denoiser(args.denoiser, args))


# A record dataclass's CSV columns and cells; floats take the table's spec.
def _columns(record_type, prefix=""):
    return [prefix + field.name for field in dataclasses.fields(record_type)]


def _cells(record, spec):
    return [format(value, spec) if isinstance(value, float) else str(value)
            for value in dataclasses.astuple(record)]


def _write_csv(path, rows):
    """Write rows to path as CSV, atomically; csv quotes the fields that
    hold a comma, a quote or a newline, such as an error message."""
    def write(tmp):
        with open(tmp, "w", newline="") as fh:
            csv.writer(fh, lineterminator="\n").writerows(rows)

    _atomic_write(path, write)


def cmd_simulate(args):
    from .roomsim import render_scene, sample_room, white_noise
    from .signals import MultichannelTimeSignal, read_wav, write_wav
    if args.noise == "none" and args.snr_db != SNR_DB:
        raise ArgumentError("--snr-db applies to --noise wgn or a WAV only")
    spec = sample_room(args.preset, args.seed)
    clean = read_wav(args.clean).channels[0]
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
        "clean.wav": MultichannelTimeSignal((clean,)),
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


def _check_flags(args, method, kinds):
    """Raise ArgumentError for a flag away from its default that the run
    does not read: a PnPWPE or denoiser flag with --method wpe, else a flag
    of a denoiser kind not among the run's kinds."""
    from .pnpwpe import PnpParams
    if method == "wpe":  # WPE would drop PnPWPE's and its denoiser's
        defaults = {field.name: field.default
                    for field in dataclasses.fields(PnpParams)
                    if field.name not in BUILT_FIELDS}
        defaults["denoiser"] = "identity"
        for flags, _ in DENOISERS.values():
            defaults.update(flags)
        unread = {name: (default, "--method pnpwpe")
                  for name, default in defaults.items()}
    else:
        unread = {name: (default, "--denoiser " + kind)
                  for kind, (flags, _) in DENOISERS.items()
                  if kind not in kinds for name, default in flags.items()}
    for name, (default, applies) in unread.items():
        if getattr(args, name) != default:
            flag = "--" + name.replace("_", "-")
            raise ArgumentError(f"{flag} applies to {applies} only")


def cmd_dereverb(args):
    from .pnpwpe import IterationRecord, estimate, plateau_iteration
    from .signals import MultichannelTimeSignal, read_wav, write_wav
    from .stft import StftConfig, analyze_multichannel
    _check_flags(args, args.method, (args.denoiser,))
    config, params = _config(StftConfig, args), _settings(args, args.method)
    out, trace = estimate(
        analyze_multichannel(read_wav(args.input), config), params)
    _atomic_write(args.out, functools.partial(
        write_wav, MultichannelTimeSignal((out,))))
    if args.trace_csv:
        _write_csv(args.trace_csv, [
            ("iteration", *_columns(IterationRecord)),
            *((i, *_cells(record, ".12g"))
              for i, record in enumerate(trace, 1))])
        plateau = plateau_iteration(trace) or "none"
        sys.stdout.write(f"iterations={len(trace)} plateau_iter={plateau}\n")
    return EXIT_OK


def cmd_evaluate(args):
    from .metrics import MetricReport, evaluate_pair
    from .signals import read_wav
    reference = read_wav(args.reference).channels[0]
    estimate = read_wav(args.estimate).channels[0]
    report = evaluate_pair(reference, estimate)
    header = ["file", *_columns(MetricReport)]
    row = [args.estimate, *_cells(report, ".6f")]
    with open(args.csv, "a+", newline="") as fh:
        fh.seek(0)  # read the file; "a+" writes at the end all the same
        try:
            text = fh.read()
            first = next(csv.reader(io.StringIO(text, newline="")), None)
        except (UnicodeDecodeError, csv.Error):  # not a CSV of text
            first = []
        if first not in (None, header):  # None: an empty file
            raise FormatError("first row is not evaluate's header "
                              f"{','.join(header)}: {args.csv}")
        writer = csv.writer(fh, lineterminator="\n")
        if first is None:
            writer.writerow(header)
        elif not text.endswith("\n"):  # end the last line before the row
            fh.write("\n")
        writer.writerow(row)
    csv.writer(sys.stdout, lineterminator="\n").writerow(row)
    return EXIT_OK


def cmd_sweep(args):
    from .metrics import MetricReport, evaluate_pair
    from .pnpwpe import IterationRecord, estimate, plateau_iteration
    from .signals import read_wav
    from .stft import StftConfig, analyze_multichannel
    axes = (args.rho, args.mu, _filter_order(args), args.denoiser)  # SWEPT's
    grid = list(itertools.product(*(
        values if isinstance(values, list) else [values] for values in axes)))
    _check_flags(args, "pnpwpe", {kind for *_, kind in grid})
    config = _config(StftConfig, args)
    settings = [_settings(args, **dict(zip(SWEPT, point))) for point in grid]
    header = ["scene", *SWEPT, *_columns(MetricReport),
              *_columns(IterationRecord, "final_"), "plateau_iter", "status"]
    blank = [""] * (len(header) - len(SWEPT) - 2)  # error rows' empty cells
    rows = []
    for scene_dir in args.scenes:
        try:
            observed = analyze_multichannel(
                read_wav(os.path.join(scene_dir, "observed.wav")), config)
            reference = read_wav(
                os.path.join(scene_dir, "reference.wav")).channels[0]
        except Exception as exc:
            rows += [[scene_dir, *point, *blank, f"error:{exc}"]
                     for point in grid]
            continue
        for point, params in zip(grid, settings):
            try:
                out, trace = estimate(observed, params)
                report = evaluate_pair(reference, out)
                rows.append([scene_dir, *point, *_cells(report, ".6f"),
                             *_cells(trace[-1], ".12g"),
                             plateau_iteration(trace) or "none", "ok"])
            except Exception as exc:
                rows.append([scene_dir, *point, *blank, f"error:{exc}"])
    _write_csv(args.out, [header, *rows])
    return EXIT_OK


def _simulate_flags(p):
    from .roomsim import PRESETS
    p.add_argument("--preset", choices=sorted(PRESETS), required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--clean", required=True)
    p.add_argument("--noise", default="none",
                   help="'wgn', 'none', or a WAV path")
    p.add_argument("--snr-db", type=float, default=SNR_DB)
    p.add_argument("--out-dir", required=True)


def _dereverb_flags(p):
    p.add_argument("--input", required=True)
    p.add_argument("--method", choices=["wpe", "pnpwpe"], default="pnpwpe")
    p.add_argument("--out", required=True)
    p.add_argument("--trace-csv", default=None)
    _add_solver_flags(p)


def _evaluate_flags(p):
    p.add_argument("--reference", required=True)
    p.add_argument("--estimate", required=True)
    p.add_argument("--csv", required=True)


def _sweep_flags(p):
    p.add_argument("--scenes", nargs="+", required=True,
                   help="scene bundle directories")
    p.add_argument("--out", required=True)
    _add_solver_flags(p, several=SWEPT)


# Each subcommand: its help line, the function adding its flags, and the
# function running it.
SUBCOMMANDS = {
    "simulate": ("render a reverberant scene bundle", _simulate_flags,
                 cmd_simulate),
    "dereverb": ("dereverberate a multichannel WAV", _dereverb_flags,
                 cmd_dereverb),
    "evaluate": ("compute CD and F-SNR", _evaluate_flags, cmd_evaluate),
    "sweep": ("grid sweep over scenes", _sweep_flags, cmd_sweep),
}


def build_parser(subcommand=None):
    """The CLI's parser. Every subcommand is listed, but only `subcommand`
    has its flags, as its flag defaults import the modules it runs; all
    have them when it is None."""
    parser = argparse.ArgumentParser(
        prog="dereverb",
        description="Multichannel speech dereverberation toolkit")
    sub = parser.add_subparsers(dest="subcommand", required=True)
    for name, (help_text, add_flags, func) in SUBCOMMANDS.items():
        p = sub.add_parser(name, help=help_text)
        if subcommand in (None, name):
            add_flags(p)
        p.set_defaults(func=func)
    return parser


def main(argv):
    # argparse runs only the subcommand argv[0] names; help and usage errors
    # print no subcommand's flags, so argv naming none builds none.
    parser = build_parser(argv[0] if argv else "")
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if exc.code is not None else EXIT_ARGS
    try:
        return args.func(args)
    except ArgumentError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_ARGS
    except DenoiserError as exc:
        sys.stderr.write(f"denoiser error: {exc}\n")
        return EXIT_DENOISER
    except OSError as exc:  # FormatError too
        sys.stderr.write(f"i/o error: {exc}\n")
        return EXIT_IO
    except NumericError as exc:
        sys.stderr.write(f"numeric error: {exc}\n")
        return EXIT_NUMERIC


def run():
    """The CLI process: main on sys.argv[1:], then exit with its code.

    Every object left is frozen first. The interpreter's last garbage
    collections would otherwise walk them all, numpy's included, for about
    20 ms, only for the process to end. Cyclic garbage is left to the
    operating system unfinalized; main has closed every file it wrote.
    """
    code = main(sys.argv[1:])
    gc.freeze()
    sys.exit(code)


if __name__ == "__main__":
    run()
