import csv
import dataclasses
import os
import pathlib
import re
import shlex
import shutil
import stat
import struct
import subprocess
import sys
import tempfile
import warnings

import numpy as np
import pytest

import dereverb
from dereverb.cli import (DENOISERS, EXIT_ARGS, EXIT_DENOISER, EXIT_IO,
                          EXIT_NUMERIC, EXIT_OK, SUBCOMMANDS, SWEPT,
                          _atomic_write, _config, _denoiser, _filter_order,
                          _settings, build_parser, main)
from dereverb.errors import (ArgumentError, DenoiserError, FormatError,
                             NumericError, ProtocolError, SingularBandError)
from dereverb.denoisers import (ExternalDenoiser, IdentityDenoiser,
                                SoftThresholdDenoiser, WienerDenoiser)
from dereverb.metrics import MetricReport
from dereverb.pnpwpe import PnpParams, estimate, plateau_iteration
from dereverb.roomsim import white_noise
from dereverb.stft import StftConfig, analyze_multichannel
from dereverb.wpe import IterationRecord, WpeParams
from dereverb.signals import (MultichannelTimeSignal, TimeSignal, read_wav,
                              write_wav)

from helpers import speech_like

BENCH = pathlib.Path(__file__).resolve().parents[1] / "bench"


def columns(record_type, prefix=""):
    return [prefix + field.name for field in dataclasses.fields(record_type)]


# Each CSV's header: its own columns around its records' fields.
TRACE_HEADER = ["iteration", *columns(IterationRecord)]
EVALUATE_HEADER = ["file", *columns(MetricReport)]
SWEEP_HEADER = ["scene", *SWEPT, *columns(MetricReport),
                *columns(IterationRecord, "final_"), "plateau_iter", "status"]


def csv_rows(path):
    with open(path, newline="") as fh:
        return list(csv.reader(fh))


@pytest.fixture(scope="module")
def clean_wav(tmp_path_factory):
    path = tmp_path_factory.mktemp("clean") / "clean.wav"
    clean = speech_like(1.2, seed=0)
    write_wav(MultichannelTimeSignal((clean,)), path)
    return str(path)


@pytest.fixture(scope="module")
def scene_dir(tmp_path_factory, clean_wav):
    out = tmp_path_factory.mktemp("scene")
    code = main(["simulate", "--preset", "A", "--seed", "4",
                 "--clean", clean_wav, "--out-dir", str(out)])
    assert code == EXIT_OK
    return str(out)


FAST = ["--filter-order", "4", "--iterations", "2"]


def test_simulate_writes_bundle(scene_dir):
    for name in ("observed.wav", "reference.wav", "clean.wav", "rirs.wav",
                 "meta"):
        assert os.path.exists(os.path.join(scene_dir, name))
    observed = read_wav(os.path.join(scene_dir, "observed.wav"))
    assert observed.num_channels == 4
    meta = dict(line.split("=", 1) for line in
                open(os.path.join(scene_dir, "meta")).read().splitlines())
    assert meta["preset"] == "A"
    assert meta["seed"] == "4"
    assert 0.4 <= float(meta["t60"]) <= 0.8
    assert meta["noise"] == "none"


def test_simulate_deterministic(tmp_path, clean_wav, scene_dir):
    out = tmp_path / "again"
    assert main(["simulate", "--preset", "A", "--seed", "4",
                 "--clean", clean_wav, "--out-dir", str(out)]) == EXIT_OK
    first = open(os.path.join(scene_dir, "observed.wav"), "rb").read()
    second = open(out / "observed.wav", "rb").read()
    assert first == second


def test_simulate_with_noise(tmp_path, clean_wav):
    out = tmp_path / "noisy"
    code = main(["simulate", "--preset", "A", "--seed", "1",
                 "--clean", clean_wav, "--noise", "wgn", "--snr-db", "10",
                 "--out-dir", str(out)])
    assert code == EXIT_OK
    meta = dict(line.split("=", 1)
                for line in open(out / "meta").read().splitlines())
    assert meta["snr_db"] == "10"
    assert meta["noise"] == "wgn"


def test_dereverb_wpe(tmp_path, scene_dir, capsys):
    out = tmp_path / "wpe.wav"
    code = main(["dereverb", "--input",
                 os.path.join(scene_dir, "observed.wav"),
                 "--method", "wpe", "--out", str(out)] + FAST)
    assert code == EXIT_OK
    assert capsys.readouterr().out == ""  # no --trace-csv, no trace line
    estimate = read_wav(out)
    observed = read_wav(os.path.join(scene_dir, "observed.wav"))
    assert estimate.num_channels == 1
    assert len(estimate) == len(observed)


def test_dereverb_wpe_with_trace(tmp_path, scene_dir, capsys):
    trace = tmp_path / "trace.csv"
    code = main(["dereverb", "--input",
                 os.path.join(scene_dir, "observed.wav"), "--method", "wpe",
                 "--out", str(tmp_path / "wpe.wav"),
                 "--trace-csv", str(trace)] + FAST)
    assert code == EXIT_OK
    header, *rows = csv_rows(trace)
    assert header == TRACE_HEADER
    assert [row[0] for row in rows] == ["1", "2"]  # FAST runs 2 iterations
    records = [IterationRecord(*map(float, row[1:])) for row in rows]
    assert all(record.error > 0.0 and 0.0 < record.change < np.inf
               for record in records)
    plateau = plateau_iteration(records)
    assert capsys.readouterr().out.split() == [
        "iterations=2", f"plateau_iter={plateau or 'none'}"]


def test_dereverb_pnpwpe_with_trace(tmp_path, scene_dir):
    out = tmp_path / "pnp.wav"
    trace = tmp_path / "trace.csv"
    code = main(["dereverb", "--input",
                 os.path.join(scene_dir, "observed.wav"),
                 "--method", "pnpwpe", "--denoiser", "wiener",
                 "--out", str(out), "--trace-csv", str(trace)] + FAST)
    assert code == EXIT_OK
    header, first, *_ = csv_rows(trace)
    assert header == TRACE_HEADER
    first = dict(zip(header, first))
    assert first["iteration"] == "1" and float(first["error"]) >= 0.0
    assert first["change"] == "inf"  # R starts at zero


def test_dereverb_pnpwpe_wiener_takes_leading_digital_silence(tmp_path,
                                                               scene_dir):
    """1.5 s of exact zeros before the scene leave bins whose power and
    quantile floor are both 0; the Wiener gain must not divide 0 by 0."""
    observed = read_wav(os.path.join(scene_dir, "observed.wav"))
    silence = np.zeros((observed.num_channels, int(1.5 * 16000)))
    padded = tmp_path / "silent.wav"
    write_wav(MultichannelTimeSignal.from_array(
        np.concatenate([silence, observed.as_array()], axis=1), 16000),
        padded)
    out = tmp_path / "pnp.wav"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = main(["dereverb", "--input", str(padded), "--out", str(out),
                     "--method", "pnpwpe", "--denoiser", "wiener",
                     "--preset", "A"])
    assert code == EXIT_OK
    assert np.all(np.isfinite(read_wav(out).as_array()))


def test_evaluate_appends_csv(tmp_path, scene_dir, capsys):
    csv_path = tmp_path / "metrics.csv"
    ref = os.path.join(scene_dir, "reference.wav")
    obs = os.path.join(scene_dir, "observed.wav")
    assert main(["evaluate", "--reference", ref, "--estimate", obs,
                 "--csv", str(csv_path)]) == EXIT_OK
    assert main(["evaluate", "--reference", ref, "--estimate", ref,
                 "--csv", str(csv_path)]) == EXIT_OK
    raw = csv_path.read_bytes()
    assert raw.startswith(",".join(EVALUATE_HEADER).encode() + b"\n")
    assert raw.count(b"\n") == 3 and b"\r" not in raw  # as stdout ends lines
    with open(csv_path, newline="") as fh:
        *_, self_row = csv.DictReader(fh)
    assert float(self_row["cd"]) < 1e-6       # CD of a signal with itself
    assert float(self_row["fwsegsnr"]) == 35.0
    out = capsys.readouterr().out
    assert "35.0" in out


def test_evaluate_writes_the_header_into_an_existing_empty_csv(tmp_path,
                                                               scene_dir):
    csv_path = tmp_path / "metrics.csv"
    csv_path.write_text("")
    ref = os.path.join(scene_dir, "reference.wav")
    assert main(["evaluate", "--reference", ref, "--estimate", ref,
                 "--csv", str(csv_path)]) == EXIT_OK
    header, *rows = csv_rows(csv_path)
    assert header == EVALUATE_HEADER and len(rows) == 1


@pytest.mark.parametrize(
    "rows", [[], [["old.wav", *map(str, range(1, len(EVALUATE_HEADER)))]]],
    ids=["header-only", "data-row"])
def test_evaluate_starts_its_row_on_a_line_of_its_own(tmp_path, scene_dir,
                                                      capsys, rows):
    """A CSV whose last line has no line end takes each row on a new line,
    not glued onto that last line."""
    csv_path = tmp_path / "metrics.csv"
    csv_path.write_text("\n".join(",".join(row)
                                  for row in [EVALUATE_HEADER, *rows]))
    ref = os.path.join(scene_dir, "reference.wav")
    printed = []
    for _ in range(2):
        assert main(["evaluate", "--reference", ref, "--estimate", ref,
                     "--csv", str(csv_path)]) == EXIT_OK
        printed += csv.reader([capsys.readouterr().out])
    assert csv_rows(csv_path) == [EVALUATE_HEADER, *rows, *printed]


def test_evaluate_appends_only_to_its_own_csv(tmp_path, scene_dir, capsys):
    """A CSV whose first row is another header, or not text, is refused
    with exit 3 and left as it was; one written with CRLF line ends, as
    evaluate wrote them before, takes the row."""
    ref = os.path.join(scene_dir, "reference.wav")
    trace = tmp_path / "trace.csv"
    assert main(["dereverb", "--input",
                 os.path.join(scene_dir, "observed.wav"), "--method", "wpe",
                 "--out", str(tmp_path / "wpe.wav"),
                 "--trace-csv", str(trace)] + FAST) == EXIT_OK
    binary = tmp_path / "binary.csv"
    binary.write_bytes(b"\xff\xfe\x00file,cd\n")
    capsys.readouterr()
    for other in (trace, binary):
        before = other.read_bytes()
        assert main(["evaluate", "--reference", ref, "--estimate", ref,
                     "--csv", str(other)]) == EXIT_IO
        out, err = capsys.readouterr()
        assert out == "" and err.startswith("i/o error: first row is not")
        assert other.read_bytes() == before
    crlf = tmp_path / "crlf.csv"
    old = ["old.wav", *map(str, range(1, len(EVALUATE_HEADER)))]
    crlf.write_bytes(f"{','.join(EVALUATE_HEADER)}\r\n{','.join(old)}\r\n"
                     .encode())
    assert main(["evaluate", "--reference", ref, "--estimate", ref,
                 "--csv", str(crlf)]) == EXIT_OK
    printed = capsys.readouterr().out
    assert csv_rows(crlf) == [EVALUATE_HEADER, old,
                              next(csv.reader([printed]))]


def test_evaluate_row_passes_the_bench_check(tmp_path, scene_dir, capsys,
                                              monkeypatch):
    """bench/runner.check_row reads the last three fields of the printed
    row as cd, fwsegsnr and frames_used: a MetricReport field declared
    after frames_used fails it, one declared before cd does not."""
    monkeypatch.syspath_prepend(str(BENCH))
    import runner
    ref = os.path.join(scene_dir, "reference.wav")
    obs = os.path.join(scene_dir, "observed.wav")
    assert main(["evaluate", "--reference", ref, "--estimate", obs,
                 "--csv", str(tmp_path / "eval.csv")]) == EXIT_OK
    runner.check_row(capsys.readouterr().out, ref, obs)


def test_each_csv_header_is_its_records_fields(tmp_path, scene_dir):
    """The one pin of each CSV format; every other test reads the header
    lists, so a new record field fails this test alone."""
    assert [",".join(header) for header in (TRACE_HEADER, EVALUATE_HEADER,
                                            SWEEP_HEADER)] == [
        "iteration,error,change",
        "file,cd,fwsegsnr,frames_used",
        "scene,rho,mu,filter_order,denoiser,cd,fwsegsnr,frames_used,"
        "final_error,final_change,plateau_iter,status"]
    ref = os.path.join(scene_dir, "reference.wav")
    obs = os.path.join(scene_dir, "observed.wav")
    trace, metrics, sweep = (tmp_path / name
                             for name in ("trace.csv", "eval.csv", "sweep.csv"))
    assert main(["dereverb", "--input", obs, "--method", "wpe", "--out",
                 str(tmp_path / "wpe.wav"), "--trace-csv", str(trace)]
                + FAST) == EXIT_OK
    assert main(["evaluate", "--reference", ref, "--estimate", obs,
                 "--csv", str(metrics)]) == EXIT_OK
    assert main(["sweep", "--scenes", scene_dir, "--out", str(sweep)]
                + FAST) == EXIT_OK
    for path, header in ((trace, TRACE_HEADER), (metrics, EVALUATE_HEADER),
                         (sweep, SWEEP_HEADER)):
        assert csv_rows(path)[0] == header


def test_evaluate_prints_the_row_it_appends(tmp_path, scene_dir, capsys):
    estimate = tmp_path / "a,b.wav"
    shutil.copy(os.path.join(scene_dir, "observed.wav"), estimate)
    csv_path = tmp_path / "metrics.csv"
    assert main(["evaluate", "--reference",
                 os.path.join(scene_dir, "reference.wav"), "--estimate",
                 str(estimate), "--csv", str(csv_path)]) == EXIT_OK
    with open(csv_path, newline="") as fh:
        *_, appended = csv.reader(fh)
    printed = capsys.readouterr().out.splitlines()[-1]
    assert appended[0] == str(estimate)
    assert next(csv.reader([printed])) == appended


def test_sweep_over_one_scene(tmp_path, scene_dir):
    out = tmp_path / "sweep.csv"
    code = main(["sweep", "--scenes", scene_dir, "--rho", "0.1", "1",
                 "--denoiser", "identity", "--filter-order", "2",
                 "--iterations", "2", "--out", str(out)])
    assert code == EXIT_OK
    header, *rows = csv_rows(out)
    assert header == SWEEP_HEADER
    assert [row[-1] for row in rows] == ["ok", "ok"]


def test_sweep_missing_scene_reports_error_rows(tmp_path):
    out = tmp_path / "sweep.csv"
    code = main(["sweep", "--scenes", str(tmp_path / "nope"),
                 "--filter-order", "2", "--out", str(out)])
    assert code == EXIT_OK
    lines = out.read_text().splitlines()
    assert len(lines) == 2
    assert "error:" in lines[1]


def test_sweep_grid_point_reaches_the_solver(tmp_path, scene_dir):
    flags = ["--iterations", "2", "--inner-iters", "2"]
    out = tmp_path / "sweep.csv"
    assert main(["sweep", "--scenes", scene_dir, "--rho", "50",
                 "--mu", "0.7", "--filter-order", "4",
                 "--denoiser", "wiener", "--out", str(out)]
                + flags) == EXIT_OK
    with open(out, newline="") as fh:
        row = next(csv.DictReader(fh))
    assert [row[name] for name in SWEPT] == ["50.0", "0.7", "4", "wiener"]
    assert row["status"] == "ok"
    est = tmp_path / "est.wav"
    assert main(["dereverb", "--input",
                 os.path.join(scene_dir, "observed.wav"),
                 "--method", "pnpwpe", "--rho", "50", "--mu", "0.7",
                 "--filter-order", "4", "--denoiser", "wiener",
                 "--out", str(est)] + flags) == EXIT_OK
    metrics = tmp_path / "metrics.csv"
    assert main(["evaluate", "--reference",
                 os.path.join(scene_dir, "reference.wav"),
                 "--estimate", str(est), "--csv", str(metrics)]) == EXIT_OK
    with open(metrics, newline="") as fh:
        evaluated = next(csv.DictReader(fh))
    # Every metric as printed; on this scene, setting any one of rho, mu, L
    # or the denoiser back to its default moves cd or fwsegsnr by 2e-3 or
    # more.
    assert ({name: row[name] for name in columns(MetricReport)}
            == {name: evaluated[name] for name in columns(MetricReport)})


def test_sweep_rejects_an_unknown_denoiser_kind(tmp_path, scene_dir, capsys):
    out = tmp_path / "sweep.csv"
    assert main(["sweep", "--scenes", scene_dir,
                 "--denoiser", "identity", "fancy", "--out", str(out)]
                + FAST) == EXIT_ARGS
    assert ("error: argument --denoiser: invalid choice: 'fancy'"
            in capsys.readouterr().err)
    assert not out.exists()


def _sweep_rows(out):
    """The rows of a sweep CSV, each checked to hold the header's fields."""
    header, *rows = csv_rows(out)
    assert all(len(row) == len(header) for row in rows)
    return rows


def test_sweep_quotes_a_read_error_with_a_comma(tmp_path):
    pcm24 = tmp_path / "pcm24"
    pcm24.mkdir()
    fmt = struct.pack("<HHIIHH", 1, 1, 16000, 48000, 3, 24)
    body = (b"fmt " + struct.pack("<I", len(fmt)) + fmt
            + b"data" + struct.pack("<I", 192) + bytes(192))
    (pcm24 / "observed.wav").write_bytes(
        b"RIFF" + struct.pack("<I", 4 + len(body)) + b"WAVE" + body)
    out = tmp_path / "pcm24.csv"
    assert main(["sweep", "--scenes", str(pcm24), "--rho", "0.1", "1",
                 "--out", str(out)] + FAST) == EXIT_OK
    assert [row[-1] for row in _sweep_rows(out)] == [
        "error:unsupported WAV encoding (format=1, bits=24)"] * 2


def test_sweep_quotes_a_denoiser_error_with_a_newline(tmp_path, scene_dir,
                                                      monkeypatch):
    monkeypatch.setattr(tempfile, "tempdir", str(tmp_path))
    failing = ("import sys; sys.stderr.write('bad input, giving up\\n"
               "see log'); sys.exit(3)")
    out = tmp_path / "external.csv"
    assert main(["sweep", "--scenes", scene_dir, "--denoiser",
                 "external", "--denoiser-command",
                 shlex.join([sys.executable, "-c", failing]),
                 "--out", str(out)] + FAST) == EXIT_OK
    [row] = _sweep_rows(out)
    assert row[-1].startswith("error:denoiser command exited 3; stderr: "
                              "bad input, giving up\nsee log (inputs kept")


@pytest.mark.parametrize("flag, values, token", [
    ("--rho", ["0.1", "abc"], "abc"),
    ("--filter-order", ["4.5"], "4.5"),
])
def test_sweep_malformed_grid_is_a_bad_argument(tmp_path, scene_dir, capsys,
                                                flag, values, token):
    out = tmp_path / "sweep.csv"
    assert main(["sweep", "--scenes", scene_dir, flag, *values,
                 "--out", str(out)]) == EXIT_ARGS
    err = capsys.readouterr().err
    assert f"error: argument {flag}: invalid" in err and repr(token) in err
    assert not out.exists()


def test_convergence_trace(tmp_path, scene_dir, capsys):
    trace = tmp_path / "conv.csv"
    code = main(["dereverb", "--input",
                 os.path.join(scene_dir, "observed.wav"),
                 "--out", str(tmp_path / "est.wav"),
                 "--trace-csv", str(trace)] + FAST)
    assert code == EXIT_OK
    assert csv_rows(trace)[0] == TRACE_HEADER
    out = capsys.readouterr().out
    assert "iterations=" in out and "plateau_iter=" in out


def test_convergence_plateau_matches_its_csv(tmp_path, scene_dir, capsys):
    trace = tmp_path / "conv.csv"
    code = main(["dereverb", "--input",
                 os.path.join(scene_dir, "observed.wav"),
                 "--out", str(tmp_path / "est.wav"),
                 "--trace-csv", str(trace), "--denoiser", "wiener",
                 "--filter-order", "4", "--iterations", "8",
                 "--stop-tol", "0"])
    assert code == EXIT_OK
    rows = [line.split(",") for line in trace.read_text().splitlines()[1:]]
    records = [IterationRecord(*map(float, row[1:])) for row in rows]
    plateau = plateau_iteration(records)
    assert 1 < plateau < len(records) == 8  # the change settles mid-run
    out = capsys.readouterr().out.split()
    assert out == [f"iterations={len(records)}", f"plateau_iter={plateau}"]


def test_convergence_plateau_none_when_the_last_change_is_large(
        tmp_path, scene_dir, capsys):
    trace = tmp_path / "conv.csv"
    code = main(["dereverb", "--input",
                 os.path.join(scene_dir, "observed.wav"),
                 "--out", str(tmp_path / "est.wav"),
                 "--trace-csv", str(trace), "--denoiser", "wiener",
                 "--filter-order", "4", "--delay", "2", "--iterations", "5",
                 "--stop-tol", "0"])
    assert code == EXIT_OK
    last_change = float(trace.read_text().splitlines()[-1].split(",")[2])
    assert last_change >= 0.05  # the change has not settled by the end
    assert capsys.readouterr().out.split() == ["iterations=5",
                                               "plateau_iter=none"]


@pytest.mark.parametrize("method, flags, params", [
    ("wpe", ["--filter-order", "4"],  # --method wpe's own defaults
     WpeParams(filter_order=4, iterations=2, floor_share=0.03)),
    ("pnpwpe", ["--denoiser", "wiener"] + FAST,
     PnpParams(WpeParams(filter_order=4, iterations=2),
               denoiser=WienerDenoiser(0.3, 0.1))),
], ids=["wpe", "pnpwpe"])
def test_estimate_is_the_file_dereverb_writes(tmp_path, scene_dir, method,
                                              flags, params):
    """pnpwpe.estimate on params built by hand gives the samples dereverb
    writes with the same flags, and the trace its CSV holds."""
    observed = os.path.join(scene_dir, "observed.wav")
    out, trace_csv = tmp_path / "o.wav", tmp_path / "t.csv"
    assert main(["dereverb", "--input", observed, "--method", method,
                 "--out", str(out), "--trace-csv", str(trace_csv)]
                + flags) == EXIT_OK
    estimated, trace = estimate(
        analyze_multichannel(read_wav(observed), StftConfig()), params)
    written = read_wav(out).channels[0].samples
    assert estimated.samples.tobytes() == written.tobytes()
    assert len(trace) == len(trace_csv.read_text().splitlines()) - 1


def test_preset_sets_filter_order():
    parser = build_parser()
    args = parser.parse_args(["dereverb", "--input", "x", "--out", "y",
                              "--preset", "B"])
    assert _filter_order(args) == 20
    args = parser.parse_args(["dereverb", "--input", "x", "--out", "y",
                              "--preset", "B", "--filter-order", "7"])
    assert _filter_order(args) == 7
    args = parser.parse_args(["dereverb", "--input", "x", "--out", "y"])
    assert _filter_order(args) == 28


def test_method_sets_iterations_and_floor_share():
    """--method wpe defaults to 2 iterations at floor share 0.03; PnPWPE,
    and a flag that is given, keep their values."""
    parser = build_parser()
    args = parser.parse_args(["dereverb", "--input", "x", "--out", "y"])
    assert _settings(args, "wpe") == WpeParams(filter_order=28, iterations=2,
                                               floor_share=0.03)
    assert _settings(args).wpe == WpeParams(filter_order=28)
    args = parser.parse_args(["dereverb", "--input", "x", "--out", "y",
                              "--iterations", "3", "--floor-share", "0"])
    assert _settings(args, "wpe") == WpeParams(filter_order=28)


def test_every_solver_flag_reaches_its_field():
    """Each StftConfig, WpeParams and PnpParams field but wpe and denoiser,
    set by its flag away from its default, holds that value in the configs
    the solver subcommands build."""
    args = build_parser().parse_args([
        "dereverb", "--input", "x", "--out", "y", "--preset", "B",
        "--frame-len", "256", "--hop", "64", "--filter-order", "6",
        "--delay", "4", "--epsilon", "1e-3", "--floor-share", "0.05",
        "--iterations", "2", "--reference-channel", "1", "--rho", "0.5",
        "--mu", "0.7", "--inner-iters", "2", "--stop-tol", "0"])
    expected = {"frame_len": 256, "hop": 64, "filter_order": 6, "delay": 4,
                "epsilon": 1e-3, "floor_share": 0.05, "iterations": 2,
                "reference_channel": 1, "rho": 0.5, "mu": 0.7,
                "inner_iters": 2, "stop_tol": 0.0}
    pnp = _settings(args)
    assert _settings(args, "wpe") == pnp.wpe
    built, defaults = {}, {}
    for config in (_config(StftConfig, args), pnp.wpe, pnp):
        for field in dataclasses.fields(config):
            if field.name not in ("wpe", "denoiser"):
                built[field.name] = getattr(config, field.name)
                defaults[field.name] = field.default
    assert built == expected
    assert all(defaults[name] != value for name, value in expected.items())


def test_every_denoiser_choice_builds_its_class():
    classes = {"identity": IdentityDenoiser,
               "soft_threshold": SoftThresholdDenoiser,
               "wiener": WienerDenoiser, "external": ExternalDenoiser}
    assert list(DENOISERS) == list(classes)  # the --denoiser choices
    parser = build_parser()
    for kind, cls in classes.items():
        args = parser.parse_args(["dereverb", "--input", "x", "--out", "y",
                                  "--denoiser", kind, "--quantile", "0.4",
                                  "--denoiser-command", "true"])
        assert type(_denoiser(args.denoiser, args)) is cls
    assert _denoiser("wiener", args).quantile == 0.4
    assert main(["dereverb", "--input", "x", "--out", "y",
                 "--denoiser", "fancy"]) == EXIT_ARGS


def test_exit_code_bad_args():
    assert main(["dereverb", "--input", "x"]) == EXIT_ARGS  # --out missing
    # one value per flag: only sweep takes several
    assert main(["dereverb", "--input", "x", "--out", "y",
                 "--rho", "0.1", "1"]) == EXIT_ARGS
    assert main(["nonsense"]) == EXIT_ARGS


EXIT_OF_ERROR = [
    (ArgumentError, EXIT_ARGS, "error"),
    (FormatError, EXIT_IO, "i/o error"),
    (OSError, EXIT_IO, "i/o error"),
    (NumericError, EXIT_NUMERIC, "numeric error"),
    (SingularBandError, EXIT_NUMERIC, "numeric error"),
    (DenoiserError, EXIT_DENOISER, "denoiser error"),
    (ProtocolError, EXIT_DENOISER, "denoiser error"),
]


@pytest.mark.parametrize("error, code, label", EXIT_OF_ERROR,
                         ids=[error.__name__ for error, *_ in EXIT_OF_ERROR])
def test_each_error_class_exits_with_its_code_and_label(
        monkeypatch, capsys, error, code, label):
    """A subcommand that raises one of the package's error classes, or
    OSError, exits with that class's code and one stderr line under its
    label; a subclass exits as its parent does."""
    def fail(args):
        raise error("made to fail")

    help_text, add_flags, _ = SUBCOMMANDS["evaluate"]
    monkeypatch.setitem(SUBCOMMANDS, "evaluate", (help_text, add_flags, fail))
    assert main(["evaluate", "--reference", "r.wav", "--estimate", "e.wav",
                 "--csv", "c.csv"]) == code
    assert capsys.readouterr().err == f"{label}: made to fail\n"


def test_exit_code_missing_input(tmp_path):
    out = tmp_path / "o.wav"
    assert main(["dereverb", "--input", str(tmp_path / "absent.wav"),
                 "--out", str(out)] + FAST) == EXIT_IO


@pytest.mark.parametrize("argv, error", [
    (["dereverb", "--iterations", "0"], "iterations must be >= 1"),
    (["dereverb", "--hop", "7"], "hop must divide frame_len"),
    (["dereverb", "--denoiser", "external"],
     "external denoiser requires a command"),
    (["sweep", "--iterations", "0", "--rho", "0.1", "1"],
     "iterations must be >= 1"),
    (["sweep", "--hop", "100"] + FAST, "hop must divide frame_len"),
    (["sweep", "--denoiser", "external"],
     "external denoiser requires a command"),
    (["sweep", "--rho", "-1", "0.1"] + FAST, "rho must be finite and > 0"),
    (["sweep", "--denoiser", "identity", "external"] + FAST,
     "external denoiser requires a command"),
    (["simulate", "--preset", "A", "--seed", "-1"],
     "seed must be non-negative, got -1"),
    (["dereverb", "--method", "wpe", "--denoiser", "wiener", "--quantile",
      "0.5"], "--denoiser applies to --method pnpwpe only"),
    (["dereverb", "--method", "wpe", "--quantile", "0.5"],
     "--quantile applies to --method pnpwpe only"),
    (["simulate", "--preset", "A", "--seed", "4", "--noise", "none",
      "--snr-db", "5"], "--snr-db applies to --noise wgn or a WAV only"),
], ids=["iterations", "hop", "external-without-command",
        "sweep-iterations", "sweep-hop", "sweep-external-without-command",
        "sweep-one-bad-rho", "sweep-one-external-without-command",
        "simulate-negative-seed", "wpe-with-denoiser",
        "wpe-with-denoiser-flag", "simulate-snr-without-noise"])
def test_dereverb_checks_its_flags_before_it_reads_its_input(
        tmp_path, monkeypatch, capsys, argv, error):
    """A bad setting exits 2 with its error line before any file is read,
    and writes nothing: the inputs do not exist, and reading one would
    exit 3. In sweep, one grid point that cannot be built is enough."""
    def read_wav(path):
        raise OSError(f"read {path}")

    monkeypatch.setattr("dereverb.signals.read_wav", read_wav)
    absent, out = str(tmp_path / "absent.wav"), tmp_path / "out"
    io_flags = {"dereverb": ["--input", absent, "--out", str(out)],
                "sweep": ["--scenes", absent, "--out", str(out)],
                "simulate": ["--clean", absent, "--out-dir", str(out)]}
    assert main(argv + io_flags[argv[0]]) == EXIT_ARGS
    assert capsys.readouterr().err == f"error: {error}\n"
    assert not out.exists()


def test_exit_code_malformed_wav(tmp_path):
    def wav(rate, payload):
        fmt = struct.pack("<HHIIHH", 3, 1, rate, 4 * rate, 4, 32)
        body = (b"fmt " + struct.pack("<I", len(fmt)) + fmt
                + b"data" + struct.pack("<I", len(payload)) + payload)
        return b"RIFF" + struct.pack("<I", 4 + len(body)) + b"WAVE" + body

    samples = np.zeros(64, dtype="<f4")
    nonfinite = samples.copy()
    nonfinite[3] = np.inf
    cases = {"partial": wav(16000, samples.tobytes()[:-2]),
             "nonfinite": wav(16000, nonfinite.tobytes()),
             "norate": wav(0, samples.tobytes())}
    for name, raw in cases.items():
        bad = tmp_path / f"{name}.wav"
        bad.write_bytes(raw)
        assert main(["dereverb", "--input", str(bad),
                     "--out", str(tmp_path / "o.wav")] + FAST) == EXIT_IO


@pytest.mark.parametrize("tail, message", [
    (-2, "truncated WAV data chunk"),
    (None, "missing fmt or data chunk"),
], ids=["truncated-data", "no-data-chunk"])
def test_exit_code_malformed_wav_text(tmp_path, capsys, tail, message):
    """read_wav's FormatError for content it cannot read exits 3 with the
    i/o error text."""
    fmt = struct.pack("<HHIIHH", 3, 1, 16000, 64000, 4, 32)
    chunks = b"fmt " + struct.pack("<I", len(fmt)) + fmt
    if tail is not None:
        payload = np.zeros(64, dtype="<f4").tobytes()
        chunks += (b"data" + struct.pack("<I", len(payload)) + payload)[:tail]
    bad = tmp_path / "bad.wav"
    bad.write_bytes(b"RIFF" + struct.pack("<I", 4 + len(chunks)) + b"WAVE"
                    + chunks)
    assert main(["dereverb", "--input", str(bad),
                 "--out", str(tmp_path / "o.wav")] + FAST) == EXIT_IO
    assert capsys.readouterr().err == f"i/o error: {message} in {bad}\n"


def test_exit_code_negative_reference_channel(tmp_path, scene_dir, capsys):
    out = tmp_path / "o.wav"
    assert main(["dereverb", "--input",
                 os.path.join(scene_dir, "observed.wav"), "--out", str(out),
                 "--reference-channel", "-1"] + FAST) == EXIT_ARGS
    assert (capsys.readouterr().err
            == "error: reference_channel must be >= 0\n")
    assert not out.exists()


def test_exit_code_invalid_solver_params(tmp_path, scene_dir):
    out = tmp_path / "o.wav"
    assert main(["dereverb", "--input",
                 os.path.join(scene_dir, "observed.wav"),
                 "--out", str(out), "--rho", "0"] + FAST) == EXIT_ARGS


@pytest.mark.parametrize("flag, value", [
    ("--rho", "5"), ("--mu", "0.2"), ("--inner-iters", "2"),
    ("--stop-tol", "0"),
])
def test_dereverb_wpe_rejects_a_pnpwpe_only_flag_away_from_its_default(
        tmp_path, scene_dir, capsys, flag, value):
    out = tmp_path / "o.wav"
    argv = ["dereverb", "--input", os.path.join(scene_dir, "observed.wav"),
            "--out", str(out), "--method", "wpe"] + FAST
    assert main(argv + [flag, value]) == EXIT_ARGS
    assert capsys.readouterr().err == (
        f"error: {flag} applies to --method pnpwpe only\n")
    assert not out.exists()


@pytest.mark.parametrize("subcommand, flags, flag, kind", [
    ("dereverb", ["--denoiser", "wiener", "--denoiser-command",
                  "/nonexistent"], "--denoiser-command", "external"),
    ("dereverb", ["--denoiser", "wiener", "--threshold", "7"], "--threshold",
     "soft_threshold"),
    ("dereverb", ["--denoiser", "soft_threshold", "--quantile", "0.9"],
     "--quantile", "wiener"),
    ("dereverb", ["--min-gain", "0.9"], "--min-gain", "wiener"),
    ("sweep", ["--denoiser", "identity", "soft_threshold", "--quantile",
               "0.9"], "--quantile", "wiener"),
    ("sweep", ["--denoiser", "identity", "--min-gain", "0.2"], "--min-gain",
     "wiener"),
    ("sweep", ["--denoiser", "wiener", "--threshold", "7"], "--threshold",
     "soft_threshold"),
])
def test_pnpwpe_rejects_a_denoiser_flag_no_kind_of_the_run_reads(
        tmp_path, scene_dir, capsys, subcommand, flags, flag, kind):
    """A denoiser flag away from its default exits 2 and writes nothing
    unless a denoiser kind of the run reads it: dereverb's --denoiser, or
    one of sweep's --denoiser kinds."""
    out = tmp_path / "out"
    if subcommand == "dereverb":
        argv = ["dereverb", "--input",
                os.path.join(scene_dir, "observed.wav")]
    else:
        argv = ["sweep", "--scenes", scene_dir]
    assert main(argv + ["--out", str(out)] + FAST + flags) == EXIT_ARGS
    assert capsys.readouterr().err == (
        f"error: {flag} applies to --denoiser {kind} only\n")
    assert not out.exists()


@pytest.mark.parametrize("flags, setting", [
    (["--rho", "inf"], "rho"),
    (["--epsilon", "inf"], "epsilon"),
    (["--stop-tol", "nan"], "stop_tol"),
    (["--denoiser", "soft_threshold", "--threshold", "nan"], "threshold"),
])
def test_exit_code_non_finite_solver_setting(tmp_path, scene_dir, capsys,
                                             flags, setting):
    out = tmp_path / "o.wav"
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = main(["dereverb", "--input",
                     os.path.join(scene_dir, "observed.wav"),
                     "--out", str(out)] + FAST + flags)
    assert code == EXIT_ARGS
    assert capsys.readouterr().err.startswith(f"error: {setting} must be")
    assert not caught and not out.exists()


def test_exit_code_external_denoiser(tmp_path, scene_dir, capsys):
    out = tmp_path / "o.wav"
    obs = os.path.join(scene_dir, "observed.wav")
    assert main(["dereverb", "--input", obs, "--out", str(out),
                 "--denoiser", "external"] + FAST) == EXIT_ARGS
    failing = f"{sys.executable} -c 'import sys; sys.exit(1)'"
    assert main(["dereverb", "--input", obs, "--out", str(out),
                 "--denoiser", "external", "--denoiser-command",
                 failing] + FAST) == EXIT_DENOISER
    kept = re.search(r"inputs kept in (.+?)\)", capsys.readouterr().err)
    assert kept
    shutil.rmtree(kept[1])


def test_exit_code_missing_external_denoiser(tmp_path, scene_dir, capsys):
    obs = os.path.join(scene_dir, "observed.wav")
    missing = str(tmp_path / "no_such_denoiser")
    assert main(["dereverb", "--input", obs, "--out", str(tmp_path / "o.wav"),
                 "--denoiser", "external", "--denoiser-command", missing]
                + FAST) == EXIT_DENOISER
    kept = re.search(r"inputs kept in (.+?)\)", capsys.readouterr().err)
    assert kept and os.path.exists(os.path.join(kept[1], "in.pnpspec"))
    shutil.rmtree(kept[1])


@pytest.mark.parametrize("with_trace", [False, True],
                         ids=["dereverb---out", "dereverb---trace-csv"])
def test_exit_code_malformed_denoiser_command(tmp_path, scene_dir, capsys,
                                              with_trace):
    out, trace = tmp_path / "out", tmp_path / "trace.csv"
    assert main(["dereverb", "--input",
                 os.path.join(scene_dir, "observed.wav"), "--out", str(out),
                 *(["--trace-csv", str(trace)] if with_trace else []),
                 "--denoiser", "external", "--denoiser-command", 'foo "bar']
                + FAST) == EXIT_ARGS
    err = capsys.readouterr().err
    assert err == "error: --denoiser-command: No closing quotation\n"
    assert not out.exists() and not trace.exists()


COPY_INPUT = "import shutil, sys; shutil.copy(sys.argv[1], sys.argv[2])"
NON_UTF8_STDERR = "; sys.stderr.buffer.write(b'\\xff'); sys.stderr.flush()"


def _external_dereverb(tmp_path, scene_dir, name, code):
    """Run dereverb with `python -c code` as the external denoiser; return
    its exit code and output path."""
    out = tmp_path / f"{name}.wav"
    command = shlex.join([sys.executable, "-c", code])
    return main(["dereverb", "--input",
                 os.path.join(scene_dir, "observed.wav"), "--out", str(out),
                 "--denoiser", "external", "--denoiser-command", command]
                + FAST), out


def test_external_denoiser_non_utf8_stderr_is_not_an_error(
        tmp_path, scene_dir, monkeypatch):
    work = tmp_path / "work"
    work.mkdir()
    monkeypatch.setattr(tempfile, "tempdir", str(work))
    code, out = _external_dereverb(tmp_path, scene_dir, "noisy",
                                   COPY_INPUT + NON_UTF8_STDERR)
    assert code == EXIT_OK
    assert not os.listdir(work)  # each pnpspec_* directory removed
    code, copied = _external_dereverb(tmp_path, scene_dir, "quiet",
                                      COPY_INPUT)
    assert code == EXIT_OK
    # The copy is the identity denoiser over the wire.
    assert out.read_bytes() == copied.read_bytes()


def test_external_denoiser_non_utf8_stderr_on_failure(tmp_path, scene_dir,
                                                      capsys, monkeypatch):
    monkeypatch.setattr(tempfile, "tempdir", str(tmp_path))
    code, out = _external_dereverb(tmp_path, scene_dir, "failed",
                                   COPY_INPUT + NON_UTF8_STDERR
                                   + "; sys.exit(3)")
    assert code == EXIT_DENOISER and not out.exists()
    err = capsys.readouterr().err
    assert err.startswith("denoiser error: denoiser command exited 3; "
                          "stderr: \ufffd")


def test_cli_import_and_evaluate_load_no_scipy(tmp_path, scene_dir):
    src = os.path.dirname(os.path.dirname(dereverb.__file__))
    code = ("import sys; sys.path.insert(0, sys.argv[1]); import dereverb.cli; "
            "print(sorted(m for m in sys.modules if m.startswith('scipy'))); "
            "code = dereverb.cli.main(['evaluate', '--reference', sys.argv[2], "
            "'--estimate', sys.argv[3], '--csv', sys.argv[4]]); "
            "print(code, 'scipy.signal' in sys.modules)")
    ref = os.path.join(scene_dir, "reference.wav")
    obs = os.path.join(scene_dir, "observed.wav")
    out = subprocess.run(
        [sys.executable, "-c", code, src, ref, obs, str(tmp_path / "m.csv")],
        check=True, capture_output=True, text=True, timeout=60).stdout
    lines = out.splitlines()
    assert lines[0] == "[]"
    assert lines[-1] == f"{EXIT_OK} False"


@pytest.mark.parametrize("argv, expected", [
    (["evaluate", "--reference", "{ref}", "--estimate", "{obs}",
      "--csv", "{csv}"], EXIT_OK),
    (["nonsense"], EXIT_ARGS),
])
def test_cli_process_exits_with_the_code_of_main_and_its_objects_frozen(
        tmp_path, scene_dir, argv, expected):
    """`python -m dereverb.cli` exits through run(), which freezes every
    object first, so the interpreter's last collections walk none."""
    src = os.path.dirname(os.path.dirname(dereverb.__file__))
    code = ("import atexit, gc, runpy, sys\n"
            "sys.path.insert(0, sys.argv.pop(1))\n"
            "atexit.register(lambda: print(gc.get_freeze_count() > 0))\n"
            "runpy.run_module('dereverb.cli', run_name='__main__')\n")
    paths = {"ref": os.path.join(scene_dir, "reference.wav"),
             "obs": os.path.join(scene_dir, "observed.wav"),
             "csv": str(tmp_path / "m.csv")}
    done = subprocess.run(
        [sys.executable, "-c", code, src,
         *(arg.format(**paths) for arg in argv)],
        capture_output=True, text=True, timeout=60)
    assert done.returncode == expected
    assert done.stdout.splitlines()[-1] == "True"


def test_simulate_loads_no_scipy(tmp_path, clean_wav):
    """simulate's FFTs are numpy's: scipy.fft or scipy.signal would add
    about 0.3 s of imports to every scene."""
    src = os.path.dirname(os.path.dirname(dereverb.__file__))
    code = ("import sys; sys.path.insert(0, sys.argv[1]); import dereverb.cli; "
            "code = dereverb.cli.main(['simulate', '--preset', 'B', "
            "'--seed', '4', '--clean', sys.argv[2], '--noise', 'wgn', "
            "'--out-dir', sys.argv[3]]); "
            "print(code, *sorted(m for m in sys.modules "
            "if m.split('.')[0] == 'scipy'))")
    out = subprocess.run(
        [sys.executable, "-c", code, src, clean_wav, str(tmp_path / "scene")],
        check=True, capture_output=True, text=True, timeout=60).stdout
    assert out.splitlines()[-1] == str(EXIT_OK)
    assert (tmp_path / "scene" / "observed.wav").exists()


@pytest.mark.parametrize("method", [
    ["--method", "wpe"],
    ["--method", "pnpwpe", "--denoiser", "wiener"],
])
def test_dereverb_loads_no_scipy_and_maps_one_openblas(tmp_path, scene_dir,
                                                       method):
    """The band solves call the OpenBLAS that numpy bundles, so a solver
    process loads no scipy module and, where /proc/self/maps shows it,
    maps one OpenBLAS library: numpy's."""
    src = os.path.dirname(os.path.dirname(dereverb.__file__))
    code = ("import os, sys; sys.path.insert(0, sys.argv[1]); "
            "import dereverb.cli; "
            "code = dereverb.cli.main(['dereverb', '--input', sys.argv[2], "
            "'--out', sys.argv[3], *sys.argv[4:]]); "
            "print(code, *sorted(m for m in sys.modules "
            "if m.split('.')[0] == 'scipy' or m.startswith('numpy.f2py'))); "
            "maps = '/proc/self/maps'; "
            "print(*sorted({line.split()[-1] for line in open(maps) "
            "if 'openblas' in os.path.basename(line.split()[-1])}) "
            "if os.path.exists(maps) else 'no-maps')")
    obs = os.path.join(scene_dir, "observed.wav")
    out = subprocess.run(
        [sys.executable, "-c", code, src, obs, str(tmp_path / "o.wav"),
         *method, *FAST],
        check=True, capture_output=True, text=True, timeout=60).stdout
    loaded, mapped = out.splitlines()[-2:]
    assert loaded == str(EXIT_OK)
    if mapped != "no-maps":
        assert len(mapped.split()) == 1, mapped


@pytest.mark.parametrize("method", [
    ["--method", "wpe"],
    ["--method", "pnpwpe", "--denoiser", "wiener"],
])
def test_dereverb_output_does_not_depend_on_the_blas_thread_count(
        tmp_path, scene_dir, method):
    """Each band is solved at one BLAS thread, so one worker thread and two
    write the same bytes."""
    src = os.path.dirname(os.path.dirname(dereverb.__file__))
    code = ("import sys; sys.path.insert(0, sys.argv[1]); import dereverb.cli; "
            "from dereverb.numerics import one_blas_thread; "
            "code = dereverb.cli.main(['dereverb', '--input', sys.argv[2], "
            "'--out', sys.argv[3], *sys.argv[4:]])\n"
            "with one_blas_thread() as count: print(code, count)")
    obs = os.path.join(scene_dir, "observed.wav")
    written, reported = [], []
    for threads in ("1", "2"):
        out = tmp_path / f"out{threads}.wav"
        lines = subprocess.run(
            [sys.executable, "-c", code, src, obs, str(out), *method],
            env=dict(os.environ, OPENBLAS_NUM_THREADS=threads), check=True,
            capture_output=True, text=True, timeout=60).stdout.splitlines()
        code_printed, count = lines[-1].split()
        assert code_printed == str(EXIT_OK)
        reported.append(count)
        written.append(out.read_bytes())
    assert reported[0] == "1"
    assert written[0] == written[1], f"BLAS threads {reported}"


def test_readme_library_quick_start_runs(tmp_path, scene_dir, monkeypatch,
                                         capsys):
    """The one Python block under the README's "Library quick start" runs
    as written, beside a scene/ directory."""
    readme = pathlib.Path(dereverb.__file__).parents[2] / "README.md"
    section = readme.read_text().split("\n## Library quick start\n")[1]
    section = section.split("\n## ")[0]
    blocks = re.findall(r"```python\n(.*?)```", section, re.DOTALL)
    assert len(blocks) == 1
    shutil.copytree(scene_dir, tmp_path / "scene")
    monkeypatch.chdir(tmp_path)
    exec(compile(blocks[0], "README.md", "exec"), {})
    printed = capsys.readouterr().out.splitlines()
    assert re.fullmatch(r"\d+ iterations, final error \S+", printed[0])
    assert (tmp_path / "est.wav").stat().st_size > 0


def test_readme_cli_examples_parse():
    """Each `dereverb ...` command in the README's sh blocks, its `\\`
    continuation lines joined, parses with the CLI's parser."""
    readme = pathlib.Path(dereverb.__file__).parents[2] / "README.md"
    blocks = re.findall(r"```sh\n(.*?)```", readme.read_text(), re.DOTALL)
    commands = [line for block in blocks
                for line in block.replace("\\\n", " ").splitlines()
                if line.startswith("dereverb ")]
    assert commands
    parser = build_parser()
    for command in commands:
        try:
            parser.parse_args(shlex.split(command)[1:])
        except SystemExit:
            pytest.fail(f"README command does not parse: {command}")


def test_exit_code_empty_clean_wav(tmp_path):
    empty = tmp_path / "empty.wav"
    write_wav(MultichannelTimeSignal((TimeSignal([], 16000),)), empty)
    out = tmp_path / "scene"
    assert main(["simulate", "--preset", "A", "--seed", "4",
                 "--clean", str(empty), "--out-dir", str(out)]) == EXIT_ARGS
    assert not out.exists()


def test_exit_code_negative_seed(tmp_path, clean_wav, capsys):
    out = tmp_path / "scene"
    assert main(["simulate", "--preset", "A", "--seed", "-1",
                 "--clean", clean_wav, "--out-dir", str(out)]) == EXIT_ARGS
    assert re.match(r"error: .*seed", capsys.readouterr().err)
    assert not out.exists()


def test_exit_code_clean_wav_not_16khz(tmp_path, capsys):
    clean = tmp_path / "clean8k.wav"
    write_wav(MultichannelTimeSignal((speech_like(1.2, fs=8000, seed=0),)),
              clean)
    out = tmp_path / "scene"
    assert main(["simulate", "--preset", "A", "--seed", "4",
                 "--clean", str(clean), "--out-dir", str(out)]) == EXIT_ARGS
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "8000 Hz" in err
    assert not out.exists()


@pytest.mark.parametrize("snr_db", ["nan", "inf"])
def test_exit_code_non_finite_snr_db(tmp_path, clean_wav, capsys, snr_db):
    out = tmp_path / "scene"
    assert main(["simulate", "--preset", "A", "--seed", "4",
                 "--clean", clean_wav, "--noise", "wgn", "--snr-db", snr_db,
                 "--out-dir", str(out)]) == EXIT_ARGS
    assert re.match(r"error: .*snr_db", capsys.readouterr().err)
    assert not out.exists()


def test_exit_code_noise_wav_at_another_rate(tmp_path, clean_wav, capsys):
    noise = tmp_path / "noise8k.wav"
    write_wav(MultichannelTimeSignal((white_noise(40000, 0, 8000),)), noise)
    out = tmp_path / "scene"
    assert main(["simulate", "--preset", "A", "--seed", "4",
                 "--clean", clean_wav, "--noise", str(noise),
                 "--out-dir", str(out)]) == EXIT_ARGS
    assert "8000 Hz" in capsys.readouterr().err
    assert not out.exists()


def test_atomic_write_failure_leaves_target_untouched(tmp_path):
    target = tmp_path / "out.csv"
    target.write_text("old\n")

    def failing(tmp):
        with open(tmp, "w") as fh:
            fh.write("partial")
        raise OSError("disk full")

    with pytest.raises(OSError):
        _atomic_write(str(target), failing)
    assert target.read_text() == "old\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["out.csv"]


def test_write_into_a_missing_directory_names_the_target(tmp_path, scene_dir,
                                                        capsys):
    target = tmp_path / "missing" / "o.wav"
    assert main(["dereverb", "--input",
                 os.path.join(scene_dir, "observed.wav"), "--method", "wpe",
                 "--out", str(target)] + FAST) == EXIT_IO
    err = capsys.readouterr().err
    assert err.startswith("i/o error: [Errno 2]")
    assert repr(str(target)) in err and ".tmp" not in err
    assert list(tmp_path.rglob("*")) == []


def test_failed_rename_names_the_target(tmp_path, scene_dir, capsys):
    target = tmp_path / "D" / "o.wav"
    target.mkdir(parents=True)  # os.replace of a file onto it fails
    assert main(["dereverb", "--input",
                 os.path.join(scene_dir, "observed.wav"), "--method", "wpe",
                 "--out", str(target)] + FAST) == EXIT_IO
    err = capsys.readouterr().err
    assert "o.wav" in err and ".tmp" not in err
    assert list(target.parent.iterdir()) == [target]  # no temp file left
    assert list(target.iterdir()) == []


@pytest.mark.parametrize("umask, mode", [(0o022, 0o644), (0o002, 0o664)],
                         ids=["umask022", "umask002"])
def test_written_files_take_their_mode_from_the_umask(tmp_path, clean_wav,
                                                     umask, mode):
    """Each file simulate and dereverb write, a trace CSV included, has
    the mode open(path, "w") would give it: 0o666 less the umask."""
    scene = tmp_path / "scene"
    old = os.umask(umask)
    try:
        assert main(["simulate", "--preset", "A", "--seed", "4", "--clean",
                     clean_wav, "--out-dir", str(scene)]) == EXIT_OK
        assert main(["dereverb", "--input", str(scene / "observed.wav"),
                     "--method", "wpe", "--out", str(tmp_path / "out.wav"),
                     "--trace-csv", str(tmp_path / "trace.csv")]
                    + FAST) == EXIT_OK
    finally:
        os.umask(old)
    written = [*scene.iterdir(), tmp_path / "out.wav", tmp_path / "trace.csv"]
    assert len(written) == 7
    assert {path.name: stat.S_IMODE(path.stat().st_mode)
            for path in written} == {path.name: mode for path in written}


def test_exit_code_metric_error(tmp_path, scene_dir):
    silent = tmp_path / "silent.wav"
    write_wav(MultichannelTimeSignal((TimeSignal(np.zeros(16000), 16000),)),
              silent)
    ref = os.path.join(scene_dir, "reference.wav")
    assert main(["evaluate", "--reference", str(silent), "--estimate", ref,
                 "--csv", str(tmp_path / "m.csv")]) == EXIT_NUMERIC


@pytest.mark.parametrize("preset", ["A", "B"])
def test_defaults_dereverberate_noise_free_scenes(tmp_path, preset):
    """`simulate --noise none`, `dereverb` with defaults plus --preset, then
    `evaluate`: the output beats the unprocessed microphone on both CD and
    F-SNR for at least 2 of 3 seeds. The scenes are noise-free because under
    10 dB WGN CD sits at its 10 dB clamp for the microphone and the output
    alike, so it cannot tell them apart."""
    wins = 0
    for seed in (5, 6, 7):
        scene = tmp_path / str(seed)
        clean = tmp_path / f"clean{seed}.wav"
        write_wav(MultichannelTimeSignal((speech_like(3.0, seed=seed),)),
                  clean)
        assert main(["simulate", "--preset", preset, "--seed", str(seed),
                     "--clean", str(clean), "--noise", "none",
                     "--out-dir", str(scene)]) == EXIT_OK
        estimate = scene / "est.wav"
        assert main(["dereverb", "--input", str(scene / "observed.wav"),
                     "--out", str(estimate), "--preset", preset]) == EXIT_OK
        csv_path = scene / "metrics.csv"
        for wav in (scene / "observed.wav", estimate):  # mic 0, then output
            assert main(["evaluate", "--reference",
                         str(scene / "reference.wav"), "--estimate", str(wav),
                         "--csv", str(csv_path)]) == EXIT_OK
        with open(csv_path, newline="") as fh:
            (mic_cd, mic_fw), (cd, fw) = [
                (float(row["cd"]), float(row["fwsegsnr"]))
                for row in csv.DictReader(fh)]
        wins += cd < mic_cd and fw > mic_fw
    assert wins >= 2
