import os
import re
import shutil
import struct
import subprocess
import sys
import warnings

import numpy as np
import pytest

import dereverb
from dereverb.cli import (DENOISERS, EXIT_ARGS, EXIT_DENOISER, EXIT_IO,
                          EXIT_NUMERIC, EXIT_OK, _atomic_write, _denoiser,
                          _filter_order, build_parser, main)
from dereverb.denoisers import (ExternalDenoiser, IdentityDenoiser,
                                SoftThresholdDenoiser, WienerDenoiser)
from dereverb.errors import ArgumentError
from dereverb.pnpwpe import plateau_iteration
from dereverb.roomsim import white_noise
from dereverb.wpe import IterationRecord
from dereverb.signals import (MultichannelTimeSignal, TimeSignal, read_wav,
                              write_wav)

from helpers import speech_like


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


def test_dereverb_wpe(tmp_path, scene_dir):
    out = tmp_path / "wpe.wav"
    code = main(["dereverb", "--input",
                 os.path.join(scene_dir, "observed.wav"),
                 "--method", "wpe", "--out", str(out)] + FAST)
    assert code == EXIT_OK
    estimate = read_wav(out)
    observed = read_wav(os.path.join(scene_dir, "observed.wav"))
    assert estimate.num_channels == 1
    assert len(estimate) == len(observed)


def test_dereverb_wpe_with_trace(tmp_path, scene_dir):
    trace = tmp_path / "trace.csv"
    code = main(["dereverb", "--input",
                 os.path.join(scene_dir, "observed.wav"), "--method", "wpe",
                 "--out", str(tmp_path / "wpe.wav"),
                 "--trace-csv", str(trace)] + FAST)
    assert code == EXIT_OK
    lines = trace.read_text().splitlines()
    assert lines[0] == "iteration,error,change"
    rows = [line.split(",") for line in lines[1:]]
    assert [row[0] for row in rows] == ["1", "2"]  # FAST runs 2 iterations
    assert all(float(row[1]) > 0.0 and 0.0 < float(row[2]) < np.inf
               for row in rows)


def test_dereverb_pnpwpe_with_trace(tmp_path, scene_dir):
    out = tmp_path / "pnp.wav"
    trace = tmp_path / "trace.csv"
    code = main(["dereverb", "--input",
                 os.path.join(scene_dir, "observed.wav"),
                 "--method", "pnpwpe", "--denoiser", "wiener",
                 "--out", str(out), "--trace-csv", str(trace)] + FAST)
    assert code == EXIT_OK
    lines = trace.read_text().splitlines()
    assert lines[0] == "iteration,error,change"
    assert len(lines) >= 2
    first = lines[1].split(",")
    assert first[0] == "1" and float(first[1]) >= 0.0
    assert first[2] == "inf"  # R starts at zero


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
    lines = csv_path.read_text().splitlines()
    assert lines[0] == "file,cd,fwsegsnr,frames_used"
    assert len(lines) == 3
    self_row = lines[2].split(",")
    assert float(self_row[1]) < 1e-6       # CD of a signal with itself
    assert float(self_row[2]) == 35.0
    out = capsys.readouterr().out
    assert "35.0" in out


def test_sweep_over_one_scene(tmp_path, scene_dir):
    out = tmp_path / "sweep.csv"
    code = main(["sweep", "--scenes", scene_dir, "--rho-grid", "0.1,1",
                 "--denoiser-grid", "identity", "--filter-order-grid", "2",
                 "--iterations", "2", "--out", str(out)])
    assert code == EXIT_OK
    lines = out.read_text().splitlines()
    assert lines[0] == ("scene,rho,mu,L,denoiser,cd,fwsegsnr,final_error,"
                        "plateau_iter,status")
    assert len(lines) == 3
    assert all(line.endswith(",ok") for line in lines[1:])


def test_sweep_missing_scene_reports_error_rows(tmp_path):
    out = tmp_path / "sweep.csv"
    code = main(["sweep", "--scenes", str(tmp_path / "nope"),
                 "--filter-order-grid", "2", "--out", str(out)])
    assert code == EXIT_OK
    lines = out.read_text().splitlines()
    assert len(lines) == 2
    assert "error:" in lines[1]


def test_sweep_validates_the_grid_order_not_the_base_one(tmp_path, scene_dir):
    out = tmp_path / "sweep.csv"
    code = main(["sweep", "--scenes", scene_dir, "--filter-order", "0",
                 "--filter-order-grid", "4", "--iterations", "1",
                 "--out", str(out)])
    assert code == EXIT_OK
    row = out.read_text().splitlines()[1].split(",")
    assert row[3] == "4" and row[-1] == "ok"


def test_sweep_grid_point_reaches_the_solver(tmp_path, scene_dir):
    flags = ["--iterations", "2", "--inner-iters", "2"]
    out = tmp_path / "sweep.csv"
    assert main(["sweep", "--scenes", scene_dir, "--rho-grid", "50",
                 "--mu-grid", "0.7", "--filter-order-grid", "4",
                 "--denoiser-grid", "wiener", "--out", str(out)]
                + flags) == EXIT_OK
    row = out.read_text().splitlines()[1].split(",")
    assert row[1:5] == ["50.0", "0.7", "4", "wiener"] and row[-1] == "ok"
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
    evaluated = metrics.read_text().splitlines()[1].split(",")
    # cd, fwsegsnr, as printed; on this scene, setting any one of rho, mu, L
    # or the denoiser back to its default moves one of them by 2e-3 or more.
    assert row[5:7] == evaluated[1:3]


def test_sweep_denoiser_grid_skips_empty_kinds(tmp_path, scene_dir):
    out = tmp_path / "sweep.csv"
    assert main(["sweep", "--scenes", scene_dir,
                 "--denoiser-grid", "identity,,fancy", "--out", str(out)]
                + FAST) == EXIT_OK
    statuses = [line.split(",")[-1]
                for line in out.read_text().splitlines()[1:]]
    assert statuses == ["ok", "error:unknown denoiser kind: fancy"]


@pytest.mark.parametrize("flag, value, token", [
    ("--rho-grid", "0.1,abc", "abc"),
    ("--filter-order-grid", "4.5", "4.5"),
])
def test_sweep_malformed_grid_is_a_bad_argument(tmp_path, scene_dir, capsys,
                                                flag, value, token):
    out = tmp_path / "sweep.csv"
    assert main(["sweep", "--scenes", scene_dir, flag, value,
                 "--out", str(out)]) == EXIT_ARGS
    err = capsys.readouterr().err
    assert err.startswith("error:") and flag in err and repr(token) in err
    assert not out.exists()


def test_convergence_trace(tmp_path, scene_dir, capsys):
    trace = tmp_path / "conv.csv"
    code = main(["convergence", "--input",
                 os.path.join(scene_dir, "observed.wav"),
                 "--trace-csv", str(trace)] + FAST)
    assert code == EXIT_OK
    assert trace.read_text().startswith("iteration,error,change")
    out = capsys.readouterr().out
    assert "iterations=" in out and "plateau_iter=" in out


def test_convergence_plateau_matches_its_csv(tmp_path, scene_dir, capsys):
    trace = tmp_path / "conv.csv"
    code = main(["convergence", "--input",
                 os.path.join(scene_dir, "observed.wav"),
                 "--trace-csv", str(trace), "--denoiser", "wiener",
                 "--filter-order", "4", "--iterations", "8",
                 "--stop-tol", "0"])
    assert code == EXIT_OK
    rows = [line.split(",") for line in trace.read_text().splitlines()[1:]]
    records = [IterationRecord(float(error), float(change))
               for _, error, change in rows]
    plateau = plateau_iteration(records)
    assert 1 < plateau < len(records) == 8  # the change settles mid-run
    out = capsys.readouterr().out.split()
    assert out == [f"iterations={len(records)}", f"plateau_iter={plateau}"]


def test_convergence_plateau_none_when_the_last_change_is_large(
        tmp_path, scene_dir, capsys):
    trace = tmp_path / "conv.csv"
    code = main(["convergence", "--input",
                 os.path.join(scene_dir, "observed.wav"),
                 "--trace-csv", str(trace), "--denoiser", "wiener",
                 "--filter-order", "4", "--delay", "2", "--iterations", "5",
                 "--stop-tol", "0"])
    assert code == EXIT_OK
    last_change = float(trace.read_text().splitlines()[-1].split(",")[2])
    assert last_change >= 0.05  # the change has not settled by the end
    assert capsys.readouterr().out.split() == ["iterations=5",
                                               "plateau_iter=none"]


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
        assert type(_denoiser(args)) is cls
    args.denoiser = "wiener"
    assert _denoiser(args).quantile == 0.4
    args.denoiser = "fancy"  # a sweep grid kind, unchecked by argparse
    with pytest.raises(ArgumentError, match="unknown denoiser kind: fancy"):
        _denoiser(args)
    assert main(["dereverb", "--input", "x", "--out", "y",
                 "--denoiser", "fancy"]) == EXIT_ARGS


def test_exit_code_bad_args():
    assert main(["dereverb", "--input", "x"]) == EXIT_ARGS  # --out missing
    assert main(["nonsense"]) == EXIT_ARGS


def test_exit_code_missing_input(tmp_path):
    out = tmp_path / "o.wav"
    assert main(["dereverb", "--input", str(tmp_path / "absent.wav"),
                 "--out", str(out)] + FAST) == EXIT_IO


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


def test_exit_code_invalid_solver_params(tmp_path, scene_dir):
    out = tmp_path / "o.wav"
    assert main(["dereverb", "--input",
                 os.path.join(scene_dir, "observed.wav"),
                 "--out", str(out), "--rho", "0"] + FAST) == EXIT_ARGS


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


def test_cli_import_defers_scipy_signal_and_ndimage():
    src = os.path.dirname(os.path.dirname(dereverb.__file__))
    code = ("import sys; sys.path.insert(0, sys.argv[1]); import dereverb.cli; "
            "print(sorted({'scipy.signal', 'scipy.ndimage'} & set(sys.modules)))")
    out = subprocess.run([sys.executable, "-c", code, src], check=True,
                         capture_output=True, text=True, timeout=60).stdout
    assert out.strip() == "[]"


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
def test_dereverb_loads_only_the_f2py_modules_of_scipy(tmp_path, scene_dir,
                                                       method):
    src = os.path.dirname(os.path.dirname(dereverb.__file__))
    code = ("import sys; sys.path.insert(0, sys.argv[1]); import dereverb.cli; "
            "code = dereverb.cli.main(['dereverb', '--input', sys.argv[2], "
            "'--out', sys.argv[3], *sys.argv[4:]]); "
            "print(code, *sorted(m for m in sys.modules "
            "if m.split('.')[0] == 'scipy' or m.startswith('numpy.f2py')))")
    obs = os.path.join(scene_dir, "observed.wav")
    out = subprocess.run(
        [sys.executable, "-c", code, src, obs, str(tmp_path / "o.wav"),
         *method, *FAST],
        check=True, capture_output=True, text=True, timeout=60).stdout
    code, *modules = out.split()
    assert code == str(EXIT_OK)
    assert {"scipy.linalg._fblas", "scipy.linalg._flapack"} <= set(modules)
    assert not {"scipy", "scipy.linalg", "numpy.f2py"} & set(modules)


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
            "from dereverb.numerics import blas_threads; "
            "code = dereverb.cli.main(['dereverb', '--input', sys.argv[2], "
            "'--out', sys.argv[3], *sys.argv[4:]]); "
            "print(code, blas_threads())")
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


def test_exit_code_empty_clean_wav(tmp_path):
    empty = tmp_path / "empty.wav"
    write_wav(MultichannelTimeSignal((TimeSignal([], 16000),)), empty)
    out = tmp_path / "scene"
    assert main(["simulate", "--preset", "A", "--seed", "4",
                 "--clean", str(empty), "--out-dir", str(out)]) == EXIT_ARGS
    assert not out.exists()


def test_exit_code_clean_wav_not_16khz(tmp_path, capsys):
    clean = tmp_path / "clean8k.wav"
    write_wav(MultichannelTimeSignal((speech_like(1.2, fs=8000, seed=0),)),
              clean)
    out = tmp_path / "scene"
    assert main(["simulate", "--preset", "A", "--seed", "4",
                 "--clean", str(clean), "--out-dir", str(out)]) == EXIT_ARGS
    assert capsys.readouterr().err.startswith("error: ")
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
        (mic_cd, mic_fw), (cd, fw) = [
            (float(row[1]), float(row[2])) for row in
            (line.split(",") for line in csv_path.read_text().splitlines()[1:])]
        wins += cd < mic_cd and fw > mic_fw
    assert wins >= 2
