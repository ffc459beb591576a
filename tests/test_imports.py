"""What each CLI process imports.

`dereverb/__init__.py` runs no code, and the CLI imports the modules of
the subcommand it runs only, and none for help or a usage error; the
subprocess tests below run in fresh interpreters, where sys.modules shows
that.
"""
import os
import subprocess
import sys

import pytest

import dereverb
from dereverb import roomsim
from dereverb.cli import PRESET_FILTER_ORDER, SUBCOMMANDS, build_parser, main
from dereverb.signals import MultichannelTimeSignal, write_wav

from helpers import speech_like

SRC = os.path.dirname(os.path.dirname(dereverb.__file__))

# The dereverb modules each subcommand process holds after main, beyond the
# package and dereverb.cli.
SIMULATE_MODULES = {"errors", "signals", "roomsim"}
EVALUATE_MODULES = {"errors", "signals", "metrics"}


def _loaded(code, *args):
    """The dereverb modules and whether numpy is loaded after running code,
    with SRC first on sys.path, in a fresh interpreter."""
    script = (f"import sys; sys.path.insert(0, {SRC!r})\n{code}\n"
              "print(' '.join(sorted(m for m in sys.modules "
              "if m.startswith('dereverb.'))))\n"
              "print('numpy' in sys.modules)\n")
    out = subprocess.run([sys.executable, "-c", script, *args], check=True,
                         capture_output=True, text=True, timeout=120).stdout
    *_, modules, numpy = out.splitlines()
    return {m.split(".", 1)[1] for m in modules.split()}, numpy == "True"


def _main_code(argv_expr):
    return ("from dereverb.cli import main\n"
            f"assert main({argv_expr}) == 0")


@pytest.fixture(scope="module")
def scene(tmp_path_factory):
    out = tmp_path_factory.mktemp("imports")
    clean = out / "clean.wav"
    write_wav(MultichannelTimeSignal((speech_like(0.6, seed=0),)), clean)
    assert main(["simulate", "--preset", "A", "--seed", "4", "--clean",
                 str(clean), "--out-dir", str(out / "scene")]) == 0
    return out


@pytest.mark.parametrize("code", ["import dereverb", "import dereverb.cli"])
def test_import_loads_no_numpy_and_no_submodule_but_errors(code):
    modules, numpy = _loaded(code)
    assert not numpy
    assert modules <= {"cli", "errors"}


@pytest.mark.parametrize("argv, code", [(["--help"], 0), (["bogus"], 2)],
                         ids=["help", "bogus"])
def test_help_and_usage_errors_load_no_numpy_and_no_submodule_but_errors(
        argv, code):
    modules, numpy = _loaded("from dereverb.cli import main\n"
                             f"assert main({argv!r}) == {code}")
    assert not numpy
    assert modules == {"cli", "errors"}


def test_simulate_loads_only_its_modules(scene, tmp_path):
    argv = ("['simulate', '--preset', 'A', '--seed', '4', '--clean', "
            "sys.argv[1], '--out-dir', sys.argv[2]]")
    modules, _ = _loaded(_main_code(argv), str(scene / "clean.wav"),
                         str(tmp_path / "scene"))
    assert modules == {"cli"} | SIMULATE_MODULES


def test_evaluate_loads_only_its_modules(scene, tmp_path):
    argv = ("['evaluate', '--reference', sys.argv[1], '--estimate', "
            "sys.argv[2], '--csv', sys.argv[3]]")
    modules, _ = _loaded(_main_code(argv),
                         str(scene / "scene" / "reference.wav"),
                         str(scene / "scene" / "observed.wav"),
                         str(tmp_path / "m.csv"))
    assert modules == {"cli"} | EVALUATE_MODULES


def test_dereverb_loads_neither_roomsim_nor_metrics(scene, tmp_path):
    argv = ("['dereverb', '--input', sys.argv[1], '--out', sys.argv[2], "
            "'--denoiser', 'wiener', '--preset', 'A', '--iterations', '2']")
    modules, _ = _loaded(_main_code(argv),
                         str(scene / "scene" / "observed.wav"),
                         str(tmp_path / "o.wav"))
    assert {"pnpwpe", "wpe", "stft", "denoisers"} <= modules
    assert not {"roomsim", "metrics"} & modules


def test_pnpwpe_with_the_wiener_denoiser_loads_no_numpy_ma(scene, tmp_path):
    argv = ("['dereverb', '--input', sys.argv[1], '--out', sys.argv[2], "
            "'--method', 'pnpwpe', '--denoiser', 'wiener', '--preset', 'A', "
            "'--iterations', '2']")
    code = _main_code(argv) + "\nassert 'numpy.ma' not in sys.modules"
    modules, _ = _loaded(code, str(scene / "scene" / "observed.wav"),
                         str(tmp_path / "o.wav"))
    assert "denoisers" in modules


def test_wpe_loads_no_subprocess(scene, tmp_path):
    argv = ("['dereverb', '--input', sys.argv[1], '--out', sys.argv[2], "
            "'--method', 'wpe', '--preset', 'A', '--iterations', '2']")
    code = _main_code(argv) + "\nassert 'subprocess' not in sys.modules"
    modules, _ = _loaded(code, str(scene / "scene" / "observed.wav"),
                         str(tmp_path / "o.wav"))
    assert "wpe" in modules


@pytest.mark.parametrize("argv", [["--help"]]
                         + [[name, "--help"] for name in SUBCOMMANDS])
def test_help_is_the_text_of_the_fully_built_parser(argv, capsys):
    with pytest.raises(SystemExit):
        build_parser().parse_args(argv)
    full = capsys.readouterr().out
    assert main(argv) == 0
    assert capsys.readouterr().out == full
    assert "usage: dereverb" in full


@pytest.mark.parametrize("argv", [[], ["bogus"], ["bogus", "--hop", "3"],
                                  ["--input", "x"]])
def test_usage_error_is_that_of_the_fully_built_parser(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        build_parser().parse_args(argv)
    full = capsys.readouterr().err
    assert main(argv) == exc.value.code == 2
    assert capsys.readouterr().err == full
    assert full.startswith("usage: dereverb")


def test_solver_preset_choices_are_the_room_presets():
    assert set(PRESET_FILTER_ORDER) == set(roomsim.PRESETS)
