"""Print one SHA-256 digest per file that a fixed run of the CLI writes,
and one per step's stdout.

Usage: python3 tools/cli_digest.py

Runs the CLI of the checkout this script sits in, in-process:
- `simulate` for presets A and B (room seed 4, 10 dB WGN) on the bench's
  seeded speech surrogate, and once more for preset A with that surrogate
  as the `--noise` WAV;
- noise-free `simulate` for presets A and B at room seeds 0 and 7, whose
  `rirs.wav` hold four more rooms' image-source RIRs;
- `dereverb` with the argv of each bench workload that runs it, on the
  scene of that workload's preset, with a trace CSV;
- `dereverb` on the preset-A scene with every solver flag set away from
  its default: PnPWPE, soft threshold, with a trace CSV;
- `dereverb` on the preset-A scene as a convergence study: PnPWPE,
  Wiener, 5 iterations, `--stop-tol 0`, with a trace CSV;
- `sweep` over the preset-A scene and a scene directory that does not
  exist: `--rho 0.1 1 --denoiser identity wiener --iterations 2`, which
  scores each grid point's estimate, as `dereverb` would write it,
  in-process with `metrics.evaluate_pair`, and writes the missing scene's
  error rows, padded to the header's width;
- `evaluate` of each scene's observed signal and of each estimate against
  the scene's reference, into one CSV;
- one failing step for each non-zero exit code: `dereverb --method wpe`
  with a PnPWPE-only flag (2), `evaluate` of a file that is not a WAV (3),
  `evaluate` against a silent reference (4), and `dereverb` with an
  external denoiser that exits 3 (5);
- three more failing steps, each of which exits 2 as its settings are
  checked before any file is read: `dereverb --iterations 0` on an
  `--input` that does not exist, `sweep --rho -1 0.1` over the preset-A
  scene, of which one grid point cannot be built, and `simulate --seed -1`
  of a `--clean` WAV that does not exist;
- the top-level `--help`, wrapped at 80 columns whatever the terminal,
  and the usage error of an argv that names no subcommand (`bogus`,
  exit 2);
- `dereverb` with the a4-wpe workload's argv plus `--iterations 3
  --floor-share 0`, the library's defaults, into
  `a4-wpe-absolute-floor.wav`: the bytes `--method wpe` wrote by default
  before it took its own defaults;
- two more failing steps that exit 2 on a flag the run would not read:
  `dereverb --method wpe --denoiser wiener --quantile 0.5` on the preset-A
  scene, and `simulate --noise none --snr-db 5` of a `--clean` WAV that
  does not exist.

The steps run in a temporary directory, removed afterwards, and name their
files relative to it, so the printout names no checkout. Each file's line
names its path; each step's stdout line follows them, in the order the
steps ran, as "stdout NN SUBCOMMAND", then each failing step's stderr line,
as "exit CODE SUBCOMMAND". The directory where the external denoiser's
inputs are kept is named by a fixed token in its stderr, and removed. Two
checkouts whose printouts are equal wrote and printed the same bytes.
"""
from __future__ import annotations

import contextlib
import hashlib
import io
import os
import re
import shlex
import shutil
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path[:0] = [os.path.join(ROOT, "src"), os.path.join(ROOT, "bench")]

from dereverb.cli import main  # noqa: E402
from dereverb.signals import (MultichannelTimeSignal, TimeSignal,  # noqa: E402
                              write_wav)
import numpy as np  # noqa: E402
from workloads import (FS, WORKLOADS, dereverb_argv,  # noqa: E402
                       evaluate_argv, simulate_argv, speech_like)

SPEECH_SEED = 0
NOISE_FREE_ROOM_SEEDS = (0, 7)
STDOUTS = []  # (sha256, label) of each step's stdout, in run order
STDERRS = []  # (sha256, label) of each failing step's stderr, in run order
KEPT = re.compile(r"\(inputs kept in (.+?)\)")


def run(argv):
    with contextlib.redirect_stdout(io.StringIO()) as out:
        code = main(argv)
    if code != 0:
        raise SystemExit(f"{' '.join(argv)}: exited {code}")
    digest = hashlib.sha256(out.getvalue().encode()).hexdigest()
    STDOUTS.append((digest, f"stdout {len(STDOUTS) + 1:02d} {argv[0]}"))


def fail(argv):
    """Run a step that must fail; digest its stderr, with the directory
    of kept denoiser inputs named by a token, and remove that directory."""
    with contextlib.redirect_stderr(io.StringIO()) as err:
        code = main(argv)
    if code == 0:
        raise SystemExit(f"{' '.join(argv)}: exited 0")
    text = err.getvalue()
    for kept in KEPT.findall(text):
        shutil.rmtree(kept)
    text = KEPT.sub("(inputs kept in PNPSPEC_DIR)", text)
    digest = hashlib.sha256(text.encode()).hexdigest()
    STDERRS.append((digest, f"exit {code} {argv[0]}"))


def fail_once_per_exit_code():
    """One failing step for each of exit codes 2, 3, 4 and 5, on the
    preset-A scene."""
    scene = os.path.join("A", "scene")
    observed = os.path.join(scene, "observed.wav")
    fail(["dereverb", "--input", observed, "--out", "fail.wav",
          "--method", "wpe", "--rho", "5"])
    fail(["evaluate", "--reference", os.path.join(scene, "meta"),
          "--estimate", observed, "--csv", "fail.csv"])
    silent = TimeSignal(np.zeros(FS), FS)
    write_wav(MultichannelTimeSignal((silent,)), "silent.wav")
    fail(["evaluate", "--reference", "silent.wav", "--estimate", observed,
          "--csv", "fail.csv"])
    exits_3 = f"{shlex.quote(sys.executable)} -c 'import sys; sys.exit(3)'"
    fail(["dereverb", "--input", observed, "--out", "fail.wav",
          "--iterations", "1", "--denoiser", "external",
          "--denoiser-command", exits_3])


def simulate_scenes():
    """Write the seeded surrogate to PRESET/input.wav and simulate it into
    PRESET/scene, for presets A and B under the current directory, and into
    A/wav-noise-scene with A/input.wav as the noise file too; simulate it
    without noise into PRESET/room-SEED for each NOISE_FREE_ROOM_SEEDS;
    return preset -> the WGN workload that gave its duration and simulate
    argv."""
    scenes = {w.preset: w for w in WORKLOADS.values() if w.noise == "wgn"}
    for preset, workload in sorted(scenes.items()):
        os.makedirs(preset)
        clean = os.path.join(preset, "input.wav")
        samples = speech_like(workload.duration_s, seed=SPEECH_SEED)
        write_wav(MultichannelTimeSignal((TimeSignal(samples, FS),)), clean)
        run(simulate_argv(workload, clean, os.path.join(preset, "scene")))
        for seed in NOISE_FREE_ROOM_SEEDS:
            run(["simulate", "--preset", preset, "--seed", str(seed),
                 "--clean", clean,
                 "--out-dir", os.path.join(preset, f"room-{seed}")])
    # The later --noise overrides the workload's.
    run(simulate_argv(scenes["A"], os.path.join("A", "input.wav"),
                      os.path.join("A", "wav-noise-scene"))
        + ["--noise", os.path.join("A", "input.wav")])
    return scenes


def digests(workdir):
    """Run every step in workdir; return the (sha256, path) of each file,
    then the (sha256, label) of each step's stdout."""
    os.chdir(workdir)
    os.environ["COLUMNS"] = "80"  # argparse wraps help to the terminal's
    scenes = simulate_scenes()
    csv_path = "evaluate.csv"
    for preset in sorted(scenes):
        scene = os.path.join(preset, "scene")
        run(evaluate_argv(os.path.join(scene, "reference.wav"),
                          os.path.join(scene, "observed.wav"), csv_path))
    for name, workload in WORKLOADS.items():
        if workload.simulate_in_job:
            continue
        scene = os.path.join(workload.preset, "scene")
        out = f"{name}.wav"
        run(dereverb_argv(workload, os.path.join(scene, "observed.wav"),
                          out) + ["--trace-csv", f"{name}.trace.csv"])
        run(evaluate_argv(os.path.join(scene, "reference.wav"), out,
                          csv_path))
    run(["dereverb", "--input", os.path.join("A", "scene", "observed.wav"),
         "--out", "all-flags.wav", "--trace-csv", "all-flags.trace.csv",
         "--method", "pnpwpe", "--frame-len", "256", "--hop", "64",
         "--filter-order", "6", "--delay", "4", "--epsilon", "1e-3",
         "--iterations", "2", "--reference-channel", "1", "--rho", "0.5",
         "--mu", "0.7", "--inner-iters", "2", "--stop-tol", "0",
         "--denoiser", "soft_threshold", "--threshold", "0.3"])
    run(["dereverb", "--input", os.path.join("A", "scene", "observed.wav"),
         "--out", "convergence.wav", "--trace-csv", "convergence.csv",
         "--preset", "A", "--denoiser", "wiener", "--iterations", "5",
         "--stop-tol", "0"])
    run(["sweep", "--scenes", os.path.join("A", "scene"), "missing-scene",
         "--rho", "0.1", "1", "--denoiser", "identity", "wiener",
         "--iterations", "2", "--out", "sweep.csv"])
    run(["--help"])
    fail_once_per_exit_code()
    fail(["dereverb", "--input", "missing.wav", "--out", "fail.wav",
          "--iterations", "0"])
    fail(["sweep", "--scenes", os.path.join("A", "scene"), "--rho", "-1",
          "0.1", "--out", "fail.csv"])
    fail(["simulate", "--preset", "A", "--seed", "-1", "--clean",
          "missing.wav", "--out-dir", "fail-scene"])
    fail(["bogus"])
    run(dereverb_argv(WORKLOADS["a4-wpe"],
                      os.path.join("A", "scene", "observed.wav"),
                      "a4-wpe-absolute-floor.wav")
        + ["--iterations", "3", "--floor-share", "0"])
    fail(["dereverb", "--input", os.path.join("A", "scene", "observed.wav"),
          "--out", "fail.wav", "--method", "wpe", "--denoiser", "wiener",
          "--quantile", "0.5"])
    fail(["simulate", "--preset", "A", "--seed", "4", "--clean",
          "missing.wav", "--noise", "none", "--snr-db", "5", "--out-dir",
          "fail-scene"])
    found = []
    for top, dirs, files in os.walk("."):
        dirs.sort()
        for file in sorted(files):
            path = os.path.relpath(os.path.join(top, file))
            with open(path, "rb") as fh:
                found.append((hashlib.sha256(fh.read()).hexdigest(), path))
    return found + STDOUTS + STDERRS


if __name__ == "__main__":
    if len(sys.argv) > 1:
        raise SystemExit(__doc__)
    workdir = tempfile.mkdtemp(prefix="cli_digest_")
    try:
        found = digests(workdir)
    finally:
        os.chdir(ROOT)
        shutil.rmtree(workdir)
    for digest, path in found:
        print(f"{digest}  {path}")
