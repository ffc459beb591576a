"""Print one SHA-256 digest per file that a fixed run of the CLI writes.

Usage: python3 tools/cli_digest.py

Runs the CLI of the checkout this script sits in, in-process:
- `simulate` for presets A and B (room seed 4, 10 dB WGN) on the bench's
  seeded speech surrogate;
- `dereverb` with the argv of each bench workload that runs it, on the
  scene of that workload's preset;
- `evaluate` of each scene's observed signal and of each estimate against
  the scene's reference, into one CSV.

The steps run in a temporary directory, removed afterwards, and name their
files relative to it, so the printout names no checkout. Two checkouts
whose printouts are equal wrote the same bytes.
"""
from __future__ import annotations

import contextlib
import hashlib
import io
import os
import shutil
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path[:0] = [os.path.join(ROOT, "src"), os.path.join(ROOT, "bench")]

from dereverb.cli import main  # noqa: E402
from dereverb.signals import (MultichannelTimeSignal, TimeSignal,  # noqa: E402
                              write_wav)
from workloads import (FS, WORKLOADS, dereverb_argv,  # noqa: E402
                       evaluate_argv, simulate_argv, speech_like)

SPEECH_SEED = 0


def run(argv):
    with contextlib.redirect_stdout(io.StringIO()):
        code = main(argv)
    if code != 0:
        raise SystemExit(f"{' '.join(argv)}: exited {code}")


def digests(workdir):
    """Run every step in workdir; return the (sha256, path) of each file."""
    os.chdir(workdir)
    # One WGN workload a preset gives its duration and simulate argv.
    scenes = {w.preset: w for w in WORKLOADS.values() if w.noise == "wgn"}
    for preset, workload in sorted(scenes.items()):
        os.makedirs(preset)
        clean = os.path.join(preset, "input.wav")
        samples = speech_like(workload.duration_s, seed=SPEECH_SEED)
        write_wav(MultichannelTimeSignal((TimeSignal(samples, FS),)), clean)
        run(simulate_argv(workload, clean, os.path.join(preset, "scene")))
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
                          out))
        run(evaluate_argv(os.path.join(scene, "reference.wav"), out,
                          csv_path))
    found = []
    for top, dirs, files in os.walk("."):
        dirs.sort()
        for file in sorted(files):
            path = os.path.relpath(os.path.join(top, file))
            with open(path, "rb") as fh:
                found.append((hashlib.sha256(fh.read()).hexdigest(), path))
    return found


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
