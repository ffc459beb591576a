"""Time the start-up phases of fresh CLI processes, subcommand by subcommand.

Usage: python3 tools/startup.py [RUNS]

Simulates the seeded scenes of tools/cli_digest.py (presets A and B, room
seed 4, 10 dB WGN) in a temporary directory, removed afterwards. Then it
runs every step below RUNS times (default 12), each time in a fresh
`python -c` process, the steps taking turns. For each step it prints the
median of each phase, in milliseconds:
- start: from the spawn to the child's first statement (interpreter
  start-up and site);
- numpy: `import numpy`;
- dereverb: `import dereverb.cli`, beyond numpy;
- main: `dereverb.cli.main(argv)`, with the imports of the modules the
  subcommand runs, run as a CLI process runs it, through
  `dereverb.cli.run()`;
- exit: from main's return until the child has been reaped;
- total: from the spawn until the child has been reaped.
Then it lists the dereverb modules each step had loaded after main.

The phases are read from CLOCK_MONOTONIC, one clock for all processes on
Linux. The children get this process's environment, with the source tree
on PYTHONPATH and the BLAS thread count at the number of usable CPUs, as
the bench sets them. PYTHONDONTWRITEBYTECODE, printed in the header,
matters: where it is set no `.pyc` is written, so every process compiles
the dereverb modules it imports again.
"""
from __future__ import annotations

import ast
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

# cli_digest puts src/ and bench/ on sys.path.
from cli_digest import ROOT, simulate_scenes
from workloads import WORKLOADS, dereverb_argv, evaluate_argv, simulate_argv

SRC = os.path.join(ROOT, "src")

PHASES = ("start", "numpy", "dereverb", "main", "exit", "total")

# Run by each child: argv[1] is the file its phase marks and dereverb
# modules go to, at exit; the rest is the CLI argv.
CHILD = """\
import atexit, sys, time
clock = lambda: time.clock_gettime(time.CLOCK_MONOTONIC)
marks = [clock()]
import numpy
marks.append(clock())
import dereverb.cli
marks.append(clock())

def record(path=sys.argv[1]):
    marks.append(clock())
    modules = sorted(m for m in sys.modules if m.startswith("dereverb."))
    with open(path, "w") as fh:
        fh.write(repr((marks, modules)))

atexit.register(record)
sys.argv[:] = ["dereverb", *sys.argv[2:]]
dereverb.cli.run()
"""


def steps(scenes):
    """Step label -> CLI argv, on the scenes of simulate_scenes. Outputs go
    to out/."""
    os.makedirs("out")
    found = {f"simulate {preset}": simulate_argv(
        workload, os.path.join(preset, "input.wav"),
        os.path.join("out", preset))
        for preset, workload in sorted(scenes.items())}
    found["evaluate B"] = evaluate_argv(
        os.path.join("B", "scene", "reference.wav"),
        os.path.join("B", "scene", "observed.wav"), "out/evaluate.csv")
    for name, workload in WORKLOADS.items():
        if not workload.simulate_in_job:
            found[f"dereverb {name}"] = dereverb_argv(
                workload, os.path.join(workload.preset, "scene",
                                       "observed.wav"), f"out/{name}.wav")
    found["sweep A"] = ["sweep", "--scenes", os.path.join("A", "scene"),
                        "--preset", "A", "--out", "out/sweep.csv"]
    return found


def child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (SRC, env.get("PYTHONPATH")) if p)
    nproc = str(len(os.sched_getaffinity(0)))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = nproc
    return env


def run_once(argv, env):
    """The phases of one fresh process, in seconds, and its modules."""
    spawn = time.clock_gettime(time.CLOCK_MONOTONIC)
    child = subprocess.run([sys.executable, "-c", CHILD, "child.result",
                            *argv], env=env, stdout=subprocess.DEVNULL)
    reaped = time.clock_gettime(time.CLOCK_MONOTONIC)
    if child.returncode != 0:
        raise SystemExit(f"{' '.join(argv)}: exited {child.returncode}")
    with open("child.result") as fh:
        marks, modules = ast.literal_eval(fh.read())
    points = [spawn, *marks, reaped]
    phases = [b - a for a, b in zip(points, points[1:])]
    return phases + [reaped - spawn], modules


def measure(runs, workdir):
    """Step label -> the phases of each run, and -> its modules."""
    os.chdir(workdir)
    found = steps(simulate_scenes())
    env = child_env()
    times = {label: [] for label in found}
    loaded = {}
    for _ in range(runs):
        for label, argv in found.items():
            phases, loaded[label] = run_once(argv, env)
            times[label].append(phases)
    return times, loaded


def report(runs, times, loaded):
    flag = os.environ.get("PYTHONDONTWRITEBYTECODE", "")
    print(f"medians of {runs} fresh processes, ms "
          f"(PYTHONDONTWRITEBYTECODE={flag})")
    width = max(map(len, times))
    print(" " * width + "".join(f"{phase:>9}" for phase in PHASES))
    for label, rows in times.items():
        medians = [statistics.median(col) * 1e3 for col in zip(*rows)]
        print(f"{label:<{width}}" + "".join(f"{m:>9.1f}" for m in medians))
    print("dereverb modules loaded after main:")
    for label, modules in loaded.items():
        print(f"{label:<{width}}  "
              + " ".join(m.split(".", 1)[1] for m in modules))


if __name__ == "__main__":
    runs = sys.argv[1] if len(sys.argv) == 2 else "12"
    if len(sys.argv) > 2 or not runs.isdigit() or int(runs) < 1:
        raise SystemExit(__doc__)
    runs = int(runs)
    workdir = tempfile.mkdtemp(prefix="startup_")
    try:
        times, loaded = measure(runs, workdir)
    finally:
        os.chdir(ROOT)
        shutil.rmtree(workdir)
    report(runs, times, loaded)
