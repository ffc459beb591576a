"""Benchmark runner: runs one workload of the dereverb CLI, checks every
output and prints the metrics. See README.md; the entry point is run.py.

The load is a closed loop with one client: one CLI job at a time from this
process. An untraced run (`--trace 0`) times jobs as fresh
`python -m dereverb.cli` processes and reports the end-to-end metrics. A
traced run (`--trace 1`) runs one job untraced and then the same argv
through traced_cli.py, and reports the per-layer metrics of tracing.py.
"""
from __future__ import annotations

import argparse
import contextlib
import ctypes
import glob
import io
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass, field

import numpy as np
import scipy

import tracing
from workloads import (FS, WORKLOADS, dereverb_argv, evaluate_argv,
                       simulate_argv, speech_like)

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
TRACED_CLI = os.path.join(HERE, "traced_cli.py")
WORK_ROOT = os.path.join(ROOT, ".bench_work")
NPROC = len(os.sched_getaffinity(0))
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                    "MKL_NUM_THREADS")
# Set-up is repeated at least SETUP_REPEATS times and until SETUP_MIN_S have
# passed, so a set-up of milliseconds still gets a steady median.
SETUP_REPEATS = 3
SETUP_MIN_S = 1.0
SETUP_MAX_REPEATS = 30
STEP_TIMEOUT_S = 150
SCOPE = ("only the benchmark's own processes are measured: no cache "
         "dropping, no CPU pinning, no machine-wide tracing")
END_TO_END_UNITS = {"setup_s": "s", "job_s": "s", "peak_rss_mib": "MiB",
                    "cd": "dB", "fwsegsnr": "dB_over_floor"}


class CheckError(Exception):
    """An output that is missing, malformed or inconsistent."""


@dataclass
class Step:
    wall_s: float
    rss_mib: float
    stdout: str
    spans: dict = None


@dataclass
class Job:
    scene: int
    steps: list = field(default_factory=list)
    evaluation: Step = None   # evaluate step of a dereverb job, not timed
    error: str = None

    @property
    def wall_s(self):
        return sum(s.wall_s for s in self.steps)

    @property
    def rss_mib(self):
        return max(s.rss_mib for s in self.steps)


def _kill_group(pid):
    with contextlib.suppress(ProcessLookupError):
        os.killpg(pid, signal.SIGKILL)


def _same_bytes(path_a, path_b):
    with open(path_a, "rb") as a, open(path_b, "rb") as b:
        return a.read() == b.read()


class Bench:
    """One run of one workload inside a private work directory."""

    def __init__(self, workload, seed, workdir):
        self.workload = workload
        self.seed = seed
        self.workdir = workdir
        path = os.environ.get("PYTHONPATH")
        self.env = dict(os.environ, TMPDIR=workdir,
                        PYTHONPATH=SRC + (os.pathsep + path if path else ""))
        self.env.update({var: str(NPROC) for var in BLAS_THREAD_VARS})
        self.scene_dirs = {}   # scene index -> directory of its inputs
        self.first = {}        # scene index -> (output path, evaluate row)
        self.failures = []
        self._dirs = 0

    def _fresh_dir(self, label):
        self._dirs += 1
        path = os.path.join(self.workdir, f"{self._dirs:03d}-{label}")
        os.makedirs(path)
        return path

    # -- set-up ------------------------------------------------------------

    def setup(self, repeats, min_seconds=0.0):
        """Make the scenes' inputs `repeats` times or more, until
        `min_seconds` have passed (scene index cycling); a repeated scene
        must come out byte-identical. Returns the time of each set-up."""
        import dereverb.cli
        from dereverb.signals import (MultichannelTimeSignal, TimeSignal,
                                      write_wav)
        times = []
        while len(times) < repeats or (sum(times) < min_seconds
                                       and len(times) < SETUP_MAX_REPEATS):
            scene = len(times) % self.workload.scenes
            path = self._fresh_dir(f"scene{scene}")
            clean = os.path.join(path, "clean.wav")
            start = time.perf_counter()
            samples = speech_like(self.workload.duration_s,
                                  seed=[self.seed, scene])
            write_wav(MultichannelTimeSignal((TimeSignal(samples, FS),)),
                      clean)
            if not self.workload.simulate_in_job:
                with contextlib.redirect_stdout(io.StringIO()):
                    code = dereverb.cli.main(
                        simulate_argv(self.workload, clean, path))
                if code != 0:
                    raise CheckError(f"simulate exited {code}")
            times.append(time.perf_counter() - start)
            name = ("clean.wav" if self.workload.simulate_in_job
                    else "observed.wav")
            if scene in self.scene_dirs:
                if not _same_bytes(os.path.join(self.scene_dirs[scene], name),
                                   os.path.join(path, name)):
                    self.failures.append(
                        f"set-up of scene {scene} is not deterministic")
                shutil.rmtree(path)
            else:
                self.scene_dirs[scene] = path
        return times

    # -- jobs --------------------------------------------------------------

    def run_step(self, argv, traced):
        """Run one CLI process to completion; rusage comes from wait4."""
        path = self._fresh_dir(argv[0])
        spans = os.path.join(path, "spans.json") if traced else None
        cmd = ([sys.executable, TRACED_CLI, spans] if traced
               else [sys.executable, "-m", "dereverb.cli"]) + argv
        out_path = os.path.join(path, "stdout")
        with open(out_path, "wb") as out, \
                open(os.path.join(path, "stderr"), "wb") as err:
            start = time.perf_counter()
            proc = subprocess.Popen(cmd, stdout=out, stderr=err, env=self.env,
                                    cwd=ROOT, start_new_session=True)
            timer = threading.Timer(STEP_TIMEOUT_S, _kill_group, (proc.pid,))
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:   # interrupted: leave no process behind
                _kill_group(proc.pid)
                proc.wait()
                raise
            finally:
                timer.cancel()
            wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        with open(out_path) as fh:
            stdout = fh.read()
        step = Step(wall, usage.ru_maxrss / 1024.0, stdout)
        if proc.returncode != 0:
            with open(os.path.join(path, "stderr")) as fh:
                raise CheckError(f"{argv[0]} exited {proc.returncode}: "
                                 f"{fh.read().strip()[-500:]}")
        if traced:
            with open(spans) as fh:
                step.spans = json.load(fh)
        return step

    def run_job(self, scene, traced=False, cli_evaluate=True):
        """One job on one scene. Its steps are timed. A dereverb output is
        evaluated after the job, by `dereverb evaluate` (checked against the
        in-process result) when cli_evaluate is set, else in-process only."""
        job = Job(scene)
        inputs = self.scene_dirs[scene]
        path = self._fresh_dir("job")
        try:
            if self.workload.simulate_in_job:
                job.steps.append(self.run_step(simulate_argv(
                    self.workload, os.path.join(inputs, "clean.wav"), path),
                    traced))
                output = os.path.join(path, "observed.wav")
                reference = os.path.join(path, "reference.wav")
                check_wav(output, os.path.join(inputs, "clean.wav"),
                          channels=4)
                job.steps.append(self.run_step(evaluate_argv(
                    reference, output, os.path.join(path, "eval.csv")),
                    traced))
                row = check_row(job.steps[-1].stdout, reference, output)
            else:
                observed = os.path.join(inputs, "observed.wav")
                reference = os.path.join(inputs, "reference.wav")
                output = os.path.join(path, "estimate.wav")
                job.steps.append(self.run_step(
                    dereverb_argv(self.workload, observed, output), traced))
                check_wav(output, observed, channels=1)
                if cli_evaluate:
                    job.evaluation = self.run_step(evaluate_argv(
                        reference, output, os.path.join(path, "eval.csv")),
                        traced)
                    row = check_row(job.evaluation.stdout, reference, output)
                else:
                    row = evaluate(reference, output)
            if scene in self.first:
                first_output, first_row = self.first[scene]
                if not _same_bytes(first_output, output):
                    raise CheckError(f"output of scene {scene} differs from "
                                     "the scene's first job")
                if row != first_row:
                    raise CheckError(f"evaluation of scene {scene} differs")
            else:
                self.first[scene] = (output, row)
        except Exception as exc:   # the job fails; the run reports it
            job.error = f"{type(exc).__name__}: {exc}"
            self.failures.append(f"scene {scene}: {job.error}")
        return job

    # -- runs --------------------------------------------------------------

    def measure(self, seconds):
        """Untraced run: set up, then jobs until `seconds` have passed and
        every scene has been processed once."""
        from dereverb.metrics import SNR_CLAMP
        setup_times = self.setup(SETUP_REPEATS, SETUP_MIN_S)
        jobs = []
        start = time.perf_counter()
        while (len(jobs) < self.workload.scenes
               or time.perf_counter() - start < seconds):
            jobs.append(self.run_job(len(jobs) % self.workload.scenes,
                                     cli_evaluate=not jobs))
        done = [j for j in jobs if j.error is None]
        timed = [j for j in jobs if j.steps]
        rows = [tuple(map(float, self.first[s][1][:2]))
                for s in sorted(self.first)]
        metrics = {
            "setup_s": statistics.median(setup_times),
            "job_s": (statistics.median(j.wall_s for j in timed)
                      if timed else None),
            "peak_rss_mib": (statistics.median(j.rss_mib for j in done)
                             if done else None),
            "cd": statistics.fmean(r[0] for r in rows) if rows else None,
            # F-SNR above the floor of its per-band clamp: >= 0 like CD,
            # so a relative bound is a share of the score's range.
            "fwsegsnr": (statistics.fmean(r[1] for r in rows) - SNR_CLAMP[0]
                         if rows else None),
        }
        extra = {"setup_s_values": setup_times,
                 "job_s_values": [j.wall_s for j in timed],
                 "job_s_samples": len(timed),
                 "cd_db_per_scene": [r[0] for r in rows],
                 "fwsegsnr_db_per_scene": [r[1] for r in rows]}
        return jobs, metrics, END_TO_END_UNITS, extra

    def trace(self):
        """Traced run on scene 0: an untraced job, then the traced set-up,
        job and evaluation, whose outputs must be bit-identical."""
        self.setup(1)
        jobs = [self.run_job(0)]
        steps = []
        try:
            if not self.workload.simulate_in_job:
                path = self._fresh_dir("traced-setup")
                steps.append(self.run_step(simulate_argv(
                    self.workload,
                    os.path.join(self.scene_dirs[0], "clean.wav"), path),
                    traced=True))
                if not _same_bytes(
                        os.path.join(path, "observed.wav"),
                        os.path.join(self.scene_dirs[0], "observed.wav")):
                    raise CheckError("traced set-up differs from untraced")
        except (CheckError, OSError) as exc:
            self.failures.append(str(exc))
        traced = self.run_job(0, traced=True)
        jobs.append(traced)
        steps += traced.steps
        if traced.evaluation:
            steps.append(traced.evaluation)
        spans = [s.spans for s in steps]
        metrics = tracing.layer_metrics(spans) if spans else {}
        if jobs[0].error is None and traced.error is None:
            metrics["trace.overhead_frac"] = (traced.wall_s / jobs[0].wall_s
                                              - 1.0)
        self.failures += tracing.count_problems(spans)
        return jobs, metrics, tracing.PER_LAYER_UNITS, {}


def check_wav(path, like, channels):
    """The output is a finite WAV with `channels` channels and the length and
    rate of the input `like`."""
    from dereverb.signals import read_wav
    try:
        out, ref = read_wav(path), read_wav(like)
    except ValueError as exc:   # also raised for non-finite samples
        raise CheckError(f"{os.path.basename(path)}: {exc}")
    if out.num_channels != channels:
        raise CheckError(f"{out.num_channels} channels, expected {channels}")
    if len(out) != len(ref) or out.sample_rate != ref.sample_rate:
        raise CheckError(f"{len(out)} samples at {out.sample_rate} Hz, "
                         f"expected {len(ref)} at {ref.sample_rate} Hz")


def evaluate(reference, estimate):
    """(cd, fwsegsnr, frames_used) of metrics.evaluate_pair, formatted as
    `dereverb evaluate` prints them."""
    from dereverb.metrics import evaluate_pair
    from dereverb.signals import read_wav
    report = evaluate_pair(read_wav(reference).channels[0],
                           read_wav(estimate).channels[0])
    return (f"{report.cd:.6f}", f"{report.fwsegsnr:.6f}",
            str(report.frames_used))


def check_row(stdout, reference, estimate):
    """The `dereverb evaluate` row must equal evaluate() in this process."""
    lines = stdout.strip().splitlines()
    if not lines:
        raise CheckError("evaluate printed no row")
    row = tuple(lines[-1].rsplit(",", 3)[1:])
    expected = evaluate(reference, estimate)
    if row != expected:
        raise CheckError(f"evaluate row {row} != in-process {expected}")
    return row


def blas():
    """BLAS library name and its thread count as OpenBLAS reports it."""
    info = np.__config__.CONFIG["Build Dependencies"]["blas"]
    threads = None
    libs = os.path.join(os.path.dirname(os.path.dirname(np.__file__)),
                        "numpy.libs", "*openblas*")
    for lib in glob.glob(libs):
        handle = ctypes.CDLL(lib)
        for symbol in ("scipy_openblas_get_num_threads64_",
                       "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                threads = fn()
                break
    return f"{info.get('name')} {info.get('version')}", threads


def environment(args):
    name, threads = blas()
    return {"workload": args.workload, "workload_seed": args.seed,
            "trace": args.trace, "nproc": NPROC,
            "python": platform.python_version(), "numpy": np.__version__,
            "scipy": scipy.__version__, "blas": name, "blas_threads": threads,
            "blas_thread_env": {v: os.environ.get(v)
                                for v in BLAS_THREAD_VARS},
            "load": "closed loop, one client, one CLI job at a time",
            "measurement_scope": SCOPE}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None):
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "dereverb", "cli.py")):
        sys.stderr.write(f"error: no dereverb sources under {SRC}\n")
        return 2
    sys.path.insert(0, SRC)
    os.makedirs(WORK_ROOT, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORK_ROOT)
    try:
        bench = Bench(WORKLOADS[args.workload], args.seed, workdir)
        if args.trace:
            jobs, metrics, units, extra = bench.trace()
        else:
            jobs, metrics, units, extra = bench.measure(args.seconds)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            os.rmdir(WORK_ROOT)
    failed = sum(j.error is not None for j in jobs)
    for message in bench.failures:
        sys.stderr.write(f"check failed: {message}\n")
    info = environment(args)
    info.update(extra, job_fail_frac=failed / len(jobs),
                failures=bench.failures)
    print(json.dumps(info))
    print(json.dumps({
        "correct": (not bench.failures and set(metrics) == set(units)
                    and all(v is not None for v in metrics.values())),
        "attempted": len(jobs),
        "failed": failed,
        "metrics": {name: {"value": metrics.get(name), "unit": unit}
                    for name, unit in units.items()},
    }))
    return 0
