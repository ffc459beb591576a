"""Benchmark entry point.

Usage, from the root of a checkout:
    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Caps the BLAS thread pool at the number of usable CPUs before numpy loads,
then hands over to runner.main. The last line of standard output is the
result object; the line before it records the environment.
"""
import os
import signal
import sys

if __name__ == "__main__":
    # SIGTERM unwinds like an exit, so running jobs are killed and the
    # scratch directory is removed.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    nproc = str(len(os.sched_getaffinity(0)))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = nproc
    import runner
    sys.exit(runner.main())
