"""Minor page faults, wall time and heap high-water of the benchmark's runs.

    python tools/faults.py WORKLOAD [WORKLOAD ...] [--root ROOT] [--runs N]

ROOT is a checkout root (default: this checkout); its `perfbench/run.py`
and `perfbench/workloads.py` are imported, read-only, and its package
from `src/`. BLAS is pinned to one thread and numpy's huge pages are off,
as the benchmark sets them. Each workload repeats the benchmark's timed
loop in this process: after one untimed warm-up run, `--runs` times the
calibration kernel `calibrate()` and then one run through the harness's
own `Runner.run_once`, which runs the scenario into a temporary
directory and checks it. `calibrate()` frees two 16 MB arrays, after
which the allocator may hand pages back to the system, so each run
faults in again what it holds at once. One line per workload gives the
median minor faults of a run (`getrusage`'s `ru_minflt`, taken around
`run_once` alone), the median wall time of `run_scenario` as the
harness times it, and the `tracemalloc` high-water of one more run. The
exit code is 1 when a run fails its check, else 0.
"""

import argparse
import math
import os
import resource
import statistics
import sys
import tempfile
import tracemalloc
from pathlib import Path

BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                    "MKL_NUM_THREADS")


def minflt() -> int:
    return resource.getrusage(resource.RUSAGE_SELF).ru_minflt


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("workload", nargs="+")
    parser.add_argument("--root", type=Path,
                        default=Path(__file__).resolve().parents[1])
    parser.add_argument("--runs", type=int, default=15)
    args = parser.parse_args(argv)
    if args.runs < 1:
        parser.error("--runs must be >= 1")
    bench = (args.root / "perfbench").resolve()
    if not (bench / "run.py").is_file():
        parser.error(f"no perfbench/run.py under {args.root}")
    for var in BLAS_THREAD_VARS:
        os.environ[var] = "1"
    os.environ["NUMPY_MADVISE_HUGEPAGE"] = "0"
    sys.path[:0] = [str(bench.parent / "src"), str(bench)]
    import run
    import workloads

    unknown = sorted(set(args.workload) - set(workloads.WORKLOADS))
    if unknown:
        parser.error(f"unknown workloads {unknown}; "
                     f"known: {sorted(workloads.WORKLOADS)}")
    failed = False
    with tempfile.TemporaryDirectory() as scratch:
        for name in args.workload:
            workload = workloads.WORKLOADS[name]
            runner = run.Runner(workload,
                                workloads.scenario(workload, None),
                                scratch)
            runner.run_once()
            faults, walls = [], []
            for _ in range(args.runs):
                run.calibrate()
                before = minflt()
                wall, _ = runner.run_once()
                faults.append(minflt() - before)
                if wall is not None:
                    walls.append(wall)
            tracemalloc.start()
            try:
                runner.run_once()
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            failed |= runner.failed > 0
            wall = statistics.median(walls) * 1e3 if walls else math.nan
            print(f"{name}: {statistics.median(faults):.0f} minor faults "
                  f"per run, median run {wall:.2f} ms, tracemalloc "
                  f"high-water {peak / 1e6:.2f} MB, {runner.failed} of "
                  f"{runner.attempted} runs failed")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
