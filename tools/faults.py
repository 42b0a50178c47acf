"""Minor page faults, wall time and heap high-water of the benchmark's runs.

    python tools/faults.py WORKLOAD [WORKLOAD ...] [--root ROOT] [--runs N]
                           [--scale S1,S2,...] [--stages]

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
`run_once` alone), the median growth of the malloc arena over a run and
the arena's median size before and after it (glibc's `mallinfo2`, read
through `ctypes`; `n/a` where libc lacks it), the median wall time of
`run_scenario` as the harness times it, and the `tracemalloc` high-water
of one more run. With `--scale`, each workload runs at each scale s in
turn, its scenario's duration and every phase's lengthened s times, and
each line names its scale and simulated seconds; the high-water's growth
per 1,000 simulated seconds between the first and the last scale
follows. With `--stages`, one more run per workload is traced stage by
stage instead: a stage is a public function that `sesame.experiments`
imports from the package's other modules, a function that it defines
(but the runners), or a `RunArtifacts` method, each wrapped in this
process only. Calls nest; each stage's line gives its calls, its
largest `tracemalloc` peak above what it started with and its largest
peak in all, and the last line names the innermost stage that was
running when the run's high-water was reached. The exit code is 1 when
a run fails its check, else 0.
"""

import argparse
import ctypes
import dataclasses
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


class MallInfo2(ctypes.Structure):
    _fields_ = [(field, ctypes.c_size_t) for field in (
        "arena", "ordblks", "smblks", "hblks", "hblkhd", "usmblks",
        "fsmblks", "uordblks", "fordblks", "keepcost")]


def arena_reader():
    """A function that returns the bytes of the malloc arena, the heap
    that `sbrk` extends (`mallinfo2().arena`), or None when libc has no
    `mallinfo2` (glibc before 2.33, or another libc)."""
    try:
        mallinfo2 = ctypes.CDLL(None).mallinfo2
    except (OSError, AttributeError):
        return None
    mallinfo2.argtypes = []
    mallinfo2.restype = MallInfo2
    return lambda: mallinfo2().arena


def arena_text(before: list[int], after: list[int]) -> str:
    if not before:
        return "arena growth n/a"
    growth = statistics.median(b - a for a, b in zip(before, after))
    return (f"arena growth {growth / 1e6:.2f} MB per run "
            f"({statistics.median(before) / 1e6:.2f} -> "
            f"{statistics.median(after) / 1e6:.2f} MB)")


def scaled(sc, scale: float):
    """`sc` with its duration and the length of each phase `scale` times
    as long."""
    phases = tuple(dataclasses.replace(phase,
                                       duration_s=phase.duration_s * scale)
                   for phase in sc.workload.phases)
    return dataclasses.replace(
        sc, duration_s=sc.duration_s * scale,
        workload=dataclasses.replace(sc.workload, phases=phases))


class StagePeaks:
    """Wraps the stages of a run (see the module docstring) and records
    each one's `tracemalloc` peak above its start. `tracemalloc`'s peak
    is read and reset at every stage's entry and exit, so each reading
    falls within one innermost stage, or between stages."""

    def __init__(self, experiments):
        self.rise: dict[str, int] = {}
        self.top: dict[str, int] = {}
        self.calls: dict[str, int] = {}
        self.high, self.setter = 0, None
        self._open: list[list] = []         # [name, start, peak]
        self._restore = []
        for name, value in list(vars(experiments).items()):
            module = getattr(value, "__module__", "") or ""
            if (not callable(value) or isinstance(value, type)
                    or not module.startswith("sesame.")
                    or name.startswith("run_")
                    or (module != experiments.__name__
                        and name.startswith("_"))):
                continue
            self._wrap(experiments, name, value, name)
        arts = experiments.RunArtifacts
        for name, value in list(vars(arts).items()):
            if callable(value) and not name.startswith("__"):
                self._wrap(arts, name, value, f"RunArtifacts.{name}")

    def _wrap(self, owner, attr: str, fn, label: str) -> None:
        def stage(*args, **kwargs):
            self.mark()
            self._open.append([label, tracemalloc.get_traced_memory()[0], 0])
            try:
                return fn(*args, **kwargs)
            finally:
                self.mark()
                _, start, peak = self._open.pop()
                self.rise[label] = max(self.rise.get(label, 0), peak - start)
                self.top[label] = max(self.top.get(label, 0), peak)
                self.calls[label] = self.calls.get(label, 0) + 1

        self._restore.append((owner, attr, fn))
        setattr(owner, attr, stage)

    def mark(self) -> None:
        """Fold the peak since the last mark into every open stage and the
        run's high-water, then reset it."""
        peak = tracemalloc.get_traced_memory()[1]
        for frame in self._open:
            frame[2] = max(frame[2], peak)
        if peak > self.high:
            self.high = peak
            self.setter = self._open[-1][0] if self._open else None
        tracemalloc.reset_peak()

    def restore(self) -> None:
        while self._restore:
            setattr(*self._restore.pop())

    def report(self, label: str) -> None:
        for name in sorted(self.rise, key=self.rise.get, reverse=True):
            print(f"{label}: {name}: {self.calls[name]} calls, peak "
                  f"{self.rise[name] / 1e6:.2f} MB above its start, "
                  f"{self.top[name] / 1e6:.2f} MB in all")
        print(f"{label}: high-water {self.high / 1e6:.2f} MB, set in "
              f"{self.setter or 'no stage'}")


def staged_run(runner, experiments, label: str) -> None:
    """One run of `runner` traced stage by stage, reported."""
    stages = StagePeaks(experiments)
    tracemalloc.start()
    try:
        runner.run_once()
        stages.mark()
    finally:
        tracemalloc.stop()
        stages.restore()
    stages.report(label)


def scales(text: str) -> list[float]:
    values = [float(v) for v in text.split(",")]
    if not all(v > 0 for v in values):
        raise argparse.ArgumentTypeError(f"scales must be > 0: {text}")
    if len(values) > 1 and values[0] == values[-1]:
        # the growth per simulated second divides by their difference
        raise argparse.ArgumentTypeError(
            f"the first and last scales must differ: {text}")
    return values


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("workload", nargs="+")
    parser.add_argument("--root", type=Path,
                        default=Path(__file__).resolve().parents[1])
    parser.add_argument("--runs", type=int, default=15)
    parser.add_argument("--scale", type=scales, default=None,
                        help="comma-separated trace-length scales")
    parser.add_argument("--stages", action="store_true",
                        help="trace one run stage by stage instead")
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
    arena = arena_reader()
    failed = False
    with tempfile.TemporaryDirectory() as scratch:
        for name in args.workload:
            workload = workloads.WORKLOADS[name]
            peaks = []
            for scale in args.scale or [None]:
                sc = workloads.scenario(workload, None)
                label = name
                if scale is not None:
                    sc = scaled(sc, scale)
                    label = f"{name} x{scale:g} ({sc.duration_s:g} s)"
                runner = run.Runner(workload, sc, scratch)
                runner.run_once()
                if args.stages:
                    from sesame import experiments
                    staged_run(runner, experiments, label)
                    failed |= runner.failed > 0
                    continue
                faults, walls, arena_before, arena_after = [], [], [], []
                for _ in range(args.runs):
                    run.calibrate()
                    if arena:
                        arena_before.append(arena())
                    before = minflt()
                    wall, _ = runner.run_once()
                    faults.append(minflt() - before)
                    if arena:
                        arena_after.append(arena())
                    if wall is not None:
                        walls.append(wall)
                tracemalloc.start()
                try:
                    runner.run_once()
                    peak = tracemalloc.get_traced_memory()[1]
                finally:
                    tracemalloc.stop()
                peaks.append((sc.duration_s, peak))
                failed |= runner.failed > 0
                wall = statistics.median(walls) * 1e3 if walls else math.nan
                print(f"{label}: {statistics.median(faults):.0f} minor "
                      f"faults per run, "
                      f"{arena_text(arena_before, arena_after)}, median run "
                      f"{wall:.2f} ms, tracemalloc high-water "
                      f"{peak / 1e6:.2f} MB, {runner.failed} of "
                      f"{runner.attempted} runs failed")
            if len(peaks) > 1:
                (s0, p0), (s1, p1) = peaks[0], peaks[-1]
                print(f"{name}: high-water {(p1 - p0) / 1e6 / (s1 - s0) * 1e3:.2f}"
                      f" MB per 1,000 simulated s from {s0:g} to {s1:g} s")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
