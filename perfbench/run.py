#!/usr/bin/env python3
"""Benchmark for sesame: built-in scenarios run end to end.

    python3 perfbench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]

Run it from the root of a source checkout; it imports the package from
`src/` and needs no install. Load shape: a closed loop in one process,
one scenario run at a time through `sesame.experiments.run_scenario`, no
threads or worker processes, BLAS pinned to one thread and numpy's
transparent huge pages off. Reports go to a
temporary directory under `.perfbench_out/` (writing them is part of
what a `sesame run` user waits for) and are removed after hashing.

With `--trace 0` the run measures end-to-end figures: set-up in fresh
interpreters, one untimed warm-up (which also gives the quality figures
and the peak resident memory), then timed repetitions for `--seconds`,
each preceded by a fixed calibration kernel. `run_s` is the median over
runs of the host wall time scaled by the kernel's reference time over
its time right before that run, that is, wall time at the reference
host speed; the unscaled median is printed beside it.
With `--trace 1` it alternates untraced and traced repetitions and
reports per-layer figures from the spans; the span lists are written to
`.perfbench_out/spans-<workload>-seed<seed>.json`, and the Python heap
peak comes from its own `tracemalloc` pass.

Every repetition is checked (see `workloads.gate`) and must write
byte-identical reports; a failed check counts in `failed` and does not
stop the run. The last line of standard output is one JSON object with
`correct`, `attempted`, `failed` and `metrics`.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                    "MKL_NUM_THREADS")

from tracer import Target, Tracer
from workloads import (
    WORKLOADS, gate, markov_steps, n_ticks, quality, report_digest, scenario)

SETUP_REPS = 5
MIN_REPS = 3
# median time of `calibrate()` on the 2-vCPU machine the bounds were set on
CALIBRATION_REF_S = 0.148
SETUP_CODE = """
import sys, time
sys.path.insert(0, {bench!r})
import sesame.experiments
from workloads import WORKLOADS, scenario
scenario(WORKLOADS[{name!r}], {seed!r})
print(time.monotonic())
"""

END_TO_END_UNITS = {
    "run_s": "s", "sim_s_per_s": "s/s", "setup_s": "s",
    "peak_rss_mb": "MB", "acc_1hz": "fraction", "acc_100hz": "fraction",
}


def _rows(key, arg):
    return lambda span, args, kwargs, result: {key: len(args[arg])}


def _rebuild(span, args, kwargs, rebuilt):
    table, _, latest_error = args[:3]
    return {"manager.rebuilds": int(rebuilt),
            "manager.over_threshold": int(latest_error > table.threshold),
            "manager.rebuild_s": span.end - span.start if rebuilt else 0.0}


TARGETS = [Target("sesame.experiments", f, f"experiments.{f}") for f in (
    "run_scenario", "simulate", "run_molding", "run_regressogram_compare",
    "run_adaptation", "train_molded_variants")] + [
    Target("sesame.tracesim", "gen_trace", "tracesim.gen_trace"),
    Target("sesame.tracesim", "observe_predictors",
           "tracesim.observe_predictors"),
    Target("sesame.tracesim", "Trace.cumulative", "tracesim.cumulative_series",
           span=False),
    Target("sesame.tracesim", "true_energy", "tracesim.true_energy"),
    Target("sesame.battery", "sample_interface", "battery.sample_interface",
           hook=lambda span, args, kwargs, r: {"battery.readings": len(r)}),
    Target("sesame.battery", "rms_relative_error", "battery.rms_relative_error"),
    Target("sesame.collector", "collect", "collector.collect",
           hook=lambda span, args, kwargs, r: {"collector.collect.rows": r.m}),
    Target("sesame.collector", "aggregate_response",
           "collector.aggregate_response"),
    Target("sesame.constructor", "stretch", "constructor.stretch"),
    Target("sesame.constructor", "build_model", "constructor.build_model"),
    Target("sesame.constructor", "iterate_construction",
           "constructor.iterate_construction"),
    Target("numpy.linalg", "svd", "constructor.svd_calls", span=False),
    Target("sesame.constructor", "EnergyModel.predict_rows",
           "constructor.predict_rows",
           hook=_rows("constructor.predict_rows.rows", 1)),
    Target("sesame.constructor", "fit_regressogram",
           "constructor.fit_regressogram",
           hook=_rows("constructor.regressogram_rows", 0)),
    Target("sesame.constructor", "predict_regressogram_rows",
           "constructor.predict_regressogram_rows"),
    Target("sesame.manager", "monitor", "manager.monitor"),
    Target("sesame.manager", "maybe_rebuild", "manager.maybe_rebuild",
           hook=_rebuild),
]

PER_LAYER_UNITS = {
    "tracesim.gen_trace.s": "s",
    "tracesim.ticks": "count",
    "tracesim.markov_steps": "count",
    "tracesim.ticks_per_s": "1/s",
    "tracesim.observe_predictors.s": "s",
    "tracesim.cumulative_series": "count",
    "tracesim.series_mb": "MB",
    "tracesim.true_energy.s": "s",
    "tracesim.true_energy.calls": "count",
    "battery.sample_interface.s": "s",
    "battery.readings": "count",
    "battery.rms_relative_error.s": "s",
    "collector.collect.s": "s",
    "collector.collect.calls": "count",
    "collector.collect.rows": "count",
    "collector.aggregate_response.s": "s",
    "constructor.stretch.s": "s",
    "constructor.build_model.s": "s",
    "constructor.build_model.calls": "count",
    "constructor.iterate_construction.s": "s",
    "constructor.iterate_construction.calls": "count",
    "constructor.svd_calls": "count",
    "constructor.predict_rows.s": "s",
    "constructor.predict_rows.rows": "count",
    "constructor.fit_regressogram.s": "s",
    "constructor.predict_regressogram_rows.s": "s",
    "constructor.regressogram_rows": "count",
    "manager.monitor.s": "s",
    "manager.monitor.calls": "count",
    "manager.maybe_rebuild.calls": "count",
    "manager.rebuilds": "count",
    "manager.rebuild_s": "s",
    "manager.rebuild_ratio": "fraction",
    "manager.steady_window_err": "fraction",
    "experiments.self_s": "s",
    "trace_overhead_s": "s",
    "peak_heap_mb": "MB",
}


class Runner:
    """Runs one scenario repeatedly, checking and hashing every result."""

    def __init__(self, workload, sc, scratch: str):
        self.workload = workload
        self.sc = sc
        self.scratch = scratch
        self.attempted = 0
        self.failed = 0
        self.digest: str | None = None

    def run_once(self, tracer: Tracer | None = None):
        """One end-to-end run; returns (host seconds, result) or (None, None)."""
        from sesame import experiments

        out_dir = tempfile.mkdtemp(dir=self.scratch)
        gc.collect()
        self.attempted += 1
        try:
            with tracer or contextlib.nullcontext():
                t0 = time.perf_counter()
                result = experiments.run_scenario(self.sc, out_dir)
                wall = time.perf_counter() - t0
            problems = gate(self.workload, self.sc, result)
            digest = report_digest(out_dir)
        except Exception:
            traceback.print_exc()
            self.failed += 1
            return None, None
        finally:
            shutil.rmtree(out_dir, ignore_errors=True)
        if self.digest is None:
            self.digest = digest
        elif digest != self.digest:
            problems.append(f"report digest {digest} differs from "
                            f"{self.digest} at the same seed")
        if problems:
            self.failed += 1
            print("check failed: " + "; ".join(problems), file=sys.stderr)
        return wall, result


def setup_times(workload, seed) -> list[float]:
    """Wall time to import sesame and build the scenario, fresh interpreters.

    Timed from before the spawn to the child's own clock reading once the
    scenario is built (the monotonic clock is system-wide): a wait with a
    timeout polls at 50 ms steps and would quantise the figure.
    """
    code = SETUP_CODE.format(bench=str(BENCH_DIR), name=workload.name,
                             seed=seed)
    times = []
    for _ in range(SETUP_REPS):
        t0 = time.monotonic()
        done = subprocess.run([sys.executable, "-c", code], check=True,
                              timeout=120, stdout=subprocess.PIPE, text=True)
        times.append(float(done.stdout.split()[-1]) - t0)
    return times


def warm_up(runner: Runner):
    """Untimed first run; also yields the run's quality figures.

    Scoring the adaptation model needs the run's simulated trace, which
    `run_scenario` does not return, so `simulate` is wrapped to keep it.
    """
    from sesame import experiments

    captured = []
    simulate = experiments.simulate

    def capture(sc):
        captured.append(simulate(sc))
        return captured[-1]

    experiments.simulate = capture
    try:
        _, result = runner.run_once()
    finally:
        experiments.simulate = simulate
    if result is None:
        return None
    return quality(runner.workload, result, captured[0] if captured else None)


def heap_peak_mb(runner: Runner) -> float:
    import tracemalloc

    tracemalloc.start()
    try:
        runner.run_once()
        return tracemalloc.get_traced_memory()[1] / 1e6
    finally:
        tracemalloc.stop()


def layer_metrics(tracer: Tracer, sc) -> dict[str, float]:
    self_s, calls = tracer.by_name()
    counts = tracer.counts
    ticks = n_ticks(sc)
    gen = self_s.get("tracesim.gen_trace", 0.0)
    series = counts["tracesim.cumulative_series"]
    over = counts["manager.over_threshold"]
    m = {
        "tracesim.ticks": ticks,
        "tracesim.markov_steps": markov_steps(sc),
        "tracesim.ticks_per_s": ticks / gen if gen else 0.0,
        "tracesim.cumulative_series": series,
        "tracesim.series_mb": series * (ticks + 1) * 8 / 1e6,
        "battery.readings": counts["battery.readings"],
        "collector.collect.rows": counts["collector.collect.rows"],
        "constructor.svd_calls": counts["constructor.svd_calls"],
        "constructor.predict_rows.rows": counts["constructor.predict_rows.rows"],
        "constructor.regressogram_rows": counts["constructor.regressogram_rows"],
        "manager.rebuilds": counts["manager.rebuilds"],
        "manager.rebuild_s": counts["manager.rebuild_s"],
        "manager.rebuild_ratio": counts["manager.rebuilds"] / over if over else 0.0,
        "experiments.self_s": sum(v for k, v in self_s.items()
                                  if k.startswith("experiments.")),
    }
    for name, unit in PER_LAYER_UNITS.items():
        layer, _, kind = name.rpartition(".")
        if name in m or not layer:
            continue
        if kind == "s" and unit == "s":
            m[name] = self_s.get(layer, 0.0)
        elif kind == "calls":
            m[name] = calls.get(layer, 0)
    return m


def _bin(value, edges, k: int):
    lo, hi = edges[0], edges[-1]
    if value < lo or value > hi:
        return None
    return min(int((value - lo) / (hi - lo) * k), k - 1)


def calibrate() -> float:
    """Seconds for a fixed kernel shaped like the program's hot paths.

    A row loop that bins numpy scalars into tuple-keyed dict cells (as the
    regressogram does), a loop of one `searchsorted` per step (as Markov
    sampling does) and one bulk numpy pass over 16 MB. The host's speed
    drifts by more than a factor of two over minutes (other tenants share
    the cores); timing this kernel right before every run measures that
    drift, so each run's wall time can be scaled to the reference speed.
    """
    import numpy as np

    rng = np.random.default_rng(0)
    x = rng.random((20_000, 1))
    y = rng.random(20_000)
    edges = np.linspace(0.0, 1.0, 11)
    cum = np.cumsum(np.full(6, 1.0 / 6.0))
    big = np.sort(rng.random(2_000_000))
    t0 = time.perf_counter()
    cells: dict[tuple, tuple[int, float]] = {}
    for i in range(x.shape[0]):
        cell = tuple(_bin(x[i, j], edges, 10) for j in range(x.shape[1]))
        count, total = cells.get(cell, (0, 0.0))
        cells[cell] = (count + 1, total + float(y[i]))
    for i in range(len(y)):
        min(int(np.searchsorted(cum, y[i], side="right")), 5)
    np.cumsum(big)[np.searchsorted(big, y) - 1]
    return time.perf_counter() - t0


def timed_loop(runner: Runner, seconds: float, traced: bool):
    """Repeat runs for `seconds`; with `traced`, alternate traced runs.

    Returns the untraced wall times, the same scaled to the reference
    host speed by the `calibrate()` timing taken right before each, the
    traced wall times scaled the same way, and the tracers.
    """
    walls, scaled, traced_scaled, tracers = [], [], [], []
    start = time.perf_counter()
    while True:
        tracer = None
        if traced and len(tracers) < len(walls):
            tracer = Tracer(TARGETS)
        cal = calibrate()
        wall, _ = runner.run_once(tracer)
        if wall is not None:
            if tracer is None:
                walls.append(wall)
                scaled.append(wall * CALIBRATION_REF_S / cal)
            else:
                traced_scaled.append(wall * CALIBRATION_REF_S / cal)
                tracers.append(tracer)
        elapsed = time.perf_counter() - start
        typical = statistics.median(walls) if walls else 0.0
        enough = (len(walls) >= MIN_REPS
                  and (not traced or len(tracers) >= MIN_REPS - 1))
        # failing runs must not keep the loop going past twice its budget
        if elapsed + typical > seconds and (enough or elapsed > 2 * seconds):
            break
    return walls, scaled, traced_scaled, tracers


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def env_line() -> str:
    import numpy

    blas = " ".join(f"{v}={os.environ[v]}"
                    for v in BLAS_THREAD_VARS + ("NUMPY_MADVISE_HUGEPAGE",))
    return (f"env python={platform.python_version()} numpy={numpy.__version__} "
            f"nproc={os.cpu_count()} {blas}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=None,
                        help="workload seed (default: the built-in's own)")
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed is not None and args.seed < 0:
        parser.error("--seed must be >= 0")
    if not (SRC / "sesame" / "__init__.py").is_file():
        print(f"perfbench: no sesame package under {SRC}", file=sys.stderr)
        return 2

    for var in BLAS_THREAD_VARS:
        os.environ[var] = "1"
    # keep numpy's large arrays off 2 MB pages, whose supply depends on
    # the state of the host at the time
    os.environ["NUMPY_MADVISE_HUGEPAGE"] = "0"
    os.environ["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), os.environ.get("PYTHONPATH")) if p)
    sys.path.insert(0, str(SRC))

    workload = WORKLOADS[args.workload]
    sc = scenario(workload, args.seed)
    print(env_line())
    print(f"workload {workload.name} scenario {workload.scenario} "
          f"seed {sc.seed} duration_s {sc.duration_s:g}")

    OUT.mkdir(exist_ok=True)
    scratch = tempfile.mkdtemp(dir=OUT, prefix="reports-")
    try:
        runner = Runner(workload, sc, scratch)
        setup = [] if args.trace else setup_times(workload, args.seed)
        qual = warm_up(runner)
        rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6
        heap_mb = heap_peak_mb(runner) if args.trace else None
        walls, scaled, traced_scaled, tracers = timed_loop(
            runner, args.seconds, bool(args.trace))
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    if qual is None or not walls or (args.trace and not tracers):
        print("perfbench: no successful run to report", file=sys.stderr)
        return 1
    wall_s = statistics.median(walls)
    q1, run_s, q3 = quartiles(scaled)
    print(f"report_sha256 {runner.digest}")
    print(f"fail_ratio {runner.failed}/{runner.attempted}")
    print(f"run_s median {run_s:.4f} s  q1 {q1:.4f}  q3 {q3:.4f}  "
          f"n {len(walls)}; unscaled host wall median {wall_s:.4f} s")

    if not args.trace:
        metrics = {
            "run_s": run_s,
            "sim_s_per_s": sc.duration_s / run_s,
            "setup_s": statistics.median(setup),
            "peak_rss_mb": rss_mb,
            "acc_1hz": qual["acc_1hz"],
            "acc_100hz": qual["acc_100hz"],
        }
        units = END_TO_END_UNITS
        if "steady_window_err" in qual:
            print(f"steady_window_err {qual['steady_window_err']:.6g} fraction")
    else:
        per_rep = [layer_metrics(t, sc) for t in tracers]
        metrics = {name: statistics.median(r[name] for r in per_rep)
                   for name in per_rep[0]}
        metrics["manager.steady_window_err"] = qual.get("steady_window_err", 0.0)
        metrics["trace_overhead_s"] = statistics.median(traced_scaled) - run_s
        metrics["peak_heap_mb"] = heap_mb
        units = PER_LAYER_UNITS
        absent = sorted({name for t in tracers for name in t.absent})
        if absent:
            print("absent layers (reported as 0): " + ", ".join(absent))
        spans = {"workload": workload.name, "seed": sc.seed,
                 "env": env_line(), "runs": [t.to_json() for t in tracers]}
        path = OUT / f"spans-{workload.name}-seed{sc.seed}.json"
        path.write_text(json.dumps(spans))
        print(f"spans written to {path.relative_to(ROOT)}")

    for name, unit in units.items():
        print(f"{name} {metrics[name]:.6g} {unit}")
    print(json.dumps({
        "correct": runner.failed == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {name: {"value": float(metrics[name]), "unit": unit}
                    for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
