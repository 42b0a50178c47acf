"""Benchmark workloads, their correctness gate and their quality figures.

Each workload is one built-in scenario run end to end through
`sesame.experiments.run_scenario`. Why these three:

- molding_t61 (t61like): the full battery-fed pipeline; observation,
  collection and `predict_rows` do their largest share of work here, and
  the regressogram and the manager are bypassed.
- regressogram_quadratic (quadratic_cpu): the regressogram dominates the
  run and appears nowhere else; observation is near zero because there is
  no cumulative series, so it is the bypass side for observation and
  memory changes.
- adaptation_dvs (dvs_flip): Markov sampling has its largest share here,
  with per-phase chain restarts, and it is the only workload that drives
  the manager and `iterate_construction`.

The module imports nothing from sesame at import time, so the harness can
pin BLAS threads before numpy loads.
"""

from __future__ import annotations

import hashlib
import math
import os
from dataclasses import dataclass

# molded_l2 accuracy floors. At 1 Hz the acceptance anchor for the pinned
# seed is 0.93, but an unmodified program gives 0.9263 at seed 1 (0.943 to
# 0.970 on 23 other seeds), so the floor that must hold at every seed is
# lower; a broken fit lands far below either figure.
MOLDING_MIN_ACC_1HZ = 0.90
MOLDING_MIN_ACC_100HZ = 0.85


@dataclass(frozen=True)
class Workload:
    name: str
    scenario: str          # built-in scenario name
    headline: str | None   # report estimator scored by acc_*; None = adaptation


WORKLOADS = {w.name: w for w in (
    Workload("molding_t61", "t61like", "molded_l2"),
    Workload("regressogram_quadratic", "quadratic_cpu", "regressogram"),
    Workload("adaptation_dvs", "dvs_flip", None),
)}


def scenario(workload: Workload, seed: int | None):
    """The generated scenario: the built-in, re-seeded when `seed` is set."""
    from sesame.scenarios import builtin

    sc = builtin(workload.scenario)
    return sc if seed is None else sc.with_seed(seed)


def n_ticks(sc) -> int:
    return math.ceil(sc.duration_s / sc.tick_s - 1e-9)


def markov_steps(sc) -> int:
    """Markov steps the trace generator samples, from the scenario alone.

    Mirrors the generator's split of the tick grid into phases: every
    phase but the last gets its own length, the last takes the rest.
    """
    total = n_ticks(sc)
    phases = sc.workload.phases
    steps = 0
    for comp in sc.system.components:
        cursor = 0
        for i, phase in enumerate(phases):
            if cursor >= total:
                break
            n = total - cursor
            if i < len(phases) - 1:
                n = min(math.ceil(phase.duration_s / sc.tick_s - 1e-9), n)
            proc = phase.occupancy[comp.name]
            if hasattr(proc, "transition"):
                steps += math.ceil(n / round(proc.step_s / sc.tick_s))
            cursor += n
    return steps


def last_install_s(result) -> float:
    """Time of the last model install in an adaptation decision log."""
    times = [float(line.split(",")[0]) for line in result.table.decision_log
             if line.split(",")[-1].startswith("install")]
    return max(times)


def gate(workload: Workload, sc, result) -> list[str]:
    """Problems with one run's result; an empty list means it passed."""
    problems = []
    if workload.headline == "molded_l2":
        for rate, floor in ((1.0, MOLDING_MIN_ACC_1HZ),
                            (100.0, MOLDING_MIN_ACC_100HZ)):
            acc = 1.0 - result.value(rate, "molded_l2")
            if not acc >= floor:
                problems.append(
                    f"molded_l2 accuracy {acc:.4f} at {rate:g} Hz < {floor}")
    elif workload.headline == "regressogram":
        for rate in (1.0, 100.0):
            reg = result.value(rate, "regressogram")
            lin = result.value(rate, "linear_molded")
            if not reg < lin:
                problems.append(f"regressogram error {reg:.4f} does not beat "
                                f"linear_molded {lin:.4f} at {rate:g} Hz")
    else:
        if result.rebuild_count != 1:
            problems.append(f"{result.rebuild_count} rebuilds, expected 1")
        tail = [e for _, e in result.monitored()[-5:]]
        if len(tail) < 5 or not all(e < sc.threshold for e in tail):
            problems.append(f"last five window errors {tail} not all under "
                            f"the threshold {sc.threshold}")
    return problems


def quality(workload: Workload, result, arts) -> dict[str, float]:
    """acc_1hz, acc_100hz and steady_window_err of one run.

    acc_* is 1 - RMS relative error of the headline estimator against
    tick-level truth. An adaptation run has no such report row, so its
    headline is the model the manager installed last, scored on the rows
    after that install (`arts` is the run's simulation, needed only then).
    steady_window_err is the mean monitored window error after the last
    install, defined for adaptation runs only.
    """
    if workload.headline is not None:
        return {"acc_1hz": 1.0 - result.value(1.0, workload.headline),
                "acc_100hz": 1.0 - result.value(100.0, workload.headline)}
    from sesame.battery import rms_relative_error

    t0 = last_install_s(result)
    model = result.table.active_model
    out = {}
    for key, rate in (("acc_1hz", 1.0), ("acc_100hz", 100.0)):
        dm = arts.design(rate)
        truth = arts.truth(rate)
        m = min(dm.m, len(truth))
        keep = dm.t_start_s[:m] >= t0
        pred = model.predict_rows(dm.x[:m][keep], 1.0 / rate)
        out[key] = 1.0 - rms_relative_error(pred, truth[:m][keep])
    errs = [e for t, e in result.monitored() if t > t0]
    out["steady_window_err"] = sum(errs) / len(errs)
    return out


def report_digest(out_dir: str) -> str:
    """sha256 over every report file's relative path and bytes."""
    h = hashlib.sha256()
    for base, dirs, files in os.walk(out_dir):
        dirs.sort()
        for name in sorted(files):
            path = os.path.join(base, name)
            h.update(os.path.relpath(path, out_dir).encode() + b"\0")
            with open(path, "rb") as fh:
                h.update(fh.read())
            h.update(b"\0")
    return h.hexdigest()
