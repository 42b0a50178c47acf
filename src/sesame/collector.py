"""Assemble aligned (X, y) training data from the trace's runs, read as
the OS exposes the predictors: refreshed on their update grid, delayed.

Polling policies follow the predictors' update behavior: fast predictors
are summed exactly between the delayed update-grid ticks of the
target-interval boundaries, slow predictors hold their last completed
per-update rate, and an event-driven level changes at every delayed state
change. The sums come from the truth's own interval-sum kernel
(`RunLookup.sums`), on a delayed grid that is located by division
(`tracesim._Grid`), so no array of grid ticks is built. Every cumulative
column is written as a rate, so this module is the one place that knows
predictor units.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .battery import CAPACITY, BatteryReadings
from .errors import ConfigurationError, RateError
from .tracesim import (
    EVENT_DRIVEN,
    LEVEL,
    POLLED_SLOW,
    PredictorSpec,
    RunLookup,
    Trace,
    _Grid,
    _ratio_as_int,
)


@dataclass
class DesignMatrix:
    """Per-interval predictor rates, with an optional response vector.

    Residency columns hold interval fractions, counter columns hold events
    per second, level columns hold the level at the interval start; no
    column depends on the interval's length. `y`, when present, is joules
    per interval.
    """

    interval_s: float
    columns: tuple[str, ...]
    kinds: tuple[str, ...]
    x: np.ndarray                      # (m, n)
    t_start_s: np.ndarray              # (m,)
    y: np.ndarray | None = None

    def __post_init__(self):
        self.x = np.asarray(self.x, dtype=float)
        if self.x.ndim != 2 or self.x.shape[0] < 1:
            raise ConfigurationError("design matrix needs at least one row")
        if self.x.shape[1] != len(self.columns) or len(self.kinds) != len(self.columns):
            raise ConfigurationError("column/kind count mismatch")
        if self.y is not None and len(self.y) != self.x.shape[0]:
            raise ConfigurationError("response length mismatch")

    @property
    def m(self) -> int:
        return self.x.shape[0]

    @property
    def n(self) -> int:
        return self.x.shape[1]


def _spec_ticks(spec: PredictorSpec, tick_s: float) -> tuple[int, int]:
    """(delay, update period) of `spec` in ticks of `tick_s`; an
    event-driven level changes at every delayed state change (period 1)."""
    delay = _ratio_as_int(spec.delay_s, tick_s, f"{spec.id} delay", least=0)
    if spec.policy == EVENT_DRIVEN:
        return delay, 1
    return delay, _ratio_as_int(1.0 / spec.update_rate_hz, tick_s,
                                f"{spec.id} update period")


def _collect_group(trace: Trace, specs: Sequence[PredictorSpec],
                   key: tuple[int, int, int, bool], columns: list[int],
                   m: int, k: int, interval: float, x: np.ndarray) -> None:
    """Write the `columns` of `x` whose specs share the delayed grid of
    `key`, (component, delay, update period, held), as `collect` says,
    for `m` intervals of `k` ticks. The lookup and the sums are freed on
    return, so that `collect` never holds two groups' at once."""
    c_idx, delay, period, held = key
    if held:
        # a row whose last update instant is p (in periods) holds sum p:
        # the period ending where a poll at p reads, at (p - lag + 1) *
        # period, where lag is the delay in whole periods, rounded up,
        # plus one
        polls = np.arange(m) * k
        polls //= period
        lag = 1 + -(-delay // period)
        grid = _Grid(int(polls[-1]) + 1, period, lag * period, period)
    else:
        grid = _Grid(m, k, delay, period)
    lookup = RunLookup(trace, c_idx, grid)
    for i in columns:
        spec = specs[i]
        weights = trace.model.weight_vector(spec)[1]
        if spec.kind == LEVEL:
            x[:, i] = lookup.at(weights)[:-1]
            continue
        sums = lookup.sums(weights)
        sums *= trace.tick_s
        if held:
            sums /= 1.0 / spec.update_rate_hz
            x[:, i] = sums[polls]
        else:
            np.divide(sums, interval, out=x[:, i])


def collect(trace: Trace, specs: Sequence[PredictorSpec],
            target_rate_hz: float) -> DesignMatrix:
    """Build the X-only design matrix at `target_rate_hz`, one row per
    whole interval of the trace; the interval must be whole ticks.

    The OS refreshes a predictor every update period and reflects the
    state `delay` ticks back, so the value visible at tick b was current
    at (b - delay) // period * period, and at 0 before the trace start.
    Specs of one component with the same delay and update period share
    one such delayed grid, a `_Grid` answered by division, and its
    `RunLookup`. A level reads its weight at each interval start's grid
    tick. A cumulative column (residency or counter) is the exact sum
    over its grid interval, divided by the target interval: a fraction
    or events per second. A polled-slow one whose period exceeds the
    interval holds instead the sum over the last update period completed
    before each interval start, on the delayed period grid, divided by
    the period.
    """
    if target_rate_hz <= 0:
        raise ConfigurationError("target rate must be > 0")
    if not specs:
        raise ConfigurationError("no predictors to collect")
    interval = 1.0 / target_rate_hz
    k = _ratio_as_int(interval, trace.tick_s,
                      f"target rate {target_rate_hz:g} Hz interval")
    m = len(trace) // k
    if m < 1:
        raise ConfigurationError("trace shorter than one interval")

    groups: dict[tuple[int, int, int, bool], list[int]] = {}
    for i, spec in enumerate(specs):
        delay, period = _spec_ticks(spec, trace.tick_s)
        held = (spec.kind != LEVEL and spec.policy == POLLED_SLOW
                and period > k)
        key = (trace.model.component_index(spec.component), delay, period,
               held)
        groups.setdefault(key, []).append(i)

    # column-major: each column is written, and later read, whole
    x = np.empty((m, len(specs)), order="F")
    for key, columns in groups.items():
        _collect_group(trace, specs, key, columns, m, k, interval, x)
    return DesignMatrix(
        interval_s=interval,
        columns=tuple(s.id for s in specs),
        kinds=tuple(s.kind for s in specs),
        x=x,
        t_start_s=np.arange(m) * interval,
    )


def aggregate_response(readings: BatteryReadings,
                       interval_s: float) -> np.ndarray:
    """Joules per `interval_s` window derived from battery readings.

    Current kinds sum reading x voltage x reading-period; the capacity kind
    differences the boundary readings and multiplies by voltage.
    """
    v = readings.model.supply_voltage_v
    period = readings.period_s
    if interval_s < period:
        raise RateError(
            f"interval {interval_s} s is shorter than the reading period {period} s")
    k = _ratio_as_int(interval_s, period, "response interval")
    if readings.kind == CAPACITY:
        # values[0] is the t=0 reading; boundaries sit every k readings
        m = (len(readings.values) - 1) // k
        if m < 1:
            raise RateError("not enough capacity readings for one interval")
        levels = readings.values[: m * k + 1: k]
        return -np.diff(levels) * v
    m = len(readings.values) // k
    if m < 1:
        raise RateError("not enough readings for one interval")
    grouped = readings.values[: m * k].reshape(m, k).sum(axis=1)
    return grouped * v * period
