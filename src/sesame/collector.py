"""Assemble aligned (X, y) training data from the trace's runs, read as
the OS exposes the predictors: refreshed on their update grid, delayed.

Polling policies follow the predictors' update behavior: fast predictors
are differenced at the target-interval boundaries, slow predictors hold
their last completed per-update rate, and an event-driven level changes
at every delayed state change. Every cumulative column is written as a
rate, so this module is the one place that knows predictor units.
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
    Trace,
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


def _observed(trace: Trace, spec: PredictorSpec,
              ticks: np.ndarray) -> np.ndarray:
    """Visible register value (cumulative kinds) or level of `spec` at the
    tick indices `ticks`.

    Cumulative kinds expose a monotone register that advances only at
    update instants; level kinds expose the delayed level. Each tick is
    moved back by the delay and down to the update grid, and the runs
    are read at the resulting ticks only.
    """
    delay, period = _spec_ticks(spec, trace.tick_s)
    idx = (np.asarray(ticks, dtype=np.int64) - delay) // period * period
    c_idx, weights = trace.model.weight_vector(spec)
    if spec.kind == LEVEL:
        # before the trace start the level is the first tick's
        idx = np.clip(idx, 0, len(trace) - 1)
        states = trace.runs[c_idx][1]
        return weights[states[trace.run_index(c_idx, idx)]]
    # before the trace start the register reads 0
    idx = np.clip(idx, 0, len(trace))
    return trace.integral(c_idx, weights, idx) * trace.tick_s


def _interval_aggregate(trace: Trace, spec: PredictorSpec,
                        boundaries: np.ndarray, interval_s: float) -> np.ndarray:
    """One value per interval between the tick indices `boundaries`: the
    level at the interval start, or the register's rate over the
    interval (a residency fraction or counter events per second)."""
    if spec.kind == LEVEL:
        return _observed(trace, spec, boundaries[:-1])

    period = _spec_ticks(spec, trace.tick_s)[1]
    if spec.policy == POLLED_SLOW and period > boundaries[1]:
        # Updates slower than the intervals (boundaries start at 0): hold
        # the last completed per-period rate across target intervals.
        # The delay is applied when the poll is served; before the first
        # completed period both polls read 0.
        last_poll = boundaries[:-1] // period * period
        period_s = 1.0 / spec.update_rate_hz
        return (_observed(trace, spec, last_poll)
                - _observed(trace, spec, last_poll - period)) / period_s

    delta = np.diff(_observed(trace, spec, boundaries))
    delta /= interval_s
    return delta


def collect(trace: Trace, specs: Sequence[PredictorSpec],
            target_rate_hz: float) -> DesignMatrix:
    """Build the X-only design matrix at `target_rate_hz`, one row per
    whole interval of the trace; the interval must be whole ticks."""
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
    boundaries = np.arange(m + 1) * k
    return DesignMatrix(
        interval_s=interval,
        columns=tuple(s.id for s in specs),
        kinds=tuple(s.kind for s in specs),
        x=np.column_stack([_interval_aggregate(trace, spec, boundaries,
                                               interval) for spec in specs]),
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
