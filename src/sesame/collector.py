"""Assemble aligned (X, y) training data from observed streams.

Polling policies follow the predictors' update behavior: fast predictors
are differenced at the target-interval boundaries, slow predictors hold
their last completed per-update aggregate, and event-driven predictors
change only when their level changes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .battery import CAPACITY, BatteryReadings
from .errors import (
    ConfigurationError,
    RateError,
    TruncationError,
    UnknownPredictorError,
)
from .tracesim import (
    EVENT_DRIVEN,
    LEVEL,
    POLLED_SLOW,
    RESIDENCY,
    ObservedStreamSet,
    PredictorSpec,
    _ratio_as_int,
)


@dataclass
class DesignMatrix:
    """Per-interval predictor aggregates, with an optional response vector.

    Residency columns hold interval fractions, counter columns hold summed
    deltas, level columns hold the level at the interval start. `y`, when
    present, is joules per interval.
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


def _interval_aggregate(streams: ObservedStreamSet, spec: PredictorSpec,
                        boundaries: np.ndarray, interval_s: float) -> np.ndarray:
    """One aggregate per interval for a single predictor."""
    stream = streams.stream(spec.id)
    if spec.kind == LEVEL or spec.policy == EVENT_DRIVEN:
        return stream.value_at(boundaries[:-1])

    if spec.policy == POLLED_SLOW and spec.update_rate_hz < 1.0 / interval_s:
        # Poll at the predictor's own update rate and hold the last
        # completed per-period aggregate across target intervals. The
        # delay is applied by the stream itself when the poll is served.
        period = 1.0 / spec.update_rate_hz
        starts = boundaries[:-1]
        last_poll = np.floor(starts / period + 1e-9) * period
        prev_poll = last_poll - period
        held_rate = np.where(
            last_poll >= period - 1e-12,
            (stream.value_at(np.maximum(last_poll, 0.0))
             - stream.value_at(np.maximum(prev_poll, 0.0))) / period,
            0.0,
        )
        if spec.kind == RESIDENCY:
            return held_rate
        return held_rate * interval_s

    cum = stream.value_at(boundaries)
    delta = np.diff(cum)
    if spec.kind == RESIDENCY:
        return delta / interval_s
    return delta


def collect(streams: ObservedStreamSet, specs: list[PredictorSpec],
            target_rate_hz: float, duration_s: float) -> DesignMatrix:
    """Build the X-only design matrix at `target_rate_hz` over `duration_s`."""
    if target_rate_hz <= 0:
        raise ConfigurationError("target rate must be > 0")
    interval = 1.0 / target_rate_hz
    if interval < streams.trace.tick_s - 1e-12:
        raise ConfigurationError(
            f"target rate {target_rate_hz} Hz exceeds the trace resolution "
            f"({1.0 / streams.trace.tick_s:g} Hz)")
    available = streams.trace.duration_s
    if duration_s > available + 1e-9:
        missing = int(math.ceil((duration_s - available) * target_rate_hz))
        raise TruncationError(
            f"streams cover {available} s of the requested {duration_s} s",
            missing=missing,
        )
    m = int(math.floor(duration_s * target_rate_hz + 1e-9))
    if m < 1:
        raise ConfigurationError("duration shorter than one interval")
    boundaries = np.arange(m + 1) * interval
    cols = []
    for spec in specs:
        if spec.id not in streams.specs:
            raise UnknownPredictorError(spec.id)
        cols.append(_interval_aggregate(streams, spec, boundaries, interval))
    return DesignMatrix(
        interval_s=interval,
        columns=tuple(s.id for s in specs),
        kinds=tuple(s.kind for s in specs),
        x=np.column_stack(cols),
        t_start_s=boundaries[:-1],
    )


def aggregate_response(readings: BatteryReadings,
                       interval_s: float) -> np.ndarray:
    """Joules per `interval_s` window derived from battery readings.

    Current kinds sum reading x voltage x reading-period; the capacity kind
    differences the boundary readings and multiplies by voltage.
    """
    v = readings.model.supply_voltage_v
    period = readings.period_s
    if interval_s < period - 1e-12:
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
