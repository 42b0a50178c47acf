"""Assemble aligned (X, y) training data from observed streams.

Polling policies follow the predictors' update behavior: fast predictors
are differenced at the target-interval boundaries, slow predictors hold
their last completed per-update aggregate, and event-driven predictors
change only when their level changes.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass

import numpy as np

from .battery import CAPACITY, BatteryReadings
from .errors import (
    ConfigurationError,
    RateError,
    SchemaError,
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


def bundle_read(streams: ObservedStreamSet, specs: list[PredictorSpec],
                mask: set[str], t_s: float,
                target_rate_hz: float) -> dict[str, float]:
    """One coherent snapshot of the masked predictors at time `t_s`.

    Returns the same per-interval aggregates the collect row containing
    `t_s` would hold. The whole bundle charges a single stream access,
    which is the quantity the evaluation's overhead accounting uses.
    """
    if not mask:
        raise ConfigurationError("bundle mask must be non-empty")
    by_id = {s.id: s for s in specs}
    for pid in mask:
        if pid not in by_id:
            raise UnknownPredictorError(pid)
        if pid not in streams.specs:
            raise UnknownPredictorError(pid)
    interval = 1.0 / target_rate_hz
    k = math.floor(t_s / interval + 1e-9)
    boundaries = np.array([k * interval, (k + 1) * interval])
    streams.accesses += 1
    out = {}
    for spec in specs:
        if spec.id in mask:
            out[spec.id] = float(
                _interval_aggregate(streams, spec, boundaries, interval)[0])
    return out


def aggregate_response(readings: BatteryReadings, interval_s: float,
                       voltage_v: float | None = None) -> np.ndarray:
    """Joules per `interval_s` window derived from battery readings.

    Current kinds sum reading x voltage x reading-period; the capacity kind
    differences the boundary readings and multiplies by voltage.
    """
    v = readings.model.supply_voltage_v if voltage_v is None else voltage_v
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


def attach_response(dm: DesignMatrix, readings: BatteryReadings,
                    voltage_v: float | None = None) -> DesignMatrix:
    """Return a copy of `dm` with y aggregated at the matrix interval."""
    y = aggregate_response(readings, dm.interval_s, voltage_v)
    m = min(dm.m, len(y))
    return DesignMatrix(
        interval_s=dm.interval_s,
        columns=dm.columns,
        kinds=dm.kinds,
        x=dm.x[:m],
        t_start_s=dm.t_start_s[:m],
        y=y[:m],
    )


def export_design_csv(dm: DesignMatrix, path: str) -> None:
    """Write `t_start_s,<predictor ids...>,y_j` (y column only if present)."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        header = ["t_start_s"] + list(dm.columns)
        if dm.y is not None:
            header.append("y_j")
        writer.writerow(header)
        for i in range(dm.m):
            row = [f"{dm.t_start_s[i]:.10g}"] + [f"{v:.10g}" for v in dm.x[i]]
            if dm.y is not None:
                row.append(f"{dm.y[i]:.10g}")
            writer.writerow(row)


def import_design_csv(path: str, kinds: dict[str, str]) -> DesignMatrix:
    """Read a matrix written by `export_design_csv`; `kinds` maps id to kind."""
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    if not rows or rows[0][0] != "t_start_s":
        raise SchemaError(f"{path}: not a design matrix export")
    header = rows[0][1:]
    has_y = bool(header) and header[-1] == "y_j"
    columns = header[:-1] if has_y else header
    for pid in columns:
        if pid not in kinds:
            raise SchemaError(f"{path}: unknown predictor id {pid!r}")
    data = np.array([[float(v) for v in r] for r in rows[1:]])
    if data.shape[0] < 2:
        raise SchemaError(f"{path}: need at least two rows to infer the interval")
    t = data[:, 0]
    x = data[:, 1: 1 + len(columns)]
    y = data[:, -1] if has_y else None
    return DesignMatrix(
        interval_s=float(t[1] - t[0]),
        columns=tuple(columns),
        kinds=tuple(kinds[c] for c in columns),
        x=x,
        t_start_s=t,
        y=y,
    )
