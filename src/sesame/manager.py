"""Configuration-keyed model table with low-rate error monitoring.

The table owns one active model per system configuration, compares that
model's energy numbers against battery-interface aggregates over long
windows, and rebuilds the model when the monitored error crosses the
threshold. A cool-down equal to one construction dataset prevents rebuild
storms while fresh data accumulates.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from .battery import BatteryReadings
from .collector import DesignMatrix, aggregate_response
from .constructor import EnergyModel, model_from_dict, model_to_dict
from .errors import ParseError, read_json


@dataclass(frozen=True)
class ConfigurationKey:
    """Canonical (category, name, value) triples identifying a configuration;
    the categories are "hardware", "software" and "user"."""

    triples: tuple[tuple[str, str, str], ...]

    @classmethod
    def canonical(cls, items: Sequence[tuple[str, str, object]]) -> "ConfigurationKey":
        trip = sorted((str(c), str(n), str(v)) for c, n, v in items)
        return cls(tuple(trip))


@dataclass
class MonitorRecord:
    t_s: float
    error: float


@dataclass
class ModelTable:
    """Hash table of energy models plus the monitoring state."""

    models: dict[ConfigurationKey, EnergyModel] = field(default_factory=dict)
    active_key: ConfigurationKey | None = None
    threshold: float = 0.10
    window_s: float = 100.0
    history: list[MonitorRecord] = field(default_factory=list)
    decision_log: list[str] = field(default_factory=list)
    cooldown_until_s: float = float("-inf")
    skipped_windows: int = 0

    @property
    def active_model(self) -> EnergyModel | None:
        if self.active_key is None:
            return None
        return self.models.get(self.active_key)

    def _log(self, t_s: float, error: float | None, action: str) -> None:
        err = "" if error is None else f"{error:.10g}"
        self.decision_log.append(
            f"{t_s:.10g},{err},{self.threshold:.10g},{action}")


def lookup_or_create(table: ModelTable, key: ConfigurationKey) -> EnergyModel | None:
    """Return the stored model for `key`, or None as the cold-start signal.

    Either way the key becomes the active one; a miss means the caller
    should collect a construction dataset and install a model.
    """
    table.active_key = key
    model = table.models.get(key)
    if model is None:
        table._log(0.0, None, "cold-start")
    return model


def install_model(table: ModelTable, key: ConfigurationKey,
                  model: EnergyModel, t_s: float = 0.0) -> None:
    """Install `model` under `key` without touching other entries."""
    table.models[key] = model
    if table.active_key is None:
        table.active_key = key
    action = "install-below-target" if model.below_target else "install"
    table._log(t_s, None, action)


def monitor(table: ModelTable, dm: DesignMatrix,
            readings: BatteryReadings,
            voltage_v: float | None = None) -> np.ndarray:
    """Per-window relative error of the active model vs the interface.

    `dm` must hold one row per monitor window. Windows with non-positive
    interface energy are skipped and counted. Errors are appended to the
    table history.
    """
    model = table.active_model
    if model is None:
        raise ParseError("no active model to monitor")
    if abs(dm.interval_s - table.window_s) > 1e-9:
        raise ValueError(
            f"monitor rows are {dm.interval_s} s, table window is {table.window_s} s")
    predicted = model.predict_rows(dm.x, dm.interval_s)
    observed = aggregate_response(readings, dm.interval_s, voltage_v)
    errors = []
    for i in range(len(predicted)):
        # align by timestamp so row slices of a longer run still match
        w = int(round(dm.t_start_s[i] / dm.interval_s))
        t = float(dm.t_start_s[i] + dm.interval_s)
        if w >= len(observed):
            break
        if observed[w] <= 0:
            table.skipped_windows += 1
            table._log(t, None, "skip-window")
            continue
        err = abs(predicted[i] - observed[w]) / observed[w]
        table.history.append(MonitorRecord(t, err))
        table._log(t, err, "monitor")
        errors.append(err)
    return np.array(errors)


def maybe_rebuild(table: ModelTable, t_s: float, latest_error: float,
                  builder: Callable[[], EnergyModel],
                  construction_span_s: float) -> bool:
    """Rebuild the active model iff the latest error exceeds the threshold.

    `builder` must construct a model from freshly collected stretched data
    with the full candidate predictor set. After a rebuild the table stays
    in cool-down until `construction_span_s` of new data has passed, so at
    most one rebuild fires per burst of over-threshold windows. A rebuild
    that misses its accuracy target is installed anyway, flagged.
    """
    if latest_error <= table.threshold:
        return False
    if t_s < table.cooldown_until_s:
        table._log(t_s, latest_error, "over-threshold-cooldown")
        return False
    table._log(t_s, latest_error, "rebuild")
    model = builder()
    table.cooldown_until_s = t_s + construction_span_s
    if table.active_key is None:
        raise ParseError("rebuild without an active key")
    install_model(table, table.active_key, model, t_s)
    return True


# ---------------------------------------------------------------------------
# Persistence
# ---------------------------------------------------------------------------

def persist(table: ModelTable, path: str) -> None:
    """Write the table, including history and log, as a strict JSON document.

    A NaN or infinite value other than the default cooldown raises
    ValueError, and so does an active key with no model, which `load`
    refuses.
    """
    if table.active_key is not None and table.active_key not in table.models:
        raise ValueError(f"active key {table.active_key} has no model")
    doc = {
        "active_key": list(map(list, table.active_key.triples))
        if table.active_key else None,
        "threshold": table.threshold,
        "window_s": table.window_s,
        # -inf (no cooldown yet) has no strict-JSON spelling; null stands in
        "cooldown_until_s": None if table.cooldown_until_s == float("-inf")
        else table.cooldown_until_s,
        "skipped_windows": table.skipped_windows,
        "history": [[r.t_s, r.error] for r in table.history],
        "decision_log": list(table.decision_log),
        "models": [
            {"key": list(map(list, key.triples)), "model": model_to_dict(m)}
            for key, m in table.models.items()
        ],
    }
    # encode first, so a value strict JSON cannot hold leaves no partial file
    text = json.dumps(doc, indent=1, allow_nan=False)
    with open(path, "w") as fh:
        fh.write(text)


def load(path: str) -> ModelTable:
    """Read a table written by `persist`; malformed files raise ParseError
    and unreadable ones ConfigurationError."""
    doc = read_json(path, "model table")
    try:
        table = ModelTable(
            threshold=float(doc["threshold"]),
            window_s=float(doc["window_s"]),
            # older files spell the default as -Infinity, which json reads
            cooldown_until_s=float("-inf") if doc["cooldown_until_s"] is None
            else float(doc["cooldown_until_s"]),
            skipped_windows=int(doc["skipped_windows"]),
            history=[MonitorRecord(float(t), float(e)) for t, e in doc["history"]],
            decision_log=[str(line) for line in doc["decision_log"]],
        )
        for entry in doc["models"]:
            key = ConfigurationKey(tuple(tuple(t) for t in entry["key"]))
            table.models[key] = model_from_dict(entry["model"])
        if doc["active_key"] is not None:
            table.active_key = ConfigurationKey(
                tuple(tuple(t) for t in doc["active_key"]))
            if table.active_key not in table.models:
                raise ParseError(f"{path}: active key {doc['active_key']} "
                                 "is not among the table's models")
        return table
    except (KeyError, TypeError, ValueError) as exc:
        raise ParseError(f"{path}: malformed table document: {exc}") from exc


def table_equals(a: ModelTable, b: ModelTable) -> bool:
    """Field-for-field equality, used by the persistence round-trip checks."""
    return (
        a.active_key == b.active_key
        and a.threshold == b.threshold
        and a.window_s == b.window_s
        and a.cooldown_until_s == b.cooldown_until_s
        and a.skipped_windows == b.skipped_windows
        and a.history == b.history
        and a.decision_log == b.decision_log
        and set(a.models) == set(b.models)
        and all(a.models[k] == b.models[k] for k in a.models)
    )
