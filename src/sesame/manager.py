"""Configuration-keyed model table with low-rate error monitoring.

The table owns one active model per system configuration and compares
that model's energy numbers against battery-interface aggregates over
long windows. When the monitored error crosses the threshold the manager
decides to rebuild; the caller then collects a fresh construction
dataset and installs the model fitted on it, so each rebuild installs
once. Every decision is one line of the table's decision log.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .constructor import EnergyModel
from .errors import ArgumentError, ParseError
from .errors import from_document, read_json, to_document


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
class ModelTable:
    """Hash table of energy models, the monitoring settings, and the log
    of every decision the manager took."""

    models: dict[ConfigurationKey, EnergyModel] = field(default_factory=dict)
    active_key: ConfigurationKey | None = None
    threshold: float = 0.10
    window_s: float = 100.0
    decision_log: list[str] = field(default_factory=list)

    @property
    def active_model(self) -> EnergyModel | None:
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


def monitor(table: ModelTable, t_s: float, x: np.ndarray,
            observed_j: float) -> float | None:
    """Relative error of the active model over the window ending at `t_s`.

    `x` is the window's predictor row, shape (n,), and `observed_j` the
    energy the battery interface reports over the window. A window with
    non-positive interface energy is logged as skipped and gives None. A
    table with no active model, and a non-finite energy or row, raise
    ArgumentError.
    """
    model = table.active_model
    if model is None:
        raise ArgumentError("no active model to monitor")
    if not (math.isfinite(observed_j) and np.isfinite(x).all()):
        raise ArgumentError(f"window ending at {t_s} s: observed energy and "
                            "predictor row must be finite")
    if observed_j <= 0:
        table._log(t_s, None, "skip-window")
        return None
    predicted = float(model.predict_rows(x[None, :], table.window_s)[0])
    err = abs(predicted - observed_j) / observed_j
    table._log(t_s, err, "monitor")
    return err


def maybe_rebuild(table: ModelTable, t_s: float, latest_error: float,
                  data_left: bool) -> bool:
    """Decide whether the window ending at `t_s` calls for a rebuild.

    It does iff the latest error exceeds the threshold and `data_left`
    says the run still holds a full construction dataset after `t_s`. The
    caller then collects that dataset and installs the model fitted on it
    with `install_model`. An over-threshold window without that data is
    logged and changes nothing. A non-finite error raises ArgumentError.
    """
    if not math.isfinite(latest_error):
        raise ArgumentError(f"window ending at {t_s} s: error "
                            f"{latest_error} is not finite")
    if latest_error <= table.threshold:
        return False
    if not data_left:
        table._log(t_s, latest_error, "over-threshold-no-data")
        return False
    table._log(t_s, latest_error, "rebuild")
    return True


# ---------------------------------------------------------------------------
# Persistence
# ---------------------------------------------------------------------------

@dataclass
class _Entry:
    key: tuple[tuple[str, str, str], ...]
    model: EnergyModel


@dataclass
class _TableDocument:
    active_key: tuple[tuple[str, str, str], ...] | None
    threshold: float
    window_s: float
    decision_log: tuple[str, ...]
    models: tuple[_Entry, ...]


def _check_settings(table: ModelTable) -> None:
    """Raise ArgumentError unless the threshold is in (0, 1) and the window is
    finite and positive, the ranges a scenario's pipeline settings take."""
    if not 0.0 < table.threshold < 1.0:
        raise ArgumentError(f"threshold {table.threshold} must be in (0, 1)")
    if not 0.0 < table.window_s < math.inf:
        raise ArgumentError(
            f"window {table.window_s} s must be finite and > 0")


def persist(table: ModelTable, path: str) -> None:
    """Write the table, including its decision log, as a strict JSON
    document.

    A NaN or infinite value, and settings or an active key that `load`
    refuses, raise ArgumentError; no file is written then.
    """
    _check_settings(table)
    if table.active_key is not None and table.active_key not in table.models:
        raise ArgumentError(f"active key {table.active_key} has no model")
    doc = _TableDocument(
        table.active_key.triples if table.active_key else None,
        table.threshold, table.window_s, tuple(table.decision_log),
        tuple(_Entry(key.triples, m) for key, m in table.models.items()))
    # encode first, so a value strict JSON cannot hold leaves no partial file
    try:
        text = json.dumps(to_document(doc), indent=1, allow_nan=False)
    except ValueError as exc:
        raise ArgumentError(f"model table: {exc}") from None
    with open(path, "w") as fh:
        fh.write(text)


def load(path: str) -> ModelTable:
    """Read a table written by `persist`; malformed files raise ParseError
    and unreadable ones ConfigurationError.

    Keys are read by the typed rules of `errors.from_document`; an unknown
    key, and a key that two entries share, is refused.
    """
    doc = from_document(_TableDocument, read_json(path, "model table"),
                        "table")
    table = ModelTable(threshold=doc.threshold, window_s=doc.window_s,
                       decision_log=list(doc.decision_log))
    try:
        _check_settings(table)
    except ArgumentError as exc:
        raise ParseError(f"{path}: {exc}") from None
    for i, entry in enumerate(doc.models):
        key = ConfigurationKey(entry.key)
        if key in table.models:
            raise ParseError(f"{path}: table.models[{i}]: key {entry.key} "
                             "repeats an earlier entry")
        table.models[key] = entry.model
    if doc.active_key is not None:
        table.active_key = ConfigurationKey(doc.active_key)
        if table.active_key not in table.models:
            raise ParseError(f"{path}: active key {doc.active_key} "
                             "is not among the table's models")
    return table


def table_equals(a: ModelTable, b: ModelTable) -> bool:
    """Field-for-field equality, used by the persistence round-trip checks;
    models compare by `EnergyModel.__eq__`."""
    return a == b
