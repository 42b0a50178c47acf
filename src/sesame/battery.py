"""Smart-battery-interface simulation and error-vs-rate analysis.

Three interface kinds are modeled. `instant` reports the mean discharge
current over the reading period that just ended, `filtered` reports a
trailing moving average of internal samples (the laptop-style low-pass
register), and `capacity` reports remaining charge so that the consumer
has to difference two readings to get a mean current.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import AlignmentError, ConfigurationError, check_fields
from .tracesim import Trace, _check_seed, _ratio_as_int, true_energy

INSTANT = "instant"
FILTERED = "filtered"
CAPACITY = "capacity"


@dataclass(frozen=True)
class BatteryInterfaceModel:
    """Fuel-gauge behavior knobs.

    noise_sigma is the relative std-dev of multiplicative Gaussian noise on
    each raw sample (for the capacity kind it applies to the
    remaining-capacity register). counter_sigma adds a zero-mean absolute
    error (coulombs) to the internal charge register of the instant kind;
    because consecutive readings difference that register, the resulting
    per-reading error telescopes and cancels under averaging faster than
    independent noise does.
    """

    kind: str
    reading_rate_hz: float
    supply_voltage_v: float = 12.0
    noise_sigma: float = 0.0
    counter_sigma_c: float = 0.0
    filter_window_s: float = 0.0
    filter_taps: int = 0
    initial_capacity_c: float = 20000.0

    def __post_init__(self):
        check_fields(self)
        if self.kind not in (INSTANT, FILTERED, CAPACITY):
            raise ConfigurationError(f"unknown battery interface kind {self.kind!r}")
        for name in ("reading_rate_hz", "supply_voltage_v"):
            if getattr(self, name) <= 0:
                raise ConfigurationError(f"{name} must be finite and > 0")
        for name in ("noise_sigma", "counter_sigma_c", "filter_window_s",
                     "initial_capacity_c"):
            if getattr(self, name) < 0:
                raise ConfigurationError(f"{name} must be finite and >= 0")
        if self.kind == FILTERED:
            if self.filter_window_s <= 0 or self.filter_taps < 1:
                raise ConfigurationError(
                    "filtered kind needs window > 0 and taps >= 1")


class BatteryReadings:
    """A reading stream with its interface description attached."""

    def __init__(self, model: BatteryInterfaceModel, values: np.ndarray):
        self.model = model
        self.values = values

    @property
    def kind(self) -> str:
        return self.model.kind

    @property
    def period_s(self) -> float:
        return 1.0 / self.model.reading_rate_hz

    def __len__(self) -> int:
        return len(self.values)


def _sample_instant(trace: Trace, model: BatteryInterfaceModel,
                    seed: int) -> BatteryReadings:
    """Instant-kind readings at the model's rate.

    Reading k, taken at t = (k + 1) / rate, is the true mean current over
    the reading period ending at t, times (1 + noise), plus the
    telescoped charge-register error.
    """
    period = 1.0 / model.reading_rate_hz
    exposed = true_energy(trace, period) / period / model.supply_voltage_v
    n_read = len(exposed)
    rng = np.random.default_rng(seed)
    if model.noise_sigma > 0:
        exposed = exposed * (1.0 + rng.normal(0.0, model.noise_sigma, n_read))
    if model.counter_sigma_c > 0:
        eta = rng.normal(0.0, model.counter_sigma_c, n_read + 1)
        exposed = exposed + np.diff(eta) * model.reading_rate_hz
    return BatteryReadings(model, exposed)


def _sample_filtered(trace: Trace, model: BatteryInterfaceModel,
                     seed: int) -> BatteryReadings:
    """Filtered-kind readings: trailing mean of the last `taps` internal samples.

    Internal samples sit window/taps apart, each the true mean current of
    its own sub-window with multiplicative noise. Samples from before the
    trace start are zero, so a step input needs a full window to settle.
    """
    spacing = model.filter_window_s / model.filter_taps
    samples = true_energy(trace, spacing) / spacing / model.supply_voltage_v
    rng = np.random.default_rng(seed)
    if model.noise_sigma > 0:
        samples = samples * (1.0 + rng.normal(0.0, model.noise_sigma, len(samples)))
    padded = np.concatenate([np.zeros(model.filter_taps), samples])
    cum = np.concatenate([[0.0], np.cumsum(padded)])
    trailing = (cum[model.filter_taps:] - cum[:-model.filter_taps]) / model.filter_taps
    # trailing[i] = mean of taps internal samples ending at time i*spacing
    per_read = _ratio_as_int(1.0 / model.reading_rate_hz, trace.tick_s,
                             "reading period")
    per_sample = _ratio_as_int(spacing, trace.tick_s, "filter tap spacing")
    ends = np.arange(1, len(trace) // per_read + 1) * per_read
    return BatteryReadings(model, trailing[ends // per_sample])


def _sample_capacity(trace: Trace, model: BatteryInterfaceModel,
                     seed: int) -> BatteryReadings:
    """Capacity-kind readings: remaining charge, with multiplicative noise.

    The charge register integrates the same per-period energy that the
    instant sampler reads: charge drawn is the running sum of the true
    energy per reading period, over the supply voltage. Includes a
    reading at t = 0 so consumers can difference whole windows.
    """
    energy = true_energy(trace, 1.0 / model.reading_rate_hz)
    charge = np.concatenate([[0.0], np.cumsum(energy)]) / model.supply_voltage_v
    levels = model.initial_capacity_c - charge
    rng = np.random.default_rng(seed)
    if model.noise_sigma > 0:
        levels = levels * (1.0 + rng.normal(0.0, model.noise_sigma, len(levels)))
    return BatteryReadings(model, levels)


_SAMPLERS = {INSTANT: _sample_instant, FILTERED: _sample_filtered,
             CAPACITY: _sample_capacity}


def sample_interface(trace: Trace, model: BatteryInterfaceModel,
                     seed: int) -> BatteryReadings:
    """Readings of the interface `model` describes, from its kind's
    sampler, whose noise draws `seed`, an integer >= 0, keys."""
    _check_seed(seed)
    return _SAMPLERS[model.kind](trace, model, seed)


def rms_relative_error(estimates: np.ndarray, truth: np.ndarray) -> float:
    """sqrt(mean(((est - true) / true)^2)), skipping non-positive truths.

    Both arrays are read whole, with no masked copies, when every truth
    is positive, and the relative errors are built and squared in place
    in one row-length temporary.
    """
    est = np.asarray(estimates, dtype=float)
    truth = np.asarray(truth, dtype=float)
    if est.shape != truth.shape:
        raise AlignmentError(f"estimate/truth length mismatch: "
                             f"{est.shape} vs {truth.shape}")
    return rms_relative_difference(np.subtract(est, truth), truth)


def rms_relative_difference(diff: np.ndarray, truth: np.ndarray,
                            counts: np.ndarray | None = None) -> float:
    """`rms_relative_error` of the estimates `truth + diff`, given their
    differences `diff` (est - true), a float array of truth's shape that
    it overwrites: sqrt(mean((diff / true)^2)) over positive truths. With
    `counts`, row i stands for `counts[i]` rows: sqrt(sum(c (diff /
    true)^2) / sum(c)).
    """
    # no mask outlives this test when every truth is positive: held while
    # `diff` is squared, it would add to the peak memory of fine-rate scoring
    if not (truth > 0).all():
        ok = np.flatnonzero(truth > 0)
        diff, truth = np.take(diff, ok), np.take(truth, ok)
        if counts is not None:
            counts = counts[ok]
    if not truth.size:
        raise ConfigurationError("no positive truth values to compare against")
    diff /= truth
    diff *= diff
    if counts is None:
        return float(np.sqrt(np.mean(diff)))
    return float(np.sqrt(diff @ counts / counts.sum()))
