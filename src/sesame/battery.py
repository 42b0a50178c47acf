"""Smart-battery-interface simulation and error-vs-rate analysis.

Three interface kinds are modeled. `instant` reports the mean discharge
current over the reading period that just ended, `filtered` reports a
trailing moving average of internal samples (the laptop-style low-pass
register), and `capacity` reports remaining charge so that the consumer
has to difference two readings to get a mean current.

Each sampler reads the true energy of every whole reading period (for
the filtered kind, of every tap spacing), which its caller gives to
`sample_interface`. A run gives it `experiments.RunArtifacts.truth` at
that period: each truth is built once per run and held, the keyed finest
rate's sums or `true_energy`'s, while designs are built afresh, so the
readings and the scores read one array.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import AlignmentError, ConfigurationError, check_fields
from .tracesim import Trace, _check_seed, _ratio_as_int

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


def _sample_instant(energy: np.ndarray, model: BatteryInterfaceModel,
                    seed: int) -> np.ndarray:
    """Instant-kind readings at the model's rate, from the true `energy`
    of each reading period.

    Reading k, taken at t = (k + 1) / rate, is the true mean current over
    the reading period ending at t, times (1 + noise), plus the
    telescoped charge-register error.
    """
    period = 1.0 / model.reading_rate_hz
    exposed = energy / period / model.supply_voltage_v
    n_read = len(exposed)
    rng = np.random.default_rng(seed)
    if model.noise_sigma > 0:
        exposed = exposed * (1.0 + rng.normal(0.0, model.noise_sigma, n_read))
    if model.counter_sigma_c > 0:
        eta = rng.normal(0.0, model.counter_sigma_c, n_read + 1)
        exposed = exposed + np.diff(eta) * model.reading_rate_hz
    return exposed


def _sample_filtered(energy: np.ndarray, model: BatteryInterfaceModel,
                     seed: int) -> np.ndarray:
    """Filtered-kind register: trailing mean of the last `taps` internal
    samples, at the end of each tap spacing, from the true `energy` of
    each spacing; item i is the mean ending at time i * spacing, so the
    first, at t = 0, is 0.

    Internal samples sit window/taps apart, each the true mean current of
    its own sub-window with multiplicative noise. Samples from before the
    trace start are zero, so a step input needs a full window to settle.
    """
    spacing = _tap_spacing(model)
    samples = energy / spacing / model.supply_voltage_v
    rng = np.random.default_rng(seed)
    if model.noise_sigma > 0:
        samples = samples * (1.0 + rng.normal(0.0, model.noise_sigma, len(samples)))
    padded = np.concatenate([np.zeros(model.filter_taps), samples])
    # each window summed alone, so a register's rounding does not grow
    # with its position, as the difference of two running sums' would
    windows = sliding_window_view(padded, model.filter_taps)
    return windows.sum(axis=1) / model.filter_taps


def _sample_capacity(energy: np.ndarray, model: BatteryInterfaceModel,
                     seed: int) -> np.ndarray:
    """Capacity-kind readings: remaining charge, with multiplicative noise.

    The charge register integrates the same per-period energy that the
    instant sampler reads: charge drawn is the running sum of the true
    `energy` per reading period, over the supply voltage. Includes a
    reading at t = 0 so consumers can difference whole windows.
    """
    charge = np.concatenate([[0.0], np.cumsum(energy)]) / model.supply_voltage_v
    levels = model.initial_capacity_c - charge
    rng = np.random.default_rng(seed)
    if model.noise_sigma > 0:
        levels = levels * (1.0 + rng.normal(0.0, model.noise_sigma, len(levels)))
    return levels


def _tap_spacing(model: BatteryInterfaceModel) -> float:
    return model.filter_window_s / model.filter_taps


_SAMPLERS = {INSTANT: _sample_instant, FILTERED: _sample_filtered,
             CAPACITY: _sample_capacity}


def truth_rate(model: BatteryInterfaceModel) -> float:
    """The rate whose truth the interface `model` reads: its tap rate for
    the filtered kind, else its reading rate."""
    if model.kind == FILTERED:
        return 1.0 / _tap_spacing(model)
    return model.reading_rate_hz


def sample_interface(trace: Trace, model: BatteryInterfaceModel, seed: int,
                     energy: np.ndarray) -> BatteryReadings:
    """Readings of the interface `model` describes, from its kind's
    sampler, whose noise draws `seed`, an integer >= 0, keys. `energy`
    holds the joules of every whole interval of 1 / `truth_rate(model)`
    seconds of `trace`: each reading period, or for the filtered kind
    each tap spacing. The trace gives the filtered kind's reading count
    alone; AlignmentError when `energy` holds another count."""
    _check_seed(seed)
    per_energy = _ratio_as_int(1.0 / truth_rate(model), trace.tick_s,
                               "energy interval")
    if len(energy) != len(trace) // per_energy:
        raise AlignmentError(f"{len(energy)} energies for "
                             f"{len(trace) // per_energy} intervals")
    values = _SAMPLERS[model.kind](energy, model, seed)
    if model.kind == FILTERED:
        # each reading reads the register at the last tap end at or
        # before it
        per_read = _ratio_as_int(1.0 / model.reading_rate_hz, trace.tick_s,
                                 "reading period")
        per_sample = _ratio_as_int(_tap_spacing(model), trace.tick_s,
                                   "filter tap spacing")
        ends = np.arange(1, len(trace) // per_read + 1) * per_read
        values = values[ends // per_sample]
    return BatteryReadings(model, values)


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
