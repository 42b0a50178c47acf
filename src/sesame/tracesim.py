"""Ground-truth power trace generation from a component-state system model.

A system is a set of components, each in exactly one state per tick. Tick
power is the always-on base draw plus the per-state power of every
component, so the energy of any interval is an exactly linear function of
the per-state residencies. Predictors are software-visible views of those
residencies (residency fractions, event counters, or discrete levels) and
carry the imperfections of a real OS: finite update rates and delays.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence

import numpy as np

from .errors import AlignmentError, ConfigurationError, UnknownPredictorError

RESIDENCY = "residency"
COUNTER = "counter"
LEVEL = "level"

POLLED_FAST = "polled-fast"
POLLED_SLOW = "polled-slow"
EVENT_DRIVEN = "event-driven"

_REL_TOL = 1e-9

# Markov steps resolved per vectorised block; bounds the successor table
# at (number of states) x _MARKOV_BLOCK entries whatever the run length.
_MARKOV_BLOCK = 8192


def _ratio_as_int(value: float, base: float, what: str) -> int:
    """Return value/base as an int, or raise if it is not integral."""
    ratio = value / base
    n = int(round(ratio))
    if n < 1 or abs(ratio - n) > 1e-6 * max(1.0, abs(ratio)):
        raise AlignmentError(
            f"{what}: {value} is not an integral multiple of {base}"
        )
    return n


# ---------------------------------------------------------------------------
# System model
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Component:
    """One hardware component with a power level per state."""

    name: str
    state_powers: tuple[float, ...]          # watts, index = state id
    state_names: tuple[str, ...] = ()

    def __post_init__(self):
        if len(self.state_powers) < 1:
            raise ConfigurationError(f"component {self.name}: needs >= 1 state")
        if any(p < 0 for p in self.state_powers):
            raise ConfigurationError(f"component {self.name}: negative power")
        if self.state_names and len(self.state_names) != len(self.state_powers):
            raise ConfigurationError(f"component {self.name}: state name count")

    @property
    def n_states(self) -> int:
        return len(self.state_powers)

    def state_label(self, j: int) -> str:
        if self.state_names:
            return self.state_names[j]
        return str(j)


@dataclass(frozen=True)
class ComponentStateModel:
    """Per-component per-state power table plus an always-on base draw."""

    components: tuple[Component, ...]
    base_power_w: float = 0.0

    def __post_init__(self):
        if len(self.components) < 1:
            raise ConfigurationError("system needs >= 1 component")
        if self.base_power_w < 0:
            raise ConfigurationError("base power must be >= 0")
        names = [c.name for c in self.components]
        if len(set(names)) != len(names):
            raise ConfigurationError("duplicate component names")

    def component_index(self, name: str) -> int:
        for i, c in enumerate(self.components):
            if c.name == name:
                return i
        raise ConfigurationError(f"unknown component {name!r}")

    def state_ids(self) -> list[str]:
        """Canonical `component:state` labels, in model order."""
        out = []
        for c in self.components:
            out.extend(f"{c.name}:{c.state_label(j)}" for j in range(c.n_states))
        return out


# ---------------------------------------------------------------------------
# Workload occupancy processes
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class FixedState:
    """Component pinned to one state."""

    state: int


@dataclass(frozen=True)
class Schedule:
    """Deterministic timeline of (duration_s, state), cycled over the phase."""

    steps: tuple[tuple[float, int], ...]

    def __post_init__(self):
        if not self.steps or any(d <= 0 for d, _ in self.steps):
            raise ConfigurationError("schedule steps need positive durations")


@dataclass(frozen=True)
class DutyCycle:
    """Square wave: `fraction_hi` of each period in state_hi, rest in state_lo."""

    period_s: float
    fraction_hi: float
    state_hi: int
    state_lo: int

    def __post_init__(self):
        if self.period_s <= 0:
            raise ConfigurationError("duty cycle period must be > 0")
        if not 0.0 <= self.fraction_hi <= 1.0:
            raise ConfigurationError("duty cycle fraction must be in [0, 1]")


@dataclass(frozen=True)
class MarkovChain:
    """Seeded discrete-time chain over states, one draw per `step_s`."""

    transition: tuple[tuple[float, ...], ...]
    step_s: float = 0.1
    initial_state: int = 0

    def __post_init__(self):
        n = len(self.transition)
        for row in self.transition:
            if len(row) != n:
                raise ConfigurationError("Markov matrix must be square")
            if any(p < 0 for p in row):
                raise ConfigurationError("Markov probabilities must be >= 0")
            if abs(sum(row) - 1.0) > 1e-9:
                raise ConfigurationError(
                    f"Markov row {row} does not sum to 1 within 1e-9"
                )
        if self.step_s <= 0:
            raise ConfigurationError("Markov step must be > 0")
        if not 0 <= self.initial_state < n:
            raise ConfigurationError("Markov initial state out of range")


OccupancyProcess = FixedState | Schedule | DutyCycle | MarkovChain


@dataclass(frozen=True)
class Phase:
    """Named workload segment with one occupancy process per component."""

    name: str
    duration_s: float
    occupancy: Mapping[str, OccupancyProcess]

    def __post_init__(self):
        if self.duration_s <= 0:
            raise ConfigurationError(f"phase {self.name}: duration must be > 0")


@dataclass(frozen=True)
class WorkloadSpec:
    """Sequence of phases plus the seed that makes the run reproducible.

    If the phases end before the requested trace duration, the final
    phase's processes keep running.
    """

    phases: tuple[Phase, ...]
    seed: int

    def __post_init__(self):
        if not self.phases:
            raise ConfigurationError("workload needs >= 1 phase")


def _phase_states(
    proc: OccupancyProcess,
    component: Component,
    n_ticks: int,
    tick_s: float,
    rng_key: tuple[int, ...],
) -> np.ndarray:
    """Tick-level state indices for one component over one phase.

    Timing is phase-local: schedules and duty cycles restart at the start
    of each phase.
    """
    if isinstance(proc, FixedState):
        if not 0 <= proc.state < component.n_states:
            raise ConfigurationError(f"{component.name}: state out of range")
        return np.full(n_ticks, proc.state, dtype=np.int16)

    if isinstance(proc, Schedule):
        durs = np.array([d for d, _ in proc.steps])
        states = np.array([s for _, s in proc.steps], dtype=np.int16)
        if states.min() < 0 or states.max() >= component.n_states:
            raise ConfigurationError(f"{component.name}: state out of range")
        edges = np.cumsum(durs)
        total = edges[-1]
        t = ((np.arange(n_ticks) + 0.5) * tick_s) % total
        idx = np.searchsorted(edges, t, side="right")
        return states[np.minimum(idx, len(states) - 1)]

    if isinstance(proc, DutyCycle):
        if max(proc.state_hi, proc.state_lo) >= component.n_states:
            raise ConfigurationError(f"{component.name}: state out of range")
        t = ((np.arange(n_ticks) + 0.5) * tick_s) % proc.period_s
        hi = t < proc.fraction_hi * proc.period_s
        return np.where(hi, proc.state_hi, proc.state_lo).astype(np.int16)

    if isinstance(proc, MarkovChain):
        k = len(proc.transition)
        if k != component.n_states:
            raise ConfigurationError(
                f"{component.name}: Markov matrix is {k}x{k} for "
                f"{component.n_states} states"
            )
        ticks_per_step = _ratio_as_int(proc.step_s, tick_s, "Markov step")
        n_steps = math.ceil(n_ticks / ticks_per_step)
        rng = np.random.default_rng(rng_key)
        cum = np.cumsum(np.asarray(proc.transition, dtype=float), axis=1)
        # All draws of the phase come from this one call, in step order: the
        # seeds and every calibrated anchor depend on exactly this sequence.
        draws = rng.random(n_steps)
        states = np.empty(n_steps, dtype=np.int16)
        s = proc.initial_state
        for start in range(0, n_steps, _MARKOV_BLOCK):
            block = draws[start:start + _MARKOV_BLOCK]
            # The draws do not depend on the state, so resolve the successor
            # of every state for every step of the block up front; the clamp
            # covers rows whose float cumsum ends just below 1.0.
            nxt = np.minimum(
                [np.searchsorted(row, block, side="right") for row in cum],
                k - 1).tolist()
            walk = []
            for i in range(len(block)):
                walk.append(s)
                s = nxt[s][i]
            states[start:start + len(walk)] = walk
        return np.repeat(states, ticks_per_step)[:n_ticks]

    raise ConfigurationError(f"unknown occupancy process {proc!r}")


# ---------------------------------------------------------------------------
# Trace
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class TraceSample:
    """One tick: timestamp, canonical residency vector, instantaneous power."""

    timestamp_s: float
    x: np.ndarray            # one-hot residency fractions over state_ids()
    power_w: float


@dataclass(frozen=True)
class StateResidency:
    """Seconds one component spent in one state within an interval."""

    component: int
    state: int
    seconds: float
    interval_start_s: float
    interval_end_s: float


class Trace:
    """Tick-grid ground truth: per-component states and system power."""

    def __init__(self, model: ComponentStateModel, tick_s: float,
                 states: np.ndarray, power_w: np.ndarray):
        self.model = model
        self.tick_s = tick_s
        self.states = states          # (n_components, n_ticks) int16
        self.power_w = power_w        # (n_ticks,) watts
        self._state_ids = model.state_ids()

    def __len__(self) -> int:
        return self.power_w.shape[0]

    @property
    def duration_s(self) -> float:
        return len(self) * self.tick_s

    @property
    def times_s(self) -> np.ndarray:
        return np.arange(len(self)) * self.tick_s

    @property
    def state_ids(self) -> list[str]:
        return list(self._state_ids)

    def __getitem__(self, i: int) -> TraceSample:
        if not 0 <= i < len(self):
            raise IndexError(i)
        x = np.zeros(len(self._state_ids))
        offset = 0
        for c_idx, comp in enumerate(self.model.components):
            x[offset + int(self.states[c_idx, i])] = 1.0
            offset += comp.n_states
        return TraceSample(i * self.tick_s, x, float(self.power_w[i]))

    def samples(self) -> Iterable[TraceSample]:
        return (self[i] for i in range(len(self)))

    # -- per-tick truth for a predictor spec --------------------------------

    def tick_values(self, spec: "PredictorSpec") -> np.ndarray:
        """Instantaneous predictor value per tick (weight of the active state)."""
        c_idx = self.model.component_index(spec.component)
        comp = self.model.components[c_idx]
        w = np.zeros(comp.n_states)
        for j, wj in spec.weights.items():
            if not 0 <= j < comp.n_states:
                raise ConfigurationError(f"{spec.id}: state {j} out of range")
            w[j] = wj
        return w[self.states[c_idx]]

    def cumulative(self, spec: "PredictorSpec") -> np.ndarray:
        """Accumulated counter value at each tick boundary, length n_ticks+1.

        Residency specs accumulate weighted seconds; counter specs accumulate
        weighted counts (weights are rates per second in a state).
        """
        inc = self.tick_values(spec) * self.tick_s
        out = np.empty(len(self) + 1)
        out[0] = 0.0
        np.cumsum(inc, out=out[1:])
        return out

    def interval_truth(self, spec: "PredictorSpec", interval_s: float) -> np.ndarray:
        """Exact per-interval aggregate: fraction, count delta, or mean level."""
        k = _ratio_as_int(interval_s, self.tick_s, "interval")
        m = len(self) // k
        vals = self.tick_values(spec)[: m * k].reshape(m, k)
        if spec.kind == LEVEL:
            return vals.mean(axis=1)
        if spec.kind == RESIDENCY:
            return vals.mean(axis=1)
        return vals.sum(axis=1) * self.tick_s

    def state_residencies(self, interval_s: float,
                          index: int) -> list[StateResidency]:
        """Per-state residency seconds for interval `index`; sums to the
        interval length for every component."""
        k = _ratio_as_int(interval_s, self.tick_s, "interval")
        start = index * k
        if start + k > len(self):
            raise AlignmentError(f"interval {index} beyond trace end")
        out = []
        for c_idx, comp in enumerate(self.model.components):
            chunk = self.states[c_idx, start: start + k]
            counts = np.bincount(chunk, minlength=comp.n_states)
            for j in range(comp.n_states):
                out.append(StateResidency(
                    component=c_idx, state=j,
                    seconds=float(counts[j]) * self.tick_s,
                    interval_start_s=start * self.tick_s,
                    interval_end_s=(start + k) * self.tick_s))
        return out


def gen_trace(model: ComponentStateModel, wl: WorkloadSpec,
              duration_s: float, tick_s: float) -> Trace:
    """Simulate the component-state system over `duration_s` at `tick_s`.

    Returns ceil(duration/tick) samples; identical seeds give bit-identical
    traces. Tick power is base power plus the sum of active state powers.
    """
    if tick_s <= 0:
        raise ConfigurationError("tick must be > 0")
    if duration_s < tick_s:
        raise ConfigurationError("duration must be >= tick")
    n_ticks = math.ceil(duration_s / tick_s - _REL_TOL)

    states = np.empty((len(model.components), n_ticks), dtype=np.int16)
    for c_idx, comp in enumerate(model.components):
        chunks: list[np.ndarray] = []
        tick_cursor = 0
        for p_idx, phase in enumerate(wl.phases):
            if tick_cursor >= n_ticks:
                break
            if comp.name not in phase.occupancy:
                raise ConfigurationError(
                    f"phase {phase.name}: no occupancy for {comp.name}"
                )
            last = p_idx == len(wl.phases) - 1
            n_phase = math.ceil(phase.duration_s / tick_s - _REL_TOL)
            n = n_ticks - tick_cursor if last else min(n_phase,
                                                       n_ticks - tick_cursor)
            chunks.append(_phase_states(
                phase.occupancy[comp.name], comp, n, tick_s,
                (wl.seed, c_idx, p_idx)))
            tick_cursor += n
        states[c_idx] = np.concatenate(chunks)

    power = np.full(n_ticks, model.base_power_w)
    for c_idx, comp in enumerate(model.components):
        power += np.asarray(comp.state_powers)[states[c_idx]]
    return Trace(model, tick_s, states, power)


def true_energy(trace: Trace, interval_s: float) -> np.ndarray:
    """Exact energy per interval, in joules (sum of tick power x tick)."""
    k = _ratio_as_int(interval_s, trace.tick_s, "interval")
    m = len(trace) // k
    chunks = trace.power_w[: m * k].reshape(m, k)
    return chunks.sum(axis=1) * trace.tick_s


def residency_beta_true(model: ComponentStateModel, interval_s: float,
                        specs: Sequence["PredictorSpec"]) -> np.ndarray:
    """Exact energy-per-interval coefficients for pure residency predictors.

    Only valid when every spec is a single-state residency fraction and the
    omitted states per component share that component's minimum-index state
    as baseline (see `residency_predictors`). The intercept collects base
    power plus every component's baseline-state power, times the interval.
    """
    base = model.base_power_w
    coefs = []
    for spec in specs:
        if spec.kind != RESIDENCY or len(spec.weights) != 1:
            raise ConfigurationError("beta_true needs single-state residency specs")
        c_idx = model.component_index(spec.component)
        (j, w), = spec.weights.items()
        if w != 1.0:
            raise ConfigurationError("beta_true needs unit residency weights")
        baseline = model.components[c_idx].state_powers[0]
        coefs.append(model.components[c_idx].state_powers[j] - baseline)
    for comp in model.components:
        base += comp.state_powers[0]
    return np.array([base] + coefs) * interval_s


# ---------------------------------------------------------------------------
# Predictors and their observation
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PredictorSpec:
    """A software-readable statistic derived from one component's states.

    kind:
      residency - fraction of the interval spent in the weighted states
      counter   - events accumulated at `weight` per second in each state
      level     - the weight of the current state (e.g. a brightness tier)

    The OS refreshes the visible value at `update_rate_hz` and the refresh
    reflects activity `delay_s` in the past. `policy` tells the collector
    how to poll it.
    """

    id: str
    component: str
    kind: str
    weights: Mapping[int, float]
    update_rate_hz: float = 1000.0
    delay_s: float = 0.0
    policy: str = POLLED_FAST
    name: str = ""

    def __post_init__(self):
        if self.kind not in (RESIDENCY, COUNTER, LEVEL):
            raise ConfigurationError(f"{self.id}: unknown kind {self.kind!r}")
        if self.policy not in (POLLED_FAST, POLLED_SLOW, EVENT_DRIVEN):
            raise ConfigurationError(f"{self.id}: unknown policy {self.policy!r}")
        if self.update_rate_hz <= 0:
            raise ConfigurationError(f"{self.id}: update rate must be > 0")
        if self.delay_s < 0:
            raise ConfigurationError(f"{self.id}: delay must be >= 0")
        if not self.weights:
            raise ConfigurationError(f"{self.id}: empty weight map")


def residency_predictors(model: ComponentStateModel,
                         update_rate_hz: float = 1000.0) -> list[PredictorSpec]:
    """One unit-weight residency spec per non-baseline state.

    State 0 of each component is the omitted baseline, which keeps the
    design matrix clear of the all-states-sum-to-one collinearity.
    """
    specs = []
    for comp in model.components:
        for j in range(1, comp.n_states):
            specs.append(PredictorSpec(
                id=f"{comp.name}:{comp.state_label(j)}",
                component=comp.name,
                kind=RESIDENCY,
                weights={j: 1.0},
                update_rate_hz=update_rate_hz,
            ))
    return specs


class ObservedStream:
    """Sample-and-hold view of one predictor as the OS exposes it.

    Cumulative kinds (residency, counter) expose a monotone register that
    advances only at update instants; level kinds expose the delayed level.
    `value_at` accepts arbitrary query times and applies the update grid
    and delay.
    """

    def __init__(self, spec: PredictorSpec, trace: Trace):
        self.spec = spec
        self._tick_s = trace.tick_s
        self._n_ticks = len(trace)
        if spec.kind == LEVEL:
            self._series = trace.tick_values(spec)
        else:
            self._series = trace.cumulative(spec)

    def _visible_instants(self, times: np.ndarray) -> np.ndarray:
        """Map query times to the activity time each visible value reflects."""
        t = np.asarray(times, dtype=float) - self.spec.delay_s
        if self.spec.policy == EVENT_DRIVEN and self.spec.kind == LEVEL:
            return t  # value changes exactly at (delayed) state-change events
        period = 1.0 / self.spec.update_rate_hz
        return np.floor(t / period + 1e-9) * period

    def value_at(self, times: np.ndarray) -> np.ndarray:
        """Visible register value (cumulative kinds) or level at `times`."""
        vis = self._visible_instants(np.atleast_1d(np.asarray(times, float)))
        idx = np.floor(vis / self._tick_s + 1e-9).astype(np.int64)
        if self.spec.kind == LEVEL:
            idx = np.clip(idx, 0, self._n_ticks - 1)
            vals = self._series[idx]
            vals = np.where(vis < 0, self._series[0], vals)
        else:
            idx = np.clip(idx, 0, self._n_ticks)
            vals = self._series[idx]
            vals = np.where(vis < 0, 0.0, vals)
        return vals


class ObservedStreamSet:
    """Observed predictor streams plus a read grid and an access counter."""

    def __init__(self, trace: Trace, specs: Sequence[PredictorSpec],
                 read_rate_hz: float):
        if read_rate_hz <= 0:
            raise ConfigurationError("read rate must be > 0")
        ids = [s.id for s in specs]
        if len(set(ids)) != len(ids):
            raise ConfigurationError("duplicate predictor ids")
        self.read_rate_hz = read_rate_hz
        self.trace = trace
        self.specs = {s.id: s for s in specs}
        self.streams = {s.id: ObservedStream(s, trace) for s in specs}
        n_reads = int(math.floor(trace.duration_s * read_rate_hz + _REL_TOL))
        self.read_times_s = np.arange(n_reads + 1) / read_rate_hz
        self.accesses = 0

    def ids(self) -> list[str]:
        return list(self.streams.keys())

    def stream(self, pid: str) -> ObservedStream:
        if pid not in self.streams:
            raise UnknownPredictorError(pid)
        return self.streams[pid]

    def read_series(self, pid: str) -> tuple[np.ndarray, np.ndarray]:
        """(times, visible values) on the read grid."""
        return self.read_times_s, self.stream(pid).value_at(self.read_times_s)


def observe_predictors(trace: Trace, specs: Sequence[PredictorSpec],
                       read_rate_hz: float) -> ObservedStreamSet:
    """Expose the predictors at `read_rate_hz` with their update-rate and
    delay imperfections applied."""
    return ObservedStreamSet(trace, specs, read_rate_hz)


# ---------------------------------------------------------------------------
# CSV export
# ---------------------------------------------------------------------------

def export_trace_csv(trace: Trace, specs: Sequence[PredictorSpec],
                     path: str, interval_s: float | None = None) -> None:
    """Write `t_s,power_w,<predictor ids...>` truth at tick (or interval) grid."""
    step = trace.tick_s if interval_s is None else interval_s
    k = _ratio_as_int(step, trace.tick_s, "interval")
    m = len(trace) // k
    times = np.arange(m) * step
    power = trace.power_w[: m * k].reshape(m, k).mean(axis=1)
    cols = [trace.interval_truth(spec, step) for spec in specs]
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["t_s", "power_w"] + [s.id for s in specs])
        for i in range(m):
            writer.writerow([f"{times[i]:.10g}", f"{power[i]:.10g}"]
                            + [f"{c[i]:.10g}" for c in cols])
