"""Ground-truth power trace generation from a component-state system model.

A system is a set of components, each in exactly one state per tick. Tick
power is the always-on base draw plus the per-state power of every
component, so the energy of any interval is an exactly linear function of
the per-state residencies. Predictors are software-visible views of those
residencies (residency fractions, event counters, or discrete levels) and
carry the imperfections of a real OS: finite update rates and delays.

Each component follows, phase by phase, a Markov chain or a
deterministic schedule; phases and steps are whole ticks (`_phase_edges`).
The one seed is the caller's (a scenario's `seed`), passed to `gen_trace`,
and each chain draws from the key (seed, component, phase).
The trace is run-length: states change only at Markov steps or schedule
edges, so each component keeps the tick at which each run starts and the
state it holds, never an array per tick.
The trace answers one question: interval sums of per-state weights
between sorted query ticks, through a `RunLookup` and its one kernel,
`RunLookup.sums`. The truth is those sums of the state powers
(`true_energy`); the capacity sampler's charge register is their running
total; the collector sums each cumulative predictor exactly over its
delayed update grid, one per (component, delay, update period). Every
query of the pipeline is such a grid, `_Grid`: interval boundaries seen
late through a value refreshed every period, answered in closed form
with no array of its ticks. A query that outnumbers a component's runs
is answered run-major: each run's first query comes from one division,
ticks are computed only where an interval crosses a run start, and
per-run values are expanded with `np.repeat`; a run that starts on the
query tick closing its interval, with no other run starting inside it,
crosses nothing, and on a uniform grid whose step divides every run
start, as the 100 Hz truth's does on every built-in, no crossing is
sought at all. A shorter one is a binary search of the run starts at
its ticks, which are then no more than the runs. A scenario run builds
each truth once and holds it (`experiments.RunArtifacts`): its keyed
finest rate's sums, or `true_energy`'s; its designs are built afresh.

Markov chains are sampled straight into runs too: a two-state chain in
closed form, in one pass over its steps that are not stays, and any
other chain with one Python iteration per run. Both give the states of
the step-by-step walk exactly. Each phase's runs come out merged, so
`gen_trace` merges runs only where a phase meets the next.
"""

from __future__ import annotations

import bisect
import math
from array import array
from dataclasses import dataclass
from functools import cached_property
from typing import Mapping, Sequence

import numpy as np

from .errors import AlignmentError, ArgumentError, ConfigurationError, check_fields

RESIDENCY = "residency"
COUNTER = "counter"
LEVEL = "level"

POLLED_FAST = "polled-fast"
POLLED_SLOW = "polled-slow"
EVENT_DRIVEN = "event-driven"


def _ratio_as_int(value: float, base: float, what: str, least: int = 1) -> int:
    """value/base as an int of at least `least`, or AlignmentError: the
    one place where seconds become a count of ticks or of readings; its
    1e-9 relative bound refuses half a tick up to 5e8 ticks."""
    ratio = value / base
    n = int(round(ratio)) if math.isfinite(ratio) else 0
    if not (n >= least and abs(ratio - n) <= 1e-9 * max(1.0, abs(ratio))):
        raise AlignmentError(f"{what}: {value} is not an integral "
                             f"multiple of {base}")
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
        check_fields(self)
        if len(self.state_powers) < 1:
            raise ConfigurationError(f"component {self.name}: needs >= 1 state")
        if min(self.state_powers) < 0:
            raise ConfigurationError(
                f"component {self.name}: state powers must be finite and >= 0")
        if self.state_names and len(self.state_names) != len(self.state_powers):
            raise ConfigurationError(f"component {self.name}: state name count")

    @property
    def n_states(self) -> int:
        return len(self.state_powers)


@dataclass(frozen=True)
class ComponentStateModel:
    """Per-component per-state power table plus an always-on base draw."""

    components: tuple[Component, ...]
    base_power_w: float = 0.0

    def __post_init__(self):
        check_fields(self)
        if len(self.components) < 1:
            raise ConfigurationError("system needs >= 1 component")
        if self.base_power_w < 0:
            raise ConfigurationError("base power must be finite and >= 0")
        names = [c.name for c in self.components]
        if len(set(names)) != len(names):
            raise ConfigurationError("duplicate component names")

    def component_index(self, name: str) -> int:
        for i, c in enumerate(self.components):
            if c.name == name:
                return i
        raise ConfigurationError(f"unknown component {name!r}")

    def weight_vector(self, spec: PredictorSpec) -> tuple[int, np.ndarray]:
        """(component index, per-state weight vector) of a predictor spec."""
        c_idx = self.component_index(spec.component)
        comp = self.components[c_idx]
        w = np.zeros(comp.n_states)
        for j, wj in spec.weights.items():
            if not 0 <= j < comp.n_states:
                raise ConfigurationError(f"{spec.id}: state {j} out of range")
            w[j] = wj
        return c_idx, w


# ---------------------------------------------------------------------------
# Workload occupancy processes
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Schedule:
    """Deterministic timeline of (duration_s, state), cycled over the
    phase: one step pins a state, and two make a duty cycle."""

    TAG = "schedule"    # the process's "type" in a scenario file
    steps: tuple[tuple[float, int], ...]

    def __post_init__(self):
        check_fields(self)
        if not self.steps or not all(d > 0 for d, _ in self.steps):
            raise ConfigurationError(
                "schedule steps need finite, positive durations")


@dataclass(frozen=True)
class MarkovChain:
    """Seeded discrete-time chain over states, one draw per `step_s`."""

    TAG = "markov"
    transition: tuple[tuple[float, ...], ...]
    step_s: float = 0.1
    initial_state: int = 0

    def __post_init__(self):
        check_fields(self)
        n = len(self.transition)
        for row in self.transition:
            if len(row) != n:
                raise ConfigurationError("Markov matrix must be square")
            if min(row) < 0:
                raise ConfigurationError(
                    "Markov probabilities must be finite and >= 0")
            if abs(sum(row) - 1.0) > 1e-9:
                raise ConfigurationError(
                    f"Markov row {row} does not sum to 1 within 1e-9"
                )
        if self.step_s <= 0:
            raise ConfigurationError("Markov step must be finite and > 0")
        if not 0 <= self.initial_state < n:
            raise ConfigurationError("Markov initial state out of range")


OccupancyProcess = Schedule | MarkovChain


@dataclass(frozen=True)
class Phase:
    """Named workload segment with one occupancy process per component."""

    name: str
    duration_s: float
    occupancy: Mapping[str, OccupancyProcess]

    def __post_init__(self):
        check_fields(self)
        if self.duration_s <= 0:
            raise ConfigurationError(
                f"phase {self.name}: duration must be finite and > 0")


@dataclass(frozen=True)
class WorkloadSpec:
    """Sequence of phases. The seed that makes a run reproducible is the
    scenario's, passed to `gen_trace`.

    If the phases end before the requested trace duration, the final
    phase's processes keep running.
    """

    phases: tuple[Phase, ...]

    def __post_init__(self):
        check_fields(self)
        if not self.phases:
            raise ConfigurationError("workload needs >= 1 phase")


def _check_seed(seed: int) -> None:
    """Refuse a seed that is not an integer >= 0 (a bool is not one)."""
    if isinstance(seed, bool) or not isinstance(seed, (int, np.integer)):
        raise ConfigurationError(f"seed {seed!r:.40} must be an integer")
    if seed < 0:
        raise ConfigurationError(f"seed {seed} must be >= 0")


def _expand_runs(starts: np.ndarray, states: np.ndarray,
                 n_ticks: int) -> np.ndarray:
    """Per-tick states of runs that start at `starts` and end at `n_ticks`."""
    return np.repeat(states, np.diff(starts, append=n_ticks))


def _schedule_runs(proc: Schedule, n_ticks: int,
                   tick_s: float) -> tuple[np.ndarray, np.ndarray]:
    """Runs of a schedule whose steps last whole ticks: each step's start
    in the first cycle, plus the cycle times the period, cut at
    `n_ticks`, with a step that holds the state of the step before it
    merged into that step's run."""
    lengths = np.array([_ratio_as_int(d, tick_s, "schedule step")
                        for d, _ in proc.steps], dtype=np.int64)
    period = int(lengths.sum())
    n_cycles = -(-n_ticks // period)
    starts = (np.arange(n_cycles, dtype=np.int64)[:, None] * period
              + (np.cumsum(lengths) - lengths)).ravel()
    states = np.tile(np.array([s for _, s in proc.steps], dtype=np.int16),
                     n_cycles)
    keep = np.empty(len(states), dtype=bool)
    keep[0] = True
    np.not_equal(states[1:], states[:-1], out=keep[1:])
    keep &= starts < n_ticks
    # a schedule that repeats a state, such as (1, 0, 1) across its cycle
    # wrap, keeps a mid share of its steps, where a boolean mask is slow
    keep = np.flatnonzero(keep)
    return starts[keep], states[keep]


def _two_state_runs(cum: np.ndarray, draws: np.ndarray,
                    initial: int) -> tuple[np.ndarray, np.ndarray]:
    """Runs `(starts, states)`, in steps, of a two-state chain, in
    closed form.

    A draw sends state 0 to 1 when `a = draw >= cum[0, 0]`, and state 1
    to 0 when `below = draw < cum[1, 0]`. Where a != below the step
    resets the state to a, whatever it was; where a and below it swaps
    the states; where neither, the state stays. A stay needs cum[1, 0]
    <= draw < cum[0, 0] and a swap cum[0, 0] <= draw < cum[1, 0], so a
    chain has stays or swaps, never both: a persistent chain (cum[1, 0]
    <= cum[0, 0], every built-in) only resets and stays, and a chain
    with swaps has no stays to skip. One pass takes the state after each
    step that is not a stay: a's value at a reset, and at a swap the
    state of the last reset before it flipped once per swap since. The
    runs start after the steps whose state differs from the one before
    (the initial state before the first), so their states alternate
    from the initial state. The last draw only picks a successor past
    the phase end.
    """
    u = draws[:-1]
    a = u >= cum[0, 0]
    below = u < cum[1, 0]
    at = np.flatnonzero(a | below)
    state = np.empty(len(at) + 1, dtype=bool)
    state[0] = initial
    np.take(a, at, out=state[1:])
    # with no stays, step i is entry i + 1 of `state`
    swap = np.flatnonzero(a & below) + 1
    lead = np.ones(len(swap), dtype=bool)
    np.not_equal(swap[1:] - 1, swap[:-1], out=lead[1:])
    # the entry before each run of consecutive swaps: a reset or the
    # initial state
    reset = np.maximum.accumulate((swap - 1) * lead)
    state[swap] = state[reset] ^ ((swap - reset) & 1).astype(bool)
    change = np.flatnonzero(state[1:] != state[:-1])
    starts = np.concatenate([[0], at[change] + 1])
    states = np.arange(len(starts), dtype=np.int16) & 1
    states ^= initial
    return starts, states


def _exit_walk_runs(cum: np.ndarray, draws: np.ndarray,
                    initial: int) -> tuple[np.ndarray, np.ndarray]:
    """Runs `(starts, states)`, in steps, of a chain walked from one
    exit to the next.

    State s stays at a step exactly when `cum[s, s-1] <= draw <
    cum[s, s]`; state 0 has no lower bound, and the k-1 clamp leaves the
    last state no upper bound. Each state's exit steps and their
    successors are found with array passes; Python then iterates once
    per run, bisecting the current state's exit list for the first exit
    at or after the run's start. The exit lists hold about (1 - stay)
    entries per step and state, as 8-byte integers in an `array("q")`
    rather than as Python ints. The last draw only picks a successor past
    the phase end.
    """
    k = len(cum)
    u = draws[:-1]
    exits, successors = [], []
    for s in range(k):
        lo = cum[s, s - 1] if s else -np.inf
        hi = cum[s, s] if s < k - 1 else np.inf
        at = np.flatnonzero((u < lo) | (u >= hi)).astype(np.int64, copy=False)
        exits.append(array("q", at.tobytes()))
        successors.append(array("q", np.minimum(
            np.searchsorted(cum[s], u[at], side="right"), k - 1,
            dtype=np.int64).tobytes()))
    starts, states = [0], [initial]
    s, step = initial, 0
    while (r := bisect.bisect_left(exits[s], step)) < len(exits[s]):
        step = exits[s][r] + 1
        s = successors[s][r]
        starts.append(step)
        states.append(s)
    return np.array(starts, dtype=np.int64), np.array(states, dtype=np.int16)


def _phase_edges(model: ComponentStateModel, wl: WorkloadSpec,
                 duration_s: float, tick_s: float) -> list[int]:
    """The first tick of each phase, then the trace's length: phase p
    covers ticks [edges[p], edges[p + 1]), is empty past the trace end,
    and runs to the end if it is the last. The one check of a workload
    against a system: a finite tick > 0; whole ticks in the duration and
    every phase, schedule step and Markov step; each phase naming exactly
    the system's components, schedule states in range and k x k Markov
    matrices for k states."""
    if not 0 < tick_s < math.inf:
        raise ConfigurationError(f"tick {tick_s} s must be finite and > 0")
    n_ticks = _ratio_as_int(duration_s, tick_s, "duration")
    edges = [0]
    for phase in wl.phases:
        odd = sorted(set(phase.occupancy) ^ {c.name for c in model.components})
        if odd:
            raise ConfigurationError(f"phase {phase.name}: occupancy and "
                                     f"system components differ in {odd}")
        for comp in model.components:
            proc = phase.occupancy[comp.name]
            where = f"phase {phase.name} {comp.name}"
            if isinstance(proc, Schedule):
                for d, s in proc.steps:
                    _ratio_as_int(d, tick_s, f"{where} schedule step")
                    if not 0 <= s < comp.n_states:
                        raise ConfigurationError(f"{where}: state {s} "
                                                 f"out of range")
            elif len(proc.transition) != comp.n_states:   # a MarkovChain
                raise ConfigurationError(
                    f"{where}: Markov matrix for {len(proc.transition)} "
                    f"states, not {comp.n_states}")
            else:
                _ratio_as_int(proc.step_s, tick_s, f"{where} Markov step")
        edges.append(min(n_ticks, edges[-1] + _ratio_as_int(
            phase.duration_s, tick_s, f"phase {phase.name} duration")))
    edges[-1] = n_ticks
    return edges


def _phase_states(proc: OccupancyProcess, n_ticks: int, tick_s: float,
                  rng_key: tuple[int, ...]) -> tuple[np.ndarray, np.ndarray]:
    """State runs `(starts, states)` for one component over one phase.

    `starts` are phase-local int64 tick indices, the first one 0; run r
    lasts until `starts[r + 1]`, the last until `n_ticks`. Timing is
    phase-local: a schedule restarts at the start of each phase. Schedule
    steps and Markov steps are whole ticks (`_phase_edges`).

    A Markov chain takes one draw per step, all from one `rng.random`
    call, and a step's successor is `min(searchsorted(cum[s], draw,
    side="right"), k - 1)`. Both walks below give exactly those states
    and emit runs, not a per-step array. Which walk runs depends on the
    number of states alone, never on the draws: two states in closed
    form, and any other chain from exit to exit.
    """
    if isinstance(proc, Schedule):
        return _schedule_runs(proc, n_ticks, tick_s)

    ticks_per_step = _ratio_as_int(proc.step_s, tick_s, "Markov step")
    cum = np.cumsum(np.asarray(proc.transition, dtype=float), axis=1)
    # All draws of the phase come from this one call, in step order: the
    # seeds and every calibrated anchor depend on exactly this sequence.
    draws = np.random.default_rng(rng_key).random(
        -(-n_ticks // ticks_per_step))
    if len(cum) == 2:
        starts, states = _two_state_runs(cum, draws, proc.initial_state)
    else:
        starts, states = _exit_walk_runs(cum, draws, proc.initial_state)
    return starts * ticks_per_step, states


# ---------------------------------------------------------------------------
# Trace
# ---------------------------------------------------------------------------

class _Grid:
    """The ticks g_j = max(floor((j k - d) / p) p, 0), j = 0..n: the
    interval boundaries j `step` k seen `delay` d ticks late through a
    value refreshed every `period` p ticks; with d = 0 and p = 1, the
    uniform boundaries. It stores no ticks and answers by division;
    `ticks` is built only for a binary search, which a query runs only
    when it has no more entries than the runs.

    Below j = ceil(d / k) every tick is 0. From there on the clamp is
    idle and g_{j+L} = g_j + L k with L = p / gcd(k, p), a multiple of
    p, so the spans repeat with period L.
    """

    def __init__(self, n: int, step: int, delay: int = 0, period: int = 1):
        self.size = n + 1
        self.step, self.delay, self.period = step, delay, period

    @cached_property
    def ticks(self) -> np.ndarray:
        return self.ticks_at(np.arange(self.size, dtype=np.int64))

    @property
    def uniform(self) -> bool:
        """Whether g_j = j k, every interval `step` ticks long: with
        d = 0 and p dividing k."""
        return self.delay == 0 and self.step % self.period == 0

    def ticks_at(self, j):
        """The query ticks at the indices `j`."""
        k, d, p = self.step, self.delay, self.period
        return np.maximum((j * k - d) // p * p, 0)

    def first_at(self, ticks: np.ndarray) -> np.ndarray:
        """Index of the first query at or after each of `ticks` (each
        >= 0), or `size` past the last query."""
        # g_j >= t > 0 exactly when j k >= ceil(t / p) p + d
        k, d, p = self.step, self.delay, self.period
        least = -(-ticks // p) * p + d
        return np.where(ticks > 0, np.minimum(-(-least // k), self.size), 0)

    @property
    def head(self) -> int:
        """ceil(d / k), as an interval index: the first interval past
        which the spans repeat, every one before it 0 but the last."""
        return min(-(-self.delay // self.step), self.size - 1)

    @property
    def repeat(self) -> int:
        """L = p / gcd(k, p), the period of the spans past the head."""
        return self.period // math.gcd(self.step, self.period)

    def times_spans(self, values: np.ndarray) -> None:
        """Multiply each `values[j]` in place by the ticks in the
        interval [ticks[j], ticks[j+1]), j < size - 1.

        It holds nothing row-length: past the head, the L spans of one
        period multiply `values` where they repeat, through views.
        """
        head = self.head
        if head:        # every span before index head is 0 but the last
            values[:head - 1] *= 0
            values[head - 1] *= self.ticks_at(head)
        rest = values[head:]
        repeat = min(self.repeat, len(rest))
        pattern = np.diff(self.ticks_at(
            np.arange(head, head + repeat + 1, dtype=np.int64))).astype(float)
        # one strided pass per span, which every built-in's L of 1 to 4
        # takes: on 300,000 rows (one thread) L = 1..4 took 55-210 us,
        # below a broadcast over (rows / L, L) rows of one period (55-586
        # us) and a tiled pattern array (216-373 us). Past L = 5 the
        # broadcast would win (L = 8: 430 against 185 us; L = 997: 685
        # against 107 us), but no benchmark workload has such a period.
        for phase, span in enumerate(pattern):
            every = rest[phase::repeat]
            every *= span


def _run_major(starts: np.ndarray, query: _Grid) -> bool:
    """Whether `query` is located run-major: it has more entries than
    there are `starts`."""
    return query.size > len(starts)


class RunLookup:
    """The runs of one trace component located at the sorted ticks of a
    query, a `_Grid`.

    A query with more entries than the component has runs, such as every
    interval boundary at a fine rate, is located run-major: the query's
    `first_at` the run starts (a division for a grid) gives each run's
    first query, hence how many queries each run holds, and per-run
    values reach the queries through `np.repeat`; ticks are read only at
    the intervals that cross a run start, and a run that starts on the
    query closing its interval, alone there, crosses none. On a uniform
    grid whose step divides every run start, as the 100 Hz truth's does
    on every built-in, each run's first query is its start divided by
    the step and no interval crosses a run start, so neither `first_at`
    nor the crossings run. A shorter
    query, such as a few monitoring windows, is located by a binary
    search of the starts, one run index per query, and per-run values
    reach it through a gather; there every run start is a crossing.
    Both give the same values, and the choice reads only the query's
    length. A query that holds a tick outside [0, n_ticks] raises
    `ArgumentError`.
    """

    def __init__(self, trace: "Trace", c_idx: int, query: _Grid):
        self.trace = trace
        self.c_idx = c_idx
        self.query = query
        if query.size:
            lo, hi = query.ticks_at(0), query.ticks_at(query.size - 1)
            if lo < 0 or hi > trace.n_ticks:
                raise ArgumentError(f"query ticks {lo}..{hi} outside "
                                    f"the trace's [0, {trace.n_ticks}]")
        starts = trace.runs[c_idx][0]
        self._aligned = False
        if _run_major(starts, query):
            if query.uniform:
                # on g_j = j k a run starts on a query tick exactly when k
                # divides its start, and that query is its first
                first = np.remainder(starts, query.step)
                self._aligned = not first.any()
            if self._aligned:
                # the remainders' buffer takes each run's first query
                np.floor_divide(starts, query.step, out=first)
                self._first = np.minimum(first, query.size, out=first)
            else:
                self._first = query.first_at(starts)
            self._counts = np.diff(self._first, append=query.size)
            self._run = None
        else:
            self._run = np.searchsorted(starts, query.ticks,
                                        side="right") - 1

    def at(self, weights: np.ndarray) -> np.ndarray:
        """`weights[state]` of the state held at each query tick."""
        states = self.trace.runs[self.c_idx][1]
        # per run when the runs are fewer than the queries, else per query
        if self._run is None:
            return np.repeat(weights[states], self._counts)
        return weights[states[self._run]]

    def changes(self) -> tuple[np.ndarray, np.ndarray]:
        """(j, states): the increasing query indices where the state held
        may change, 0 the first, and the state held from each on."""
        states = self.trace.runs[self.c_idx][1]
        if self._aligned:       # each run's first query is its own
            return self._first, states
        if self._run is None:
            # a run that holds no query shares its first query with the
            # next run, or lies past the last query
            runs = np.flatnonzero(np.diff(self._first, append=self.query.size))
            return self._first[runs], states[runs]
        j = np.flatnonzero(self._run[1:] != self._run[:-1]) + 1
        j = np.concatenate([[0], j])
        return j, states[self._run[j]]

    def states_at(self, j: np.ndarray) -> np.ndarray:
        """The state held at the query ticks of the indices `j`."""
        states = self.trace.runs[self.c_idx][1]
        if self._run is None:
            # each run's first query is `_first`; a run holding no query
            # shares its entry with the next run, which the search takes
            return states[np.searchsorted(self._first, j, side="right") - 1]
        return states[self._run[j]]

    @cached_property
    def _crossings(self) -> tuple[np.ndarray, ...]:
        """`(k, head, tail, s_head, s_tail, gap, gap_ticks)` of the
        intervals [ticks[k], ticks[k+1]) that cross a run start.

        `head` ticks in state `s_head` precede the first run that starts
        inside the interval, and `tail` ticks in state `s_tail` follow
        the last one's start. The intervals `gap` among them cover whole
        runs in between, `gap_ticks` ticks of them per state. Run-major,
        each later run's start s lies in the interval that ends at the
        first query at or after s, so the runs alone give the intervals.
        A run that starts on that query itself and alone in its interval
        is left out: the interval holds one state, which `at` and
        `times_spans` already give it, and its tail would be 0.
        """
        starts, states = self.trace.runs[self.c_idx]
        if self._run is None:
            # the runs that start after the first query and at or before
            # the last one, and the interval each starts in
            first = self._first
            j0 = int(np.searchsorted(first, 1, side="left"))
            j1 = int(np.searchsorted(first, self.query.size - 1,
                                     side="right"))
            k = first[j0:j1] - 1
            new = np.ones(len(k), dtype=bool)
            np.not_equal(k[1:], k[:-1], out=new[1:])
            end = np.ones(len(k), dtype=bool)
            end[:-1] = new[1:]
            # a run alone in its interval that starts on the query
            # closing it crosses nothing
            lone = np.flatnonzero(new & end)
            new[lone] = end[lone] = (self.query.ticks_at(k[lone] + 1)
                                     != starts[lone + j0])
            inner = np.flatnonzero(new)
            cross = k[inner]
            inner += j0
            last = np.flatnonzero(end) + j0
        else:
            r = self._run
            cross = np.flatnonzero(r[1:] > r[:-1])
            inner, last = r[cross] + 1, r[cross + 1]
        head = starts[inner] - self.query.ticks_at(cross)
        tail = self.query.ticks_at(cross + 1) - starts[last]
        gap = np.flatnonzero(last > inner)
        gap_ticks = None
        if len(gap):
            # the table is built here and freed on return: only the gaps'
            # differences are held
            before = self._ticks_before_runs()
            gap_ticks = before[last[gap]] - before[inner[gap]]
        return (cross, head, tail, states[inner - 1], states[last], gap,
                gap_ticks)

    def _ticks_before_runs(self) -> np.ndarray:
        """(runs, states) int64: ticks held in each state before each run.

        Each lookup that needs it builds it, as a scatter of the run
        lengths and one cumulative sum whatever the number of states:
        0.010 ms for t61like's `act` (254 runs, 7 states), built by 15
        lookups of a molding run, and 0.25 ms for its `bridge` (50,029
        runs), against 0.048 and 0.24 ms with one pass per state and
        0.012 and 0.37 ms with a two-index scatter (one thread)."""
        starts, states = self.trace.runs[self.c_idx]
        n_states = self.trace.model.components[self.c_idx].n_states
        before = np.zeros((len(starts), n_states), dtype=np.int64)
        # run r's ticks go to row r + 1, in its state's column
        at = np.arange(n_states, len(starts) * n_states, n_states)
        at += states[:-1]
        before.reshape(-1)[at] = np.diff(starts)
        np.cumsum(before, axis=0, out=before)
        return before

    def crossing_rows(self) -> np.ndarray:
        """The sorted intervals that cross a run start, whose sums are not
        their state's weight times their span."""
        if self._aligned:
            return np.empty(0, dtype=np.int64)
        return self._crossings[0]

    def _crossing_sums(self, weights: np.ndarray) -> np.ndarray:
        """The sum of each of the `crossing_rows`: its head run's part
        plus its tail run's part, plus the runs it covers whole."""
        _, head, tail, s_head, s_tail, gap, gap_ticks = self._crossings
        values = weights[s_head] * head + weights[s_tail] * tail
        if len(gap):
            values[gap] += gap_ticks @ weights
        return values

    def sums(self, weights: np.ndarray) -> np.ndarray:
        """Sum of `weights[state]` over ticks [ticks[k], ticks[k+1]) for
        each k.

        No two large prefixes are differenced. An interval within one run
        is its weight times its ticks; one that crosses run starts is its
        head run's part plus its tail run's part, plus the runs it covers
        whole counted as exact integer ticks per state. So every interval
        carries a few roundings however long the trace.
        """
        # the sums overwrite the per-query weights, as the query may be
        # millions of ticks long
        sums = self.at(weights)[:-1]
        self.query.times_spans(sums)
        if not self._aligned:
            sums[self._crossings[0]] = self._crossing_sums(weights)
        return sums

    def sums_at(self, weights: np.ndarray, rows: np.ndarray) -> np.ndarray:
        """`sums(weights)[rows]` bit for bit, computed at the interval
        indices `rows` alone: the same weight times the same span, each
        span a difference of two query ticks, or the same crossing sum."""
        rows = np.asarray(rows, dtype=np.int64)
        values = weights[self.states_at(rows)]
        values *= self.query.ticks_at(rows + 1) - self.query.ticks_at(rows)
        cross = self.crossing_rows()
        if len(cross):
            at = np.minimum(np.searchsorted(cross, rows), len(cross) - 1)
            hit = np.flatnonzero(cross[at] == rows)
            values[hit] = self._crossing_sums(weights)[at[hit]]
        return values


class Trace:
    """Run-length ground truth on a tick grid.

    Each component's states are stored as runs: `runs[c] = (starts,
    states)`, where component c is in `states[r]` from tick `starts[r]`
    up to the next run's start, and the last run lasts to the trace end.
    Tick power is the base draw plus every component's active state
    power; nothing per tick is stored.

    Truth queries weight the states with a per-state vector and read the
    runs at sorted query ticks only, through a `RunLookup` of one
    component at a query, a `_Grid`. Its `sums` gives the sums between
    successive ticks without differencing two large prefixes: the runs
    that an interval covers whole are counted as exact integer ticks per
    state, so every interval carries a few roundings however long the
    trace. The truth (`true_energy`) and the collector's cumulative
    columns share this one kernel.

    A query that outnumbers the component's runs, such as every interval
    boundary at a fine rate, is answered run-major, in O(runs) beyond the
    passes that write the result; a shorter one by a binary search of
    the run starts (see `RunLookup`). Both give the same floats.
    `cumulative` expands one predictor's runs to a per-tick series on
    demand; the pipeline never calls it.
    """

    def __init__(self, model: ComponentStateModel, tick_s: float,
                 n_ticks: int, runs: Sequence[tuple[np.ndarray, np.ndarray]]):
        self.model = model
        self.tick_s = tick_s
        self.n_ticks = n_ticks
        self.runs = tuple(runs)       # per component: (int64 starts, int16 states)

    def __len__(self) -> int:
        return self.n_ticks

    # -- per-tick view, expanded on demand -------------------------------------

    def cumulative(self, spec: "PredictorSpec") -> np.ndarray:
        """Accumulated counter value at each tick boundary, length n_ticks+1.

        Residency specs accumulate weighted seconds; counter specs accumulate
        weighted counts (weights are rates per second in a state).
        """
        c_idx, w = self.model.weight_vector(spec)
        inc = w[_expand_runs(*self.runs[c_idx], len(self))] * self.tick_s
        out = np.empty(len(self) + 1)
        out[0] = 0.0
        np.cumsum(inc, out=out[1:])
        return out


def gen_trace(model: ComponentStateModel, wl: WorkloadSpec,
              duration_s: float, tick_s: float, seed: int) -> Trace:
    """Simulate the component-state system over `duration_s` at `tick_s`,
    both checked by `_phase_edges`: bit-identical runs for one `seed`, an
    integer >= 0 that keys each component's draws in each phase."""
    _check_seed(seed)
    edges = _phase_edges(model, wl, duration_s, tick_s)
    runs = []
    for c_idx, comp in enumerate(model.components):
        starts, states, last = [], [], None
        for p_idx, phase in enumerate(wl.phases):
            lo, hi = edges[p_idx], edges[p_idx + 1]
            if lo < hi:
                phase_starts, phase_states = _phase_states(
                    phase.occupancy[comp.name], hi - lo, tick_s,
                    (seed, c_idx, p_idx))
                # a phase's runs are merged already; its first run goes
                # on with the last phase's last run if it holds that state
                cut = int(phase_states[0] == last)
                last = phase_states[-1]
                starts.append(phase_starts[cut:] + lo)
                states.append(phase_states[cut:])
        runs.append((np.concatenate(starts), np.concatenate(states)))
    return Trace(model, tick_s, edges[-1], runs)


def true_energy(trace: Trace, interval_s: float) -> np.ndarray:
    """Exact energy per interval, in joules: the base draw plus each
    component's interval sums of its state powers."""
    k = _ratio_as_int(interval_s, trace.tick_s, "interval")
    # every component's lookup shares the query
    query = _Grid(len(trace) // k, k)
    return _energy(trace, k, (RunLookup(trace, c_idx, query)
                              for c_idx in range(len(trace.runs))))


def _energy(trace: Trace, k: int, lookups, rows: np.ndarray | None = None
            ) -> np.ndarray:
    """`true_energy` at intervals of `k` ticks from its `lookups`, one a
    component, in order; with `rows`, at those intervals alone, equal to
    the whole result at `rows` bit for bit."""
    powers = [np.asarray(comp.state_powers, dtype=float)
              for comp in trace.model.components]
    parts = (lookup.sums(w) if rows is None else lookup.sums_at(w, rows)
             for lookup, w in zip(lookups, powers))
    # the first component's sums take the base draw in place: the sum
    # k * base + sums of the first component, as addition commutes
    watt_ticks = next(parts)
    watt_ticks += k * float(trace.model.base_power_w)
    for sums in parts:
        watt_ticks += sums
    watt_ticks *= trace.tick_s
    return watt_ticks


# ---------------------------------------------------------------------------
# Predictors
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
    how to poll it; only a level can be event-driven.
    """

    id: str
    component: str
    kind: str
    weights: Mapping[int, float]
    update_rate_hz: float = 1000.0
    delay_s: float = 0.0
    policy: str = POLLED_FAST

    def __post_init__(self):
        check_fields(self)
        if self.kind not in (RESIDENCY, COUNTER, LEVEL):
            raise ConfigurationError(f"{self.id}: unknown kind {self.kind!r}")
        if self.policy not in (POLLED_FAST, POLLED_SLOW, EVENT_DRIVEN):
            raise ConfigurationError(f"{self.id}: unknown policy {self.policy!r}")
        if self.policy == EVENT_DRIVEN and self.kind != LEVEL:
            raise ConfigurationError(
                f"{self.id}: only a level can be event-driven")
        if self.update_rate_hz <= 0:
            raise ConfigurationError(
                f"{self.id}: update rate must be finite and > 0")
        if self.delay_s < 0:
            raise ConfigurationError(f"{self.id}: delay must be finite and >= 0")
        if not self.weights:
            raise ConfigurationError(f"{self.id}: empty weight map")
