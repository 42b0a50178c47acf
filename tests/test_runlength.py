"""Run-length trace queries against per-tick reference formulas.

The references expand the runs to one state per tick and evaluate the
formulas the simulator used when it stored per-tick arrays.
"""

import dataclasses
import math
import tracemalloc

import numpy as np
import pytest

import sesame as ss
import sesame.experiments as exp
import sesame.scenarios as scn
from reference import (
    ArrayQuery,
    duty,
    fixed,
    interval_truth,
    locate,
    tick_power,
    tick_states,
    tiled_times_spans,
)
from sesame import battery, collector, tracesim
from sesame.errors import AlignmentError, ArgumentError

RTOL = 1e-12


# -- per-tick references ------------------------------------------------------

def schedule_ticks(proc, n_ticks, tick_s):
    durs = np.array([d for d, _ in proc.steps])
    states = np.array([s for _, s in proc.steps], dtype=np.int16)
    edges = np.cumsum(durs)
    t = ((np.arange(n_ticks) + 0.5) * tick_s) % edges[-1]
    idx = np.searchsorted(edges, t, side="right")
    return states[np.minimum(idx, len(states) - 1)]


def ref_window_sums(values, k):
    m = len(values) // k
    return values[: m * k].reshape(m, k).sum(axis=1)


def ref_tick_values(trace, spec):
    c_idx = trace.model.component_index(spec.component)
    w = np.zeros(trace.model.components[c_idx].n_states)
    for j, wj in spec.weights.items():
        w[j] = wj
    return w[tick_states(trace)[c_idx]]


def ref_interval_truth(trace, spec, k):
    vals = ref_tick_values(trace, spec)
    if spec.kind == "counter":
        return ref_window_sums(vals, k) * trace.tick_s
    m = len(vals) // k
    return vals[: m * k].reshape(m, k).mean(axis=1)


def ref_visible_tick(trace, spec, times):
    """The tick whose state a read at each of `times` shows: the delayed
    time, floored to the update grid unless the level is event-driven,
    and clipped to the trace, since a register reads 0 and a level its
    first tick before the trace start."""
    vis = np.asarray(times, float) - spec.delay_s
    if not (spec.policy == "event-driven" and spec.kind == "level"):
        period = 1.0 / spec.update_rate_hz
        vis = np.floor(vis / period + 1e-9) * period
    idx = np.floor(vis / trace.tick_s + 1e-9).astype(np.int64)
    return np.clip(idx, 0, len(trace) - (spec.kind == "level"))


def exact_sums(trace, c_idx, weights, lo, hi):
    """Sum of `weights[state]` over ticks [lo, hi) of component `c_idx`,
    from integer per-state tick counts: one rounding per state, free of
    the runs' bookkeeping."""
    states = tick_states(trace)[c_idx]
    onehot = states[:, None] == np.arange(len(weights))
    counts = np.concatenate([np.zeros((1, len(weights)), dtype=np.int64),
                             np.cumsum(onehot, axis=0)])
    return (counts[hi] - counts[lo]) @ weights


def ref_column(trace, spec, rate_hz):
    """`collect`'s column from per-tick values at read times in seconds:
    a level at each interval start; a cumulative column as the sum
    between the visible ticks of successive boundaries over the interval
    or, polled-slow and updated less often than the interval, between
    the last two update instants at or before each interval start over
    the update period."""
    interval = 1.0 / rate_hz
    m = int(np.floor(len(trace) * trace.tick_s / interval + 1e-9))
    times = np.arange(m + 1) * interval
    if spec.kind == "level":
        return ref_tick_values(trace, spec)[
            ref_visible_tick(trace, spec, times[:-1])]
    period = 1.0 / spec.update_rate_hz
    if spec.policy == "polled-slow" and period > interval + 1e-12:
        polls = np.floor(times[:-1] / period + 1e-9) * period
        lo, hi = polls - period, polls
        span = period
    else:
        lo, hi = times[:-1], times[1:]
        span = interval
    sums = exact_sums(trace, *trace.model.weight_vector(spec),
                      ref_visible_tick(trace, spec, lo),
                      ref_visible_tick(trace, spec, hi))
    return sums * trace.tick_s / span


def ref_true_energy(trace, interval_s):
    k = int(round(interval_s / trace.tick_s))
    return ref_window_sums(tick_power(trace), k) * trace.tick_s


def ref_sample_capacity(trace, model, seed):
    current = tick_power(trace) / model.supply_voltage_v
    charge = np.concatenate([[0.0], np.cumsum(current * trace.tick_s)])
    k = int(round(1.0 / model.reading_rate_hz / trace.tick_s))
    levels = model.initial_capacity_c - charge[
        np.arange(len(trace) // k + 1) * k]
    rng = np.random.default_rng(seed)
    if model.noise_sigma > 0:
        levels = levels * (1.0 + rng.normal(0.0, model.noise_sigma,
                                            len(levels)))
    return levels


# -- schedule edges -----------------------------------------------------------

def on_grid(proc, tick_s):
    """`proc` with each step rounded to the nearest whole tick, at least
    one: the nearest schedule that a workload check lets through."""
    return ss.Schedule(tuple((max(1, round(d / tick_s)) * tick_s, s)
                             for d, s in proc.steps))


# steps in seconds; the test moves each onto the tick grid, and
# `test_off_grid_schedule_steps_are_refused` runs those that are not
SCHEDULES = {
    "tick_aligned": ((0.5, 1), (0.25, 0)),
    "not_tick_multiples": ((0.0137, 1), (0.0291, 0), (0.005, 2)),
    "steps_below_a_tick": ((0.0004, 1), (0.0003, 0), (0.0101, 2)),
    "repeated_state": ((0.003, 1), (0.004, 1), (0.0025, 0)),
    "single_step": ((0.7, 2),),
    "period_below_a_tick": ((0.0002, 1), (0.0003, 0)),
    "thirds": ((1 / 3, 0), (2 / 3, 1), (0.1, 2)),
}


@pytest.mark.parametrize("name", sorted(SCHEDULES))
@pytest.mark.parametrize("n_ticks,tick_s",
                         [(1, 0.001), (7, 0.001), (4321, 0.001),
                          (200_000, 0.001), (999, 0.01)])
def test_schedule_runs_match_per_tick_rule(name, n_ticks, tick_s):
    proc = on_grid(ss.Schedule(SCHEDULES[name]), tick_s)
    starts, states = tracesim._phase_states(proc, n_ticks, tick_s, (0,))
    assert starts[0] == 0 and np.all(np.diff(starts) > 0)
    got = tracesim._expand_runs(starts, states, n_ticks)
    assert np.array_equal(got, schedule_ticks(proc, n_ticks, tick_s))


def test_random_schedules_match_per_tick_rule():
    rng = np.random.default_rng(17)
    for _ in range(40):
        n_steps = int(rng.integers(1, 6))
        steps = tuple((int(rng.integers(1, 51)) * 0.001, int(rng.integers(4)))
                      for _ in range(n_steps))
        proc = ss.Schedule(steps)
        starts, states = tracesim._phase_states(proc, 30_011, 0.001, (0,))
        got = tracesim._expand_runs(starts, states, 30_011)
        assert np.array_equal(got, schedule_ticks(proc, 30_011, 0.001)), steps


@pytest.mark.parametrize("period,fraction", [
    (1.0, 0.5), (0.0333, 0.3), (0.1, 0.123456), (0.0007, 0.5),
    (0.05, 0.0), (0.05, 1.0), (0.0123, 0.999)])
def test_duty_cycle_runs_match_per_tick_rule(period, fraction):
    # a two-step schedule, or one step where a part has zero length,
    # moved onto the tick grid
    proc = on_grid(duty(period, fraction, 1, 0), 0.001)
    for n_ticks in (1, 1999, 150_007):
        starts, states = tracesim._phase_states(proc, n_ticks, 0.001, (0,))
        got = tracesim._expand_runs(starts, states, n_ticks)
        assert np.array_equal(got, schedule_ticks(proc, n_ticks, 0.001))


def test_fixed_state_is_one_run():
    starts, states = tracesim._phase_states(fixed(2), 5000, 0.001, (0,))
    assert starts.tolist() == [0] and states.tolist() == [2]


def one_phase_trace(proc, duration_s=1.0, phase_s=1.0):
    """`gen_trace` of one component in `proc` for one phase of `phase_s`,
    then in state 0, at a 1 ms tick."""
    model = ss.ComponentStateModel((ss.Component("c", (1.0, 2.0, 3.0)),))
    wl = ss.WorkloadSpec((ss.Phase("p", phase_s, {"c": proc}),
                          ss.Phase("q", 1.0, {"c": fixed(0)})))
    return ss.gen_trace(model, wl, duration_s, 0.001, 0)


@pytest.mark.parametrize("name", ["not_tick_multiples", "period_below_a_tick",
                                  "repeated_state", "steps_below_a_tick",
                                  "thirds"])
def test_off_grid_schedule_steps_are_refused(name):
    # a step off the tick grid would move its edge by up to half a tick
    with pytest.raises(AlignmentError, match="phase p c schedule step"):
        one_phase_trace(ss.Schedule(SCHEDULES[name]))


@pytest.mark.parametrize("duration_s,phase_s,message", [
    (1.0005, 1.0, "duration: 1.0005"), (0.0004, 1.0, "duration: 0.0004"),
    (2.0, 0.8004, "phase p duration: 0.8004"),
])
def test_off_grid_durations_are_refused(duration_s, phase_s, message):
    with pytest.raises(AlignmentError, match=message):
        one_phase_trace(fixed(1), duration_s, phase_s)


# -- trace queries ------------------------------------------------------------

MIXED_SEED = 7


def mixed_system():
    """Markov chains and schedules of one, two and three steps, in three
    phases of uneven lengths, the last phase running to the trace end."""
    model = ss.ComponentStateModel(
        components=(
            ss.Component("cpu", (1.0, 5.5, 9.3)),
            ss.Component("disk", (0.4, 2.7)),
            ss.Component("lcd", (0.15, 0.7, 1.3)),
        ),
        base_power_w=0.6,
    )
    chain = ss.MarkovChain(
        ((0.90, 0.08, 0.02), (0.10, 0.80, 0.10), (0.05, 0.15, 0.80)),
        step_s=0.02, initial_state=1)
    disk_chain = ss.MarkovChain(((0.7, 0.3), (0.4, 0.6)), step_s=0.005)
    wl = ss.WorkloadSpec(phases=(
        ss.Phase("a", 1.235, {
            "cpu": chain,
            "disk": fixed(1),
            "lcd": ss.Schedule(((0.014, 1), (0.029, 0), (0.005, 2))),
        }),
        ss.Phase("b", 0.801, {
            "cpu": ss.Schedule(((0.011, 2), (0.004, 0))),
            "disk": duty(0.03, 0.3, 1, 0),
            "lcd": fixed(2),
        }),
        ss.Phase("c", 1.0, {
            "cpu": duty(0.1, 0.25, 2, 1),
            "disk": disk_chain,
            "lcd": fixed(0),
        }),
    ))
    return model, wl


@pytest.fixture(scope="module")
def mixed_trace():
    model, wl = mixed_system()
    return ss.gen_trace(model, wl, 5.0, 0.001, MIXED_SEED)


def test_mixed_trace_states_follow_the_phases(mixed_trace):
    model, wl = mixed_system()
    n = [1235, 801, 5000 - 1235 - 801]         # the last phase runs on
    for c_idx, comp in enumerate(model.components):
        want = []
        for p_idx, (phase, n_phase) in enumerate(zip(wl.phases, n)):
            proc = phase.occupancy[comp.name]
            if isinstance(proc, ss.Schedule):
                want.append(schedule_ticks(proc, n_phase, 0.001))
            else:
                starts, states = tracesim._phase_states(
                    proc, n_phase, 0.001, (MIXED_SEED, c_idx, p_idx))
                want.append(tracesim._expand_runs(starts, states, n_phase))
        assert np.array_equal(tick_states(mixed_trace)[c_idx],
                              np.concatenate(want))
        starts, states = mixed_trace.runs[c_idx]
        assert np.all(states[1:] != states[:-1])    # runs are merged


@pytest.mark.parametrize("interval_s", [0.001, 0.01, 0.037, 0.5, 5.0])
def test_true_energy_matches_tick_sums(mixed_trace, interval_s):
    k = int(round(interval_s / 0.001))
    want = ref_window_sums(tick_power(mixed_trace), k) * 0.001
    got = ss.true_energy(mixed_trace, interval_s)
    np.testing.assert_allclose(got, want, rtol=RTOL)


@pytest.mark.parametrize("interval_s", [0.001, 0.01, 0.037, 0.5])
def test_true_energy_adds_as_a_base_filled_accumulator(mixed_trace,
                                                       interval_s):
    # the first component's sums take the base draw in place, which is
    # bit for bit a base-filled accumulator that each component's sums
    # are added to in turn; every lookup is aligned at 1 ms, run-major
    # at 10 ms, mixed at 37 ms and a binary search at 0.5 s
    trace = mixed_trace
    k = int(round(interval_s / trace.tick_s))
    m = len(trace) // k
    want = np.full(m, k * float(trace.model.base_power_w))
    for c_idx, comp in enumerate(trace.model.components):
        want += locate(trace, c_idx, np.arange(m + 1) * k).sums(
            np.asarray(comp.state_powers, dtype=float))
    want *= trace.tick_s
    assert np.array_equal(ss.true_energy(trace, interval_s), want)


SPECS = (
    ss.PredictorSpec(id="cpu_busy", component="cpu", kind="residency",
                     weights={1: 1.0, 2: 1.0}, update_rate_hz=250.0),
    ss.PredictorSpec(id="cpu_hi", component="cpu", kind="residency",
                     weights={2: 1.0}, update_rate_hz=1000.0, delay_s=0.003),
    ss.PredictorSpec(id="sectors", component="disk", kind="counter",
                     weights={1: 212.5}, update_rate_hz=40.0, delay_s=0.012,
                     policy="polled-slow"),
    ss.PredictorSpec(id="bl", component="lcd", kind="level",
                     weights={0: 0.2, 1: 0.55, 2: 0.9},
                     policy="event-driven", delay_s=0.007),
    ss.PredictorSpec(id="bl_polled", component="lcd", kind="level",
                     weights={1: 0.5, 2: 1.0}, update_rate_hz=20.0),
)


@pytest.mark.parametrize("spec", SPECS, ids=lambda s: s.id)
@pytest.mark.parametrize("interval_s", [0.001, 0.02, 0.5])
def test_interval_truth_matches_tick_values(mixed_trace, spec, interval_s):
    k = int(round(interval_s / 0.001))
    np.testing.assert_allclose(interval_truth(mixed_trace, spec, interval_s),
                               ref_interval_truth(mixed_trace, spec, k),
                               rtol=RTOL)


@pytest.mark.parametrize("spec", SPECS, ids=lambda s: s.id)
def test_value_at_matches_per_tick_series(mixed_trace, spec):
    # rates at which the 40 Hz polled-slow counter holds its update
    # period's rate (1000, 100 Hz) and at which it is summed (40, 10, 1 Hz)
    for rate_hz in (1000.0, 100.0, 40.0, 10.0, 1.0):
        dm = collector.collect(mixed_trace, [spec], rate_hz)
        np.testing.assert_allclose(dm.x[:, 0],
                                   ref_column(mixed_trace, spec, rate_hz),
                                   rtol=RTOL)


def test_collect_refuses_a_delay_off_the_tick_grid(mixed_trace):
    spec = dataclasses.replace(SPECS[2], delay_s=0.0123)
    with pytest.raises(AlignmentError, match="sectors delay"):
        collector.collect(mixed_trace, [spec], 1.0)


def test_capacity_charge_at_every_tick(mixed_trace):
    # read every tick, the charge register's running sum of the truth is
    # the integral of the per-tick power
    model = ss.BatteryInterfaceModel(
        kind="capacity", reading_rate_hz=1.0 / mixed_trace.tick_s,
        supply_voltage_v=1.0, initial_capacity_c=0.0)
    charge = -ss.sample_interface(mixed_trace, model, seed=0).values
    want = np.concatenate([[0.0], np.cumsum(tick_power(mixed_trace))])
    np.testing.assert_allclose(charge, want * mixed_trace.tick_s, rtol=RTOL)


def one_component_trace(n_ticks: int, starts: np.ndarray,
                        states: np.ndarray | None = None) -> ss.Trace:
    """A trace of one component whose runs start at `starts`, in `states`
    or, by default, alternating between two states."""
    if states is None:
        states = np.arange(len(starts)) % 2
    powers = tuple(1.0 + 3.0 * j for j in range(int(max(states)) + 1))
    model = ss.ComponentStateModel((ss.Component("c", powers),))
    return ss.Trace(model, 0.001, n_ticks,
                    [(starts, np.asarray(states, dtype=np.int16))])


def assert_no_lone_aligned_crossing(lookup: tracesim.RunLookup) -> None:
    """A run-major lookup lists no crossing of a run that starts on the
    query closing its interval and alone there: its tail would be 0 and
    no gap would follow its head run."""
    if lookup._run is None:
        cross, _, tail, _, _, gap, _ = lookup._crossings
        lone = np.ones(len(cross), dtype=bool)
        lone[gap] = False
        assert not np.any(lone & (tail == 0))


def test_merged_run_lookup_equals_binary_search():
    # a sorted query that outnumbers the runs is located run-major; the
    # same query forced onto the binary search must give the same floats
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies

    @st.composite
    def runs_and_ticks(draw):
        n_ticks = draw(st.integers(1, 300))
        inner = st.integers(1, max(1, n_ticks - 1))
        starts = sorted({0} | set(draw(st.lists(inner, max_size=40)))
                        - {n_ticks})
        states = draw(st.lists(st.integers(0, 3), min_size=len(starts),
                               max_size=len(starts)))
        # query ticks anywhere, or exactly at a run start, 0 or n_ticks
        tick = st.one_of(st.integers(0, n_ticks),
                         st.sampled_from(starts + [0, n_ticks]))
        ticks = sorted(draw(st.lists(tick, max_size=400)))
        return (n_ticks, np.array(starts, dtype=np.int64),
                np.array(states), np.array(ticks, dtype=np.int64))

    starts = np.array([0, 3, 7, 8], dtype=np.int64)
    states = np.array([0, 1, 0, 1])
    cases = {
        "sorted_with_ties": [0, 0, 2, 3, 3, 3, 5, 7, 7, 9, 9, 10],
        "starts_zero_and_end": [0, 0, 3, 3, 7, 8, 8, 10, 10],
        "not_from_zero_spanning_runs": [1, 1, 2, 9, 9, 9, 10],
        "empty_intervals_only": [4, 4, 4, 4, 4, 4],
        "one_interval_over_every_run": [0, 0, 0, 0, 10],
        "more_runs_than_queries": [3, 8],
        "empty": [],
        # every run start on a query tick; and 8 on the tick that closes
        # [5, 8), which 7 starts inside
        "every_start_on_a_query": [0, 3, 5, 7, 8, 10],
        "aligned_start_after_an_inner_one": [0, 1, 5, 8, 9, 10],
    }
    run_major = 0

    def check(case):
        nonlocal run_major
        n_ticks, starts, states, ticks = case
        trace = one_component_trace(n_ticks, starts, states)
        w = np.linspace(0.3, 1.7, trace.model.components[0].n_states)
        lookup = locate(trace, 0, ticks)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(tracesim, "_run_major", lambda starts, ticks: False)
            binary = locate(trace, 0, ticks)
        run_major += lookup._run is None
        want = w[states[np.searchsorted(starts, ticks, side="right") - 1]]
        for got in (lookup.at(w), binary.at(w)):
            assert np.array_equal(got, want)
        got = lookup.sums(w)
        assert np.array_equal(got, binary.sums(w))
        assert_no_lone_aligned_crossing(lookup)
        want = exact_sums(trace, 0, w, ticks[:-1], ticks[1:])
        np.testing.assert_allclose(got, want, rtol=1e-14, atol=1e-13)

    check = hypothesis.given(runs_and_ticks())(check)
    for ticks in cases.values():
        check = hypothesis.example(
            (10, starts, states, np.array(ticks, dtype=np.int64)))(check)
    hypothesis.settings(max_examples=80, deadline=None, database=None,
                        print_blob=True)(check)()
    # the seven sorted explicit examples that outnumber the runs, at least
    assert run_major >= 7


def test_grid_query_equals_the_same_ticks_as_an_array():
    # a grid g_j = max(floor((j k - d) / p) p, 0) is answered by division
    # and its spans repeat with period p / gcd(k, p); the same ticks given
    # as an array are searched and differenced, and must give the same
    # ticks, spans, first queries and lookups, run-major and by a binary
    # search alike
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies

    @st.composite
    def runs_and_grid(draw):
        n_ticks = draw(st.integers(1, 300))
        inner = st.integers(1, max(1, n_ticks - 1))
        starts = sorted({0} | set(draw(st.lists(inner, max_size=40)))
                        - {n_ticks})
        states = draw(st.lists(st.integers(0, 3), min_size=len(starts),
                               max_size=len(starts)))
        k = draw(st.integers(1, n_ticks))
        n = draw(st.integers(0, n_ticks // k))
        # a delay up to past the last boundary, a period up to past the
        # trace end
        d = draw(st.integers(0, n * k + 2 * k))
        p = draw(st.integers(1, n_ticks + 1))
        return (n_ticks, np.array(starts, dtype=np.int64),
                np.array(states), n, k, d, p)

    seen, aligned = set(), set()
    trace10 = (10, np.array([0, 3, 7, 8]), np.array([0, 1, 0, 1]))
    # 23 ticks, 11 whole intervals of 2; the run at 22 starts on the last
    # query, in the cut-off tail, and moving 10 to 11 takes one run off
    # the grid
    tail = (23, np.array([0, 4, 10, 22]), np.array([0, 1, 2, 1]), 11, 2,
            0, 1)
    off_grid = (tail[0], np.array([0, 4, 11, 22])) + tail[2:]

    @hypothesis.given(runs_and_grid())
    @hypothesis.example(trace10 + (10, 1, 0, 1))     # every tick
    @hypothesis.example(trace10 + (3, 3, 0, 1))      # uniform, step 3
    @hypothesis.example(trace10 + (5, 2, 3, 4))      # delayed, p > k
    @hypothesis.example(trace10 + (3, 3, 9, 2))      # d >= n k: all 0
    @hypothesis.example(trace10 + (3, 3, 12, 5))     # d > n k
    @hypothesis.example(trace10 + (4, 2, 1, 7))      # L = 7 > n
    @hypothesis.example(trace10 + (9, 1, 0, 10))     # L = 10 > n
    @hypothesis.example(trace10 + (10, 1, 2, 1))     # every start a tick
    @hypothesis.example(trace10 + (2, 4, 0, 1))      # 8 closes [4, 8)
    @hypothesis.example(tail)                        # every start aligned
    @hypothesis.example(off_grid)                    # all but one aligned
    @hypothesis.settings(max_examples=100, deadline=None, database=None,
                         print_blob=True)
    def check(case):
        n_ticks, starts, states, n, k, d, p = case
        trace = one_component_trace(n_ticks, starts, states)
        w = np.linspace(0.3, 1.7, trace.model.components[0].n_states)
        grid = tracesim._Grid(n, k, d, p)
        want = np.maximum((np.arange(n + 1) * k - d) // p * p, 0)
        array = ArrayQuery(want)
        assert grid.size == array.size == n + 1
        assert np.array_equal(grid.ticks, want)
        spans = np.ones(n)
        grid.times_spans(spans)
        assert np.array_equal(spans, np.diff(want))
        at = np.concatenate([starts, np.arange(n_ticks + 1)])
        assert np.array_equal(grid.first_at(at), array.first_at(at))
        for run_major in (True, False):
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(tracesim, "_run_major",
                           lambda starts, query: run_major)
                got = tracesim.RunLookup(trace, 0, tracesim._Grid(n, k, d, p))
                same = tracesim.RunLookup(trace, 0, ArrayQuery(want))
            assert (got._run is None) == run_major
            assert np.array_equal(got.at(w), same.at(w))
            assert np.array_equal(got.sums(w), same.sums(w))
            assert_no_lone_aligned_crossing(got)
            if run_major and grid.uniform:
                aligned.add(got._aligned)
        seen.add((d >= n * k, p > k, p // math.gcd(k, p) > n))

    check()
    # the explicit examples reach a delay past the grid, a period past
    # the step and a span pattern longer than the grid, and uniform grids
    # run-major with every run start on a query and without
    assert {(True, False, False), (False, True, False),
            (False, True, True)} <= seen
    assert aligned == {True, False}


def test_grid_spans_multiply_as_the_tiled_pattern():
    # past the head the spans repeat with period L = p / gcd(k, p), and
    # one strided pass per span gives the tiled product byte for byte,
    # for a few spans as for hundreds
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies

    @st.composite
    def grid_and_values(draw):
        k = draw(st.integers(1, 64))
        p = draw(st.one_of(st.integers(1, 8), st.integers(9, 1000)))
        n = draw(st.integers(0, 3000))
        # a delay of no tick, one ahead of the head by a few boundaries,
        # or up to past the last boundary
        d = draw(st.one_of(st.just(0), st.integers(0, 3 * k),
                           st.integers(0, n * k + 2 * k)))
        rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
        stride = draw(st.integers(1, 2))
        return k, p, n, d, rng.normal(size=n * stride)[::stride]

    seen = set()

    @hypothesis.given(grid_and_values())
    @hypothesis.example((10, 4, 300, 0, np.linspace(-1.0, 2.0, 300)))
    @hypothesis.example((3, 997, 2500, 7, np.linspace(-1.0, 2.0, 2500)))
    @hypothesis.example((5, 4, 40, 300, np.linspace(-1.0, 2.0, 40)))
    @hypothesis.settings(max_examples=150, deadline=None, database=None,
                         print_blob=True)
    def check(case):
        k, p, n, d, values = case
        grid = tracesim._Grid(n, k, d, p)
        got, want = values.copy(), values.copy()
        grid.times_spans(got)
        tiled_times_spans(grid, want)
        assert got.tobytes() == want.tobytes()
        repeat = p // math.gcd(k, p)
        if d and n:
            seen.add("head")
        if 1 < repeat <= 4 and repeat < n:
            seen.add("short")
        if repeat > 500 and n > 2 * repeat:
            seen.add("long")

    check()
    assert seen == {"head", "short", "long"}


@pytest.mark.parametrize("k, d, p", [(10, 0, 1), (10, 0, 4), (3, 5, 4),
                                     (10, 3, 25), (3, 7, 997)])
def test_grid_spans_allocate_no_row_length_array(k, d, p):
    # one span per period, at most 997 floats here, against 1.6 MB a row
    rows = 200_000
    values = np.ones(rows)
    grid = tracesim._Grid(rows, k, d, p)
    tracemalloc.start()
    try:
        grid.times_spans(values)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < values.nbytes / 10
    assert np.array_equal(values, np.diff(grid.ticks))


def test_bridge_runs_start_on_100hz_queries_and_cross_none():
    # t61like's bridge steps every 20 ticks, so at 100 Hz (10 ticks) each
    # of its runs starts on a query tick, alone in its interval
    sc = scn.builtin("t61like")
    trace = ss.gen_trace(sc.system, sc.workload, sc.duration_s, sc.tick_s,
                         sc.seed)
    c_idx = sc.system.component_index("bridge")
    k = tracesim._ratio_as_int(0.01, sc.tick_s, "interval")
    lookup = tracesim.RunLookup(trace, c_idx,
                                tracesim._Grid(len(trace) // k, k))
    assert lookup._run is None and len(trace.runs[c_idx][0]) > 50_000
    assert lookup._aligned and len(lookup._crossings[0]) == 0


def test_lookup_refuses_ticks_outside_the_trace():
    trace = one_component_trace(10, np.array([0, 3, 7], dtype=np.int64))
    w = np.array([0.3, 1.7])
    for ticks in ([-1, 2, 5], [0, 11], [11]):
        with pytest.raises(ArgumentError, match="outside"):
            locate(trace, 0, ticks)
    # a query is checked at its ends
    with pytest.raises(ArgumentError, match="-2..9"):
        locate(trace, 0, np.arange(-2, 10))
    # a query that is not a non-decreasing 1-D array is refused before
    # its range is read
    for ticks in ([0, 5, 4, 10], [9, 0, 3, 10, 2], [[0, 10]], 3, -1,
                  [[0, 3], [12, 1]]):
        with pytest.raises(ArgumentError, match="non-decreasing"):
            locate(trace, 0, ticks)
    assert locate(trace, 0, [0, 10]).sums(w) == pytest.approx([0.3 * 6 + 1.7 * 4])


@pytest.mark.parametrize("kind,extra", [
    ("instant", {"noise_sigma": 0.01, "counter_sigma_c": 0.002}),
    ("instant", {}),
    ("filtered", {"noise_sigma": 0.02, "filter_window_s": 0.5,
                  "filter_taps": 5}),
])
def test_current_samplers_match_per_tick_power(mixed_trace, monkeypatch,
                                               kind, extra):
    model = ss.BatteryInterfaceModel(kind=kind, reading_rate_hz=20.0,
                                     supply_voltage_v=3.7, **extra)
    got = ss.sample_interface(mixed_trace, model, seed=3)
    monkeypatch.setattr(battery, "true_energy", ref_true_energy)
    want = ss.sample_interface(mixed_trace, model, seed=3)
    np.testing.assert_allclose(got.values, want.values, rtol=RTOL)


@pytest.mark.parametrize("noise", [0.0, 0.001])
def test_capacity_sampler_matches_per_tick_charge(mixed_trace, noise):
    model = ss.BatteryInterfaceModel(kind="capacity", reading_rate_hz=10.0,
                                     supply_voltage_v=3.7, noise_sigma=noise,
                                     initial_capacity_c=50.0)
    got = ss.sample_interface(mixed_trace, model, seed=5)
    np.testing.assert_allclose(got.values,
                               ref_sample_capacity(mixed_trace, model, 5),
                               rtol=RTOL)


# -- the pipeline never expands the runs --------------------------------------

GUARDED = {
    "n85like": 300.0,
    "t61like": 800.0,
    "quadratic_cpu": 800.0,
    "dvs_flip": 1500.0,
}


@pytest.mark.parametrize("name", sorted(GUARDED))
def test_pipeline_builds_no_per_tick_array(monkeypatch, tmp_path, name):
    def refuse(*args, **kwargs):
        raise AssertionError("per-tick view used by the pipeline")

    monkeypatch.setattr(ss.Trace, "cumulative", refuse)
    monkeypatch.setattr(tracesim, "_expand_runs", refuse)
    sc = dataclasses.replace(scn.builtin(name), duration_s=GUARDED[name])
    exp.run_scenario(sc, str(tmp_path))
    assert any(tmp_path.iterdir())


def test_guarded_builtins_cover_every_experiment_kind():
    kinds = {scn.builtin(name).experiment for name in GUARDED}
    assert kinds == set(scn.EXPERIMENTS)
