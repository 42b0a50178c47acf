import tracemalloc

import numpy as np
import pytest

import sesame as ss
import sesame.scenarios as scn
from reference import (
    duty,
    fixed,
    interval_truth,
    loop_markov_states,
    read_grid,
    residency_beta_true,
    residency_predictors,
    tick_power,
    tick_states,
)
from sesame.errors import AlignmentError, ConfigurationError


def single_state_model(power=5.0, base=0.0):
    return ss.ComponentStateModel(
        components=(ss.Component("box", (power,), ("on",)),),
        base_power_w=base,
    )


def duty_cycle_system():
    """CPU idle 1 W / busy 9 W at 50% over a 1 s period, disk 2 W, base 3 W."""
    model = ss.ComponentStateModel(
        components=(
            ss.Component("cpu", (1.0, 9.0), ("idle", "busy")),
            ss.Component("disk", (2.0,), ("on",)),
        ),
        base_power_w=3.0,
    )
    wl = ss.WorkloadSpec(
        phases=(ss.Phase("main", 10.0, {
            "cpu": duty(1.0, 0.5, 1, 0),
            "disk": fixed(0),
        }),),
    )
    return model, wl


def markov_cpu(duration=50.0):
    model = ss.ComponentStateModel(
        components=(ss.Component("cpu", (1.0, 5.0, 9.0)),),
        base_power_w=0.5,
    )
    chain = ss.MarkovChain(
        ((0.90, 0.08, 0.02), (0.10, 0.80, 0.10), (0.05, 0.15, 0.80)),
        step_s=0.1,
    )
    wl = ss.WorkloadSpec(
        phases=(ss.Phase("main", duration, {"cpu": chain}),))
    return model, wl, duration


def test_single_state_trace_is_flat():
    model = single_state_model()
    wl = ss.WorkloadSpec(
        phases=(ss.Phase("p", 10.0, {"box": fixed(0)}),))
    trace = ss.gen_trace(model, wl, 10.0, 0.01, 1)
    assert len(trace) == 1000
    assert np.all(tick_power(trace) == 5.0)


def test_duty_cycle_mean_power_matches_closed_form():
    model, wl = duty_cycle_system()
    trace = ss.gen_trace(model, wl, 10.0, 0.01, 0)
    # closed form: 3 + 2 + (1 + 9) / 2 = 10 W over any whole period
    per_period = tick_power(trace).reshape(10, 100).mean(axis=1)
    assert np.allclose(per_period, 10.0)


def test_same_seed_same_trace():
    model, wl, duration = markov_cpu()
    a = ss.gen_trace(model, wl, duration, 0.01, 11)
    b = ss.gen_trace(model, wl, duration, 0.01, 11)
    assert np.array_equal(tick_states(a), tick_states(b))
    assert np.array_equal(tick_power(a), tick_power(b))


def test_different_seed_differs():
    model, wl, duration = markov_cpu()
    a = ss.gen_trace(model, wl, duration, 0.01, 11)
    b = ss.gen_trace(model, wl, duration, 0.01, 12)
    assert not np.array_equal(tick_states(a), tick_states(b))


def test_gen_trace_needs_a_seed():
    # a default seed could change with no test noticing, so each caller
    # states the seed it draws with
    model, wl, duration = markov_cpu()
    with pytest.raises(TypeError, match="seed"):
        ss.gen_trace(model, wl, duration, 0.01)


@pytest.mark.parametrize("seed", [-1, 1.5, True])
def test_gen_trace_refuses_a_seed_that_is_not_an_integer_at_least_0(seed):
    model, wl, duration = markov_cpu()
    with pytest.raises(ConfigurationError, match="seed"):
        ss.gen_trace(model, wl, duration, 0.01, seed)


def test_invalid_markov_rows_rejected():
    with pytest.raises(ConfigurationError):
        ss.MarkovChain(((0.5, 0.4), (0.5, 0.5)))


NAN, INF = float("nan"), float("inf")
NON_FINITE = {
    "markov_entry": lambda: ss.MarkovChain(((NAN, 1.0), (0.5, 0.5))),
    "markov_one_state": lambda: ss.MarkovChain(((NAN,),)),
    "markov_infinite_entry": lambda: ss.MarkovChain(((INF, 1.0), (0.5, 0.5))),
    "markov_step": lambda: ss.MarkovChain(((1.0,),), step_s=NAN),
    "markov_infinite_step": lambda: ss.MarkovChain(((1.0,),), step_s=INF),
    "predictor_update_rate": lambda: ss.PredictorSpec(
        "p", "cpu", "residency", {1: 1.0}, update_rate_hz=NAN),
    "predictor_infinite_update_rate": lambda: ss.PredictorSpec(
        "p", "cpu", "residency", {1: 1.0}, update_rate_hz=INF),
    "predictor_delay": lambda: ss.PredictorSpec(
        "p", "cpu", "residency", {1: 1.0}, delay_s=NAN),
    "predictor_weight": lambda: ss.PredictorSpec(
        "p", "cpu", "counter", {1: NAN}),
    "predictor_infinite_weight": lambda: ss.PredictorSpec(
        "p", "cpu", "counter", {1: -INF}),
    "component_power": lambda: ss.Component("cpu", (1.0, NAN)),
    "component_infinite_power": lambda: ss.Component("cpu", (INF,)),
    "base_power": lambda: ss.ComponentStateModel(
        (ss.Component("cpu", (1.0,)),), base_power_w=NAN),
    "duty_period": lambda: duty(NAN, 0.5, 1, 0),
    "duty_infinite_period": lambda: duty(INF, 0.5, 1, 0),
    "schedule_duration": lambda: ss.Schedule(((NAN, 0),)),
    "schedule_infinite_duration": lambda: ss.Schedule(((1.0, 0), (INF, 1))),
    "phase_duration": lambda: ss.Phase("p", NAN, {}),
}


@pytest.mark.parametrize("name", sorted(NON_FINITE))
def test_non_finite_trace_model_values_are_refused(name):
    # `x <= 0` and `x < 0` are both False for NaN, so each check must
    # test for a finite value in range rather than for a bad one
    with pytest.raises(ConfigurationError):
        NON_FINITE[name]()


def test_true_energy_constant_trace():
    model = single_state_model()
    wl = ss.WorkloadSpec(
        phases=(ss.Phase("p", 200.0, {"box": fixed(0)}),))
    trace = ss.gen_trace(model, wl, 200.0, 0.01, 1)
    energy = ss.true_energy(trace, 100.0)
    assert np.allclose(energy, 500.0)


def test_true_energy_duty_cycle_per_second():
    model, wl = duty_cycle_system()
    trace = ss.gen_trace(model, wl, 10.0, 0.01, 0)
    # oracle: direct tick sums
    expect = tick_power(trace).reshape(10, 100).sum(axis=1) * 0.01
    assert np.allclose(ss.true_energy(trace, 1.0), expect)
    assert np.allclose(expect, 10.0)


def test_true_energy_whole_trace_additivity():
    model, wl, duration = markov_cpu()
    trace = ss.gen_trace(model, wl, duration, 0.01, 11)
    total = ss.true_energy(trace, duration)
    assert total.shape == (1,)
    assert total[0] == pytest.approx(tick_power(trace).sum() * 0.01, rel=1e-12)


def test_true_energy_alignment_error():
    model, wl = duty_cycle_system()
    trace = ss.gen_trace(model, wl, 10.0, 0.01, 0)
    with pytest.raises(AlignmentError):
        ss.true_energy(trace, 0.0151)


def test_partition_additivity():
    model, wl, duration = markov_cpu(duration=40.0)
    trace = ss.gen_trace(model, wl, duration, 0.01, 11)
    whole = ss.true_energy(trace, 40.0)[0]
    for interval in (0.1, 0.5, 2.0, 8.0):
        parts = ss.true_energy(trace, interval)
        assert abs(parts.sum() - whole) <= 1e-9 * whole


def test_residency_closure():
    # per component, the one-hot residencies of every interval sum to 1
    model = ss.ComponentStateModel(components=(
        ss.Component("cpu", (1.0, 5.0, 9.0)),
        ss.Component("disk", (0.5, 2.0)),
    ))
    chain = ss.MarkovChain(
        ((0.90, 0.08, 0.02), (0.10, 0.80, 0.10), (0.05, 0.15, 0.80)),
        step_s=0.02)
    wl = ss.WorkloadSpec(phases=(ss.Phase("main", 30.0, {
        "cpu": chain,
        "disk": ss.Schedule(((0.014, 1), (0.029, 0), (0.005, 1))),
    }),))
    trace = ss.gen_trace(model, wl, 30.0, 0.001, 11)
    for comp in model.components:
        specs = [
            ss.PredictorSpec(id=f"{comp.name}{j}", component=comp.name,
                             kind="residency", weights={j: 1.0})
            for j in range(comp.n_states)
        ]
        for interval in (0.001, 0.05, 1.0):
            fractions = np.column_stack(
                [interval_truth(trace, s, interval) for s in specs])
            assert np.allclose(fractions.sum(axis=1), 1.0, atol=1e-12)


def test_ground_truth_linearity_beta_true():
    model, wl, duration = markov_cpu(duration=60.0)
    trace = ss.gen_trace(model, wl, duration, 0.01, 11)
    specs = residency_predictors(model)
    beta = residency_beta_true(model, 2.0, specs)
    x = np.column_stack([interval_truth(trace, s, 2.0) for s in specs])
    predicted = beta[0] + x @ beta[1:]
    assert np.allclose(predicted, ss.true_energy(trace, 2.0), rtol=1e-12)


def test_phases_switch_and_last_phase_extends():
    model = single_state_model(power=1.0)
    model = ss.ComponentStateModel(
        components=(ss.Component("box", (1.0, 4.0)),), base_power_w=0.0)
    wl = ss.WorkloadSpec(phases=(
        ss.Phase("a", 2.0, {"box": fixed(0)}),
        ss.Phase("b", 2.0, {"box": fixed(1)}),
    ))
    trace = ss.gen_trace(model, wl, 6.0, 0.01, 3)
    assert np.all(tick_power(trace)[:200] == 1.0)
    assert np.all(tick_power(trace)[200:] == 4.0)  # phase b runs to the end



# -- Markov sampling against the step-by-step loop ------------------------------

def phase_ticks(proc, n_ticks, tick_s, rng_key):
    """The phase's state runs expanded to one state per tick."""
    starts, states = ss.tracesim._phase_states(proc, n_ticks, tick_s, rng_key)
    return ss.tracesim._expand_runs(starts, states, n_ticks)


def random_chain(rng, k, zero_fraction=0.5):
    p = rng.random((k, k)) * (rng.random((k, k)) >= zero_fraction)
    p[:, 0] += 1e-3                       # no all-zero rows
    return tuple(map(tuple, p / p.sum(axis=1, keepdims=True)))


MARKOV_CASES = {
    "single_state": (((1.0,),), 0),
    "absorbing_rows": (((1.0, 0.0, 0.0), (0.3, 0.4, 0.3), (0.0, 0.0, 1.0)), 1),
    "zero_entries": (((0.0, 0.7, 0.0, 0.3), (0.5, 0.0, 0.5, 0.0),
                      (0.0, 0.0, 0.0, 1.0), (0.25, 0.25, 0.0, 0.5)), 3),
    # float cumsum of ten 0.1 ends at 0.9999999999999999
    "cumsum_below_one": (((0.1,) * 10,) * 10, 7),
    "dense_k8": (random_chain(np.random.default_rng(3), 8, 0.0), 5),
    # two states: a step can swap them, every step swaps them, state 0
    # absorbs, and a persistent chain that starts in state 1
    "two_state_swaps": (((0.2, 0.8), (0.9, 0.1)), 0),
    "two_state_alternation": (((0.0, 1.0), (1.0, 0.0)), 0),
    "two_state_absorbing": (((1.0, 0.0), (0.3, 0.7)), 1),
    "two_state_initial_1": (((0.75, 0.25), (0.25, 0.75)), 1),
    # the laptop bridge's chain: a switch at about every third step
    "two_state_dense": (((0.667, 0.333), (0.333, 0.667)), 0),
    # three or more states, fast and slow
    "fast_k3": (((1 / 3,) * 3,) * 3, 2),
    "slow_k7": (tuple(tuple(0.97 if i == j else 0.005 for j in range(7))
                      for i in range(7)), 4),
}

# the walk `_phase_states` takes for each case
MARKOV_WALKS = {
    "single_state": "_exit_walk_runs",
    "absorbing_rows": "_exit_walk_runs",
    "zero_entries": "_exit_walk_runs",
    "cumsum_below_one": "_exit_walk_runs",
    "dense_k8": "_exit_walk_runs",
    "two_state_swaps": "_two_state_runs",
    "two_state_alternation": "_two_state_runs",
    "two_state_absorbing": "_two_state_runs",
    "two_state_initial_1": "_two_state_runs",
    "two_state_dense": "_two_state_runs",
    "fast_k3": "_exit_walk_runs",
    "slow_k7": "_exit_walk_runs",
}


def assert_reference_runs(chain, n_ticks, rng_key):
    """`_phase_states` gives the reference loop's states, as merged runs."""
    starts, states = ss.tracesim._phase_states(chain, n_ticks, 0.001,
                                               rng_key)
    ticks = loop_markov_states(chain, n_ticks, 0.001, rng_key)
    want = np.concatenate([[0], np.flatnonzero(ticks[1:] != ticks[:-1]) + 1])
    assert starts.dtype == np.int64 and states.dtype == np.int16
    assert np.array_equal(starts, want)
    assert np.array_equal(states, ticks[want])


@pytest.mark.parametrize("name", sorted(MARKOV_CASES))
@pytest.mark.parametrize("n_ticks", [1, 5, 1003, 2000])
def test_markov_states_match_step_loop(name, n_ticks):
    transition, initial = MARKOV_CASES[name]
    chain = ss.MarkovChain(transition, step_s=0.005, initial_state=initial)
    assert_reference_runs(chain, n_ticks, (9, 0, 1))


def spy_on_walks(monkeypatch):
    """The list that each Markov walk appends its name to when called."""
    walked = []
    for walk in ("_two_state_runs", "_exit_walk_runs"):
        original = getattr(ss.tracesim, walk)
        monkeypatch.setattr(
            ss.tracesim, walk,
            lambda *args, walk=walk, original=original: (
                walked.append(walk), original(*args))[1])
    return walked


@pytest.mark.parametrize("name", sorted(MARKOV_CASES))
def test_markov_walk_depends_on_the_matrix_only(name, monkeypatch):
    walked = spy_on_walks(monkeypatch)
    transition, initial = MARKOV_CASES[name]
    chain = ss.MarkovChain(transition, step_s=0.001, initial_state=initial)
    for seed in range(4):
        ss.tracesim._phase_states(chain, 300, 0.001, (seed,))
    assert walked == [MARKOV_WALKS[name]] * 4


def test_builtins_take_every_markov_walk(monkeypatch):
    # a walk that no built-in takes is a path no pinned run checks
    walked = spy_on_walks(monkeypatch)
    for name in scn.BUILTIN_SCENARIOS:
        sc = scn.builtin(name)
        for phase in sc.workload.phases:
            for proc in phase.occupancy.values():
                if isinstance(proc, ss.MarkovChain):
                    ss.tracesim._phase_states(proc, 100, sc.tick_s, (0,))
    assert set(walked) == set(MARKOV_WALKS.values())


def test_markov_runs_match_step_loop_on_random_chains():
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    weight = st.one_of(st.just(0.0), st.floats(0.01, 1.0))

    @st.composite
    def chains(draw):
        k = draw(st.integers(1, 6))
        stay = draw(st.one_of(st.floats(0.0, 1.0), st.floats(0.9, 1.0),
                              st.sampled_from([0.0, 1.0])))
        rows = []
        for s in range(k):
            off = np.array(draw(st.lists(weight, min_size=k, max_size=k)))
            off[s] = 0.0
            row = off * ((1.0 - stay) / off.sum()) if off.sum() > 0 else off
            row[s] = max(0.0, 1.0 - row.sum())
            rows.append(tuple(row))
        return ss.MarkovChain(tuple(rows), step_s=0.001,
                              initial_state=draw(st.integers(0, k - 1)))

    @hypothesis.settings(max_examples=40, deadline=None, database=None,
                         print_blob=True)
    @hypothesis.given(chains(),
                      st.integers(1, 9192),
                      st.integers(0, 2**32 - 1))
    def check(chain, n_ticks, seed):
        assert_reference_runs(chain, n_ticks, (seed,))

    check()


def test_two_state_runs_match_step_loop_on_random_chains():
    # a two-state chain has stays (cum[1, 0] < cum[0, 0], persistent) or
    # swaps (cum[0, 0] < cum[1, 0], which no built-in has), never both;
    # rows may absorb and entries may be exactly 0 or 1
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    to_0 = st.one_of(st.floats(0.0, 1.0), st.sampled_from([0.0, 1.0]))

    @st.composite
    def chains(draw):
        p0, p1 = draw(to_0), draw(to_0)
        return ss.MarkovChain(((p0, 1.0 - p0), (p1, 1.0 - p1)),
                              step_s=0.001 * draw(st.integers(1, 3)),
                              initial_state=draw(st.integers(0, 1)))

    seen = set()

    @hypothesis.given(chains(), st.integers(1, 3000),
                      st.integers(0, 2**32 - 1))
    @hypothesis.example(ss.MarkovChain(((0.2, 0.8), (0.9, 0.1)), 0.001, 1),
                        2000, 3)
    @hypothesis.example(ss.MarkovChain(((0.0, 1.0), (1.0, 0.0)), 0.002, 0),
                        999, 4)
    @hypothesis.example(ss.MarkovChain(((1.0, 0.0), (0.3, 0.7)), 0.001, 1),
                        2000, 5)
    @hypothesis.example(ss.MarkovChain(((0.6, 0.4), (0.0, 1.0)), 0.001, 0),
                        2000, 6)
    @hypothesis.example(ss.MarkovChain(((0.5, 0.5), (0.5, 0.5)), 0.001, 1),
                        2000, 7)
    @hypothesis.example(ss.MarkovChain(((0.667, 0.333), (0.333, 0.667)),
                                       0.003, 1), 3000, 8)
    @hypothesis.settings(max_examples=60, deadline=None, database=None,
                         print_blob=True)
    def check(chain, n_ticks, seed):
        (p0, _), (p1, _) = chain.transition
        seen.add((p1 < p0, p0 < p1, p0 in (0.0, 1.0) or p1 in (0.0, 1.0)))
        assert_reference_runs(chain, n_ticks, (seed,))

    check()
    # the explicit examples reach stays, swaps and 0/1 entries with both
    assert {(True, False, False), (False, True, False),
            (True, False, True), (False, True, True)} <= seen


class FixedDraws:
    """Stands in for a numpy Generator: returns `values`, cycled."""

    def __init__(self, values):
        self.values = np.asarray(values, dtype=float)

    def random(self, n):
        return np.resize(self.values, n)


def test_markov_clamps_draws_above_row_cumsum(monkeypatch):
    # draws at or above the row's float cumsum (0.9999999999999999) and
    # exactly on a cumsum value hit the k-1 clamp and the side="right" rule
    top = np.nextafter(1.0, 0.0)
    draws = [top, 0.0, 0.1, 0.30000000000000004, top, 0.5, top, 0.95]
    monkeypatch.setattr(np.random, "default_rng",
                        lambda key: FixedDraws(draws))
    transition, _ = MARKOV_CASES["cumsum_below_one"]
    chain = ss.MarkovChain(transition, step_s=0.002, initial_state=2)
    got = phase_ticks(chain, 51, 0.001, (0,))
    want = loop_markov_states(chain, 51, 0.001, (0,))
    assert np.array_equal(got, want)
    assert 9 in got


EDGE_CHAINS = {
    # walked from exit to exit; the last row sums to 1 - 5e-10,
    # so a draw in [its cumsum, 1) keeps state 2 through the clamp
    "slow_k3": (((0.95, 0.03, 0.02), (0.04, 0.92, 0.04),
                 (0.04, 0.05, 0.9099999995)), 1),
    "two_state": (((0.3, 0.7), (0.6, 0.4)), 0),
}


@pytest.mark.parametrize("name", sorted(EDGE_CHAINS))
def test_markov_draws_on_row_cumsums_give_the_reference_runs(name, monkeypatch):
    # every draw is a row cumsum, 0, the largest float below 1 or a value
    # between the slow chain's last row sum and 1, in shuffled order, so
    # each state meets each bound of its stay interval
    transition, initial = EDGE_CHAINS[name]
    cum = np.cumsum(transition, axis=1)
    values = np.concatenate([cum.ravel(), [0.0, np.nextafter(1.0, 0.0),
                                           0.9999999997]])
    draws = np.random.default_rng(0).permutation(np.repeat(values, 20))
    monkeypatch.setattr(np.random, "default_rng",
                        lambda key: FixedDraws(draws))
    chain = ss.MarkovChain(transition, step_s=0.001, initial_state=initial)
    assert_reference_runs(chain, len(draws), (0,))


def test_markov_fifty_state_chain_over_many_steps():
    rng = np.random.default_rng(21)
    chain = ss.MarkovChain(random_chain(rng, 50), step_s=0.001,
                           initial_state=17)
    n_ticks = 17161
    got = phase_ticks(chain, n_ticks, 0.001, (4, 2, 0))
    want = loop_markov_states(chain, n_ticks, 0.001, (4, 2, 0))
    assert np.array_equal(got, want)


def test_dense_chain_exit_lists_stay_machine_integers():
    # a dense k = 8 chain exits at about 7/8 of its 20k steps in every
    # state: 8-byte exits and successors take about 2.2 MB, where lists
    # of Python ints peaked at 7.8 MB
    transition, initial = MARKOV_CASES["dense_k8"]
    cum = np.cumsum(np.asarray(transition), axis=1)
    draws = np.random.default_rng(1).random(20_000)
    tracemalloc.start()
    try:
        ss.tracesim._exit_walk_runs(cum, draws, initial)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 5e6


def test_markov_phases_restart_with_their_own_draws():
    rng = np.random.default_rng(22)
    chains = [ss.MarkovChain(random_chain(rng, 4), step_s=0.004,
                             initial_state=i) for i in range(3)]
    model = ss.ComponentStateModel(
        components=(ss.Component("cpu", (1.0, 2.0, 3.0, 4.0)),
                    ss.Component("gpu", (0.5, 1.5, 2.5, 3.5))))
    wl = ss.WorkloadSpec(phases=tuple(
        ss.Phase(f"p{i}", 0.5 + 0.25 * i,
                 {"cpu": chain, "gpu": chains[(i + 1) % 3]})
        for i, chain in enumerate(chains)))
    trace = ss.gen_trace(model, wl, 2.5, 0.001, 5)
    phase_ticks = [500, 750, 1250]         # the last phase runs to the end
    for c_idx in range(2):
        want = np.concatenate([
            loop_markov_states(phase.occupancy[model.components[c_idx].name],
                               n, 0.001, (5, c_idx, p_idx))
            for p_idx, (phase, n) in enumerate(zip(wl.phases, phase_ticks))])
        assert np.array_equal(tick_states(trace)[c_idx], want)


# -- observation ------------------------------------------------------------

def register_reads(trace, spec, rate_hz):
    """The cumulative register that `spec`'s collected column implies at
    each interval boundary: 0 at the trace start, then the running sum of
    the column times the interval."""
    x = ss.collect(trace, [spec], rate_hz).x[:, 0]
    return np.concatenate([[0.0], np.cumsum(x / rate_hz)])


def test_observed_equals_truth_when_updates_are_fast():
    model, wl, duration = markov_cpu(duration=20.0)
    trace = ss.gen_trace(model, wl, duration, 0.01, 11)
    spec = ss.PredictorSpec(id="busy", component="cpu", kind="residency",
                            weights={2: 1.0}, update_rate_hz=100.0)
    ticks = read_grid(trace, 100.0)
    values = ss.collect(trace, [spec], 100.0).x[:, 0] / 100.0
    truth = trace.cumulative(spec)
    assert np.allclose(values, np.diff(truth[ticks]), atol=1e-12)


def test_slow_update_lag_bounded_by_one_quantum():
    # 250 Hz updates read at 100 Hz: the visible register trails the true
    # one by at most one update period of accumulation (4 ms here).
    model, wl, duration = markov_cpu(duration=20.0)
    trace = ss.gen_trace(model, wl, duration, 0.001, 11)
    spec = ss.PredictorSpec(id="busy", component="cpu", kind="residency",
                            weights={2: 1.0}, update_rate_hz=250.0)
    ticks = read_grid(trace, 100.0)
    observed = register_reads(trace, spec, 100.0)
    truth = trace.cumulative(spec)[ticks]
    lag = truth - observed
    assert lag.min() >= -1e-12
    assert lag.max() <= 1.0 / 250.0 + 1e-12


def test_square_wave_read_error_bounded_by_update_granularity():
    # 50% duty cycle, 250 Hz updates read at 100 Hz: every read of the
    # cumulative residency register is short by at most one 4 ms update
    # quantum, exhaustively compared against the true values
    model = ss.ComponentStateModel(
        components=(ss.Component("cpu", (1.0, 9.0)),), base_power_w=0.0)
    wl = ss.WorkloadSpec(
        phases=(ss.Phase("p", 20.0, {"cpu": duty(1.0, 0.5, 1, 0)}),))
    trace = ss.gen_trace(model, wl, 20.0, 0.001, 0)
    spec = ss.PredictorSpec(id="busy", component="cpu", kind="residency",
                            weights={1: 1.0}, update_rate_hz=250.0)
    ticks = read_grid(trace, 100.0)
    observed = register_reads(trace, spec, 100.0)
    truth = trace.cumulative(spec)[ticks]
    quantum = 1.0 / 250.0
    gap = truth - observed
    assert gap.min() >= -1e-12 and gap.max() <= quantum + 1e-12
    nonzero = truth > 0
    assert np.max(gap[nonzero] / truth[nonzero]) <= quantum / truth[nonzero].min() + 1e-9


def test_delayed_counter_cross_correlation_peaks_at_delay():
    model = ss.ComponentStateModel(
        components=(ss.Component("disk", (0.0, 1.0)),), base_power_w=1.0)
    chain = ss.MarkovChain(((0.95, 0.05), (0.05, 0.95)), step_s=0.05)
    wl = ss.WorkloadSpec(
        phases=(ss.Phase("p", 120.0, {"disk": chain}),))
    trace = ss.gen_trace(model, wl, 120.0, 0.01, 21)
    delay = 0.5
    spec = ss.PredictorSpec(id="sectors", component="disk", kind="counter",
                            weights={1: 200.0}, update_rate_hz=100.0,
                            delay_s=delay)
    true_spec = ss.PredictorSpec(id="sectors", component="disk",
                                 kind="counter", weights={1: 200.0},
                                 update_rate_hz=100.0)
    true_deltas = interval_truth(trace, true_spec, 0.05)
    obs_deltas = ss.collect(trace, [spec], 20.0).x[:, 0] * 0.05
    n = min(len(true_deltas), len(obs_deltas))
    a = true_deltas[:n] - true_deltas[:n].mean()
    b = obs_deltas[:n] - obs_deltas[:n].mean()
    lags = np.arange(0, 40)
    corr = [np.dot(a[: n - k], b[k:]) for k in lags]
    best_lag_s = lags[int(np.argmax(corr))] * 0.05
    assert best_lag_s == pytest.approx(delay, abs=0.05)


def test_event_driven_level_changes_at_events_only():
    model = ss.ComponentStateModel(
        components=(ss.Component("lcd", (1.0, 2.0)),), base_power_w=0.0)
    wl = ss.WorkloadSpec(phases=(
        ss.Phase("dim", 5.0, {"lcd": fixed(0)}),
        ss.Phase("bright", 5.0, {"lcd": fixed(1)}),
    ))
    trace = ss.gen_trace(model, wl, 10.0, 0.01, 0)
    spec = ss.PredictorSpec(id="bl", component="lcd", kind="level",
                            weights={0: 0.3, 1: 0.9}, policy="event-driven")
    values = ss.collect(trace, [spec], 1.0).x[:, 0]
    assert len(values) == 10
    assert np.all(values[:5] == 0.3)
    assert np.all(values[5:] == 0.9)
