"""Keyed rows: the finest rate held as distinct (x, y) rows and a key.

`collector.collect_keyed` builds each row's key from the trace's runs,
never from the row values, and computes each key's row once. Every row's
design row and true energy must then be `collect`'s and `true_energy`'s,
bit for bit, on every built-in and on random systems, and the stretched
training rows must be those of the whole design.
"""

import dataclasses
import math
import tracemalloc
from types import SimpleNamespace
from unittest import mock

import numpy as np
import pytest

import sesame as ss
import sesame.experiments as exp
import sesame.scenarios as scn
from sesame import battery, collector, tracesim
from sesame.collector import collect, collect_keyed

TICK_S = 1.0        # random systems count in ticks: one tick a second


def bits(a: np.ndarray) -> np.ndarray:
    """The float64 array `a` as its bit patterns, so that -0.0 differs
    from 0.0 and NaN equals itself."""
    return np.asarray(a, dtype=np.float64).view(np.int64)


def assert_keyed(trace: ss.Trace, specs, rate_hz: float) -> collector.KeyedRows:
    """The keyed rows at `rate_hz` materialise to `collect` and
    `true_energy` bit for bit, and their counts are the rows per key."""
    keyed = collect_keyed(trace, specs, rate_hz)
    dm = collect(trace, specs, rate_hz)
    assert keyed.m == dm.m and keyed.columns == dm.columns
    assert np.array_equal(bits(keyed.design().x), bits(dm.x))
    assert np.array_equal(bits(keyed.truth()),
                          bits(ss.true_energy(trace, 1.0 / rate_hz)))
    assert keyed.counts.sum() == dm.m
    assert np.array_equal(np.bincount(keyed.key, minlength=len(keyed.y)),
                          keyed.counts)
    assert len(keyed.x) == len(keyed.y) == len(keyed.counts)
    return keyed


@pytest.mark.parametrize("name", sorted(
    name for name, make in scn.BUILTIN_SCENARIOS.items()
    if make().predictors))
def test_keyed_rows_materialise_on_every_builtin(name):
    sc = scn.builtin(name)
    arts = exp.simulate(sc)
    fine = max(sc.rate_grid)
    keyed = assert_keyed(arts.trace, sc.predictors, fine)
    # far fewer keys than rows at the finest rate (1,013 of 300,000 on
    # t61like) on every built-in
    assert len(keyed.counts) < keyed.m / 100
    # stretch reads the keyed rows column by column, to the same bits
    dm = collect(arts.trace, sc.predictors, fine)
    got = ss.stretch(keyed, arts.readings, sc.t_low_s)
    want = ss.stretch(dm, arts.readings, sc.t_low_s)
    assert np.array_equal(bits(got.x), bits(want.x))
    assert np.array_equal(bits(got.y), bits(want.y))
    assert np.array_equal(got.t_start_s, want.t_start_s)


def test_run_artifacts_design_and_truth_keep_their_arrays():
    # a run keys its finest rate; design() still gives collect's arrays
    # at every rate, and truth() true_energy's at the finest rate and its
    # sums, within a few roundings, at every coarser one
    sc = scn.builtin("t61like")
    arts = exp.simulate(sc)
    fine = max(sc.rate_grid)
    for rate in sc.rate_grid:
        assert np.array_equal(bits(arts.design(rate).x),
                              bits(collect(arts.trace, sc.predictors, rate).x))
        want = ss.true_energy(arts.trace, 1.0 / rate)
        if rate == fine:
            assert np.array_equal(bits(arts.truth(rate)), bits(want))
        else:
            np.testing.assert_allclose(arts.truth(rate), want, rtol=4e-15,
                                       atol=0)


def test_keyed_molding_run_holds_under_10_mb():
    # the finest rate is held as a key and distinct rows, not as a design:
    # a t61like molding run's tracemalloc high-water read 6.75 MB with
    # keyed rows, and 20.6 MB when it held the 100 Hz design; 10 MB is
    # about 50% headroom over the first figure and half the second
    sc = scn.builtin("t61like")
    exp.run_scenario(sc)
    tracemalloc.start()
    try:
        exp.run_scenario(sc)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 10e6, f"high-water {peak / 1e6:.2f} MB"


def high_water(sc) -> int:
    """The `tracemalloc` high-water of a run of `sc` after a first one."""
    exp.run_scenario(sc)
    tracemalloc.start()
    try:
        exp.run_scenario(sc)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


# with the key in its narrowest type and every gather through it made in
# blocks, a quadratic_cpu regressogram run read 4.10 MB and a t61like
# molding run 3.79 MB; with an intp key and whole-array gathers they read
# 7.47 and 6.75 MB. 5 MB is 22% and 32% above the first two, and below
# both of the last.
@pytest.mark.parametrize("name", ["quadratic_cpu", "t61like"])
def test_keyed_run_high_water_stays_under_5_mb(name):
    peak = high_water(scn.builtin(name))
    assert peak < 5e6, f"high-water {peak / 1e6:.2f} MB"


def test_builtin_keys_are_held_in_their_narrowest_type():
    # 28 keys at 100 Hz on quadratic_cpu, 1,013 on t61like
    for name, dtype in (("quadratic_cpu", np.uint8), ("t61like", np.uint16)):
        sc = scn.builtin(name)
        keyed = exp.simulate(sc).keyed()
        assert keyed.key.dtype == dtype
        assert keyed.key.dtype == np.min_scalar_type(len(keyed.counts))


def whole_means(keyed, window: int, count: int) -> np.ndarray:
    """`stretch`'s whole-array means of each design column, gathered by
    fancy indexing, not through the block walk."""
    return np.column_stack([
        keyed.x[:, i][keyed.key][:count * window].reshape(
            count, window).mean(axis=1) for i in range(keyed.n)])


def whole_sums(keyed, r: int) -> np.ndarray:
    """The whole-array sums of the truth over windows of `r` rows."""
    c = keyed.m // r
    return keyed.y[keyed.key][:c * r].reshape(c, r).sum(axis=1)


def hand_keyed(n_keys: int, m: int) -> collector.KeyedRows:
    """Keyed rows of `m` rows over `n_keys` random keys, 0 and the last
    among them, in the type that holds the key count."""
    rng = np.random.default_rng(n_keys)
    key = rng.integers(0, n_keys, m)
    key[0], key[-1] = 0, n_keys - 1
    counts = np.zeros(n_keys, dtype=np.int64)
    np.add.at(counts, key, 1)
    return collector.KeyedRows(
        interval_s=0.01, columns=("a", "b"), kinds=("residency", "counter"),
        key=key.astype(np.min_scalar_type(n_keys)),
        x=np.asfortranarray(rng.standard_normal((n_keys, 2))),
        y=rng.standard_normal(n_keys) * 1e3, counts=counts)


@pytest.mark.parametrize("n_keys, dtype", [
    (255, np.uint8), (256, np.uint16), (65_535, np.uint16),
    (65_536, np.uint32)])
@pytest.mark.parametrize("m, window, windows", [
    # m a whole number of blocks and not, windows that divide the block
    # target and not, a window longer than the target
    (4 * collector._BLOCK_ROWS, 100, [100, 6_000]),
    (3 * collector._BLOCK_ROWS + 123, 7, [3, 100, 250]),
    (2 * collector._BLOCK_ROWS + 5, collector._BLOCK_ROWS + 7_232,
     [40_000, 3])])
def test_block_walk_equals_the_whole_reductions(n_keys, dtype, m, window,
                                                windows):
    keyed = hand_keyed(n_keys, m)
    assert keyed.key.dtype == dtype
    assert np.array_equal(np.bincount(keyed.key, minlength=n_keys),
                          keyed.counts)
    count = m // window
    assert np.array_equal(bits(keyed.window_means(window, count)),
                          bits(whole_means(keyed, window, count)))
    for r, got in zip(windows, keyed.truth_sums(windows)):
        assert np.array_equal(bits(got), bits(whole_sums(keyed, r)))
    assert np.array_equal(bits(keyed.truth()), bits(keyed.y[keyed.key]))
    assert np.array_equal(bits(keyed.design().x), bits(keyed.x[keyed.key]))


def random_system():
    """A strategy of small systems, their predictors and a fine interval:
    1-3 components of 1-4 states, each a Markov chain whose step is on or
    off the interval, or a schedule, over one or two phases; every
    predictor kind and policy; delays and update periods on and off the
    interval's grid, polled-slow ones held where their period exceeds
    the interval."""
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies

    @st.composite
    def draw_system(draw):
        k = draw(st.integers(1, 6))
        n_ticks = draw(st.integers(k, 360))
        comps, procs = [], [{}, {}]
        n_phases = draw(st.integers(1, 2))
        for c in range(draw(st.integers(1, 3))):
            n = draw(st.integers(1, 4))
            powers = tuple(draw(st.floats(0.0, 9.0)) for _ in range(n))
            comps.append(ss.Component(f"c{c}", powers))
            for p in range(n_phases):
                if draw(st.booleans()):
                    rows = []
                    for _ in range(n):
                        w = [draw(st.floats(0.0, 1.0)) + 1e-3
                             for _ in range(n)]
                        rows.append(tuple(x / sum(w) for x in w))
                    # a step on the interval's grid or off it
                    step = draw(st.one_of(st.integers(1, 3).map(
                        lambda r: r * k), st.integers(1, 9)))
                    procs[p][f"c{c}"] = ss.MarkovChain(
                        tuple(rows), step_s=float(step),
                        initial_state=draw(st.integers(0, n - 1)))
                else:
                    steps = tuple((float(draw(st.integers(1, 40))),
                                   draw(st.integers(0, n - 1)))
                                  for _ in range(draw(st.integers(1, 3))))
                    procs[p][f"c{c}"] = ss.Schedule(steps)
        model = ss.ComponentStateModel(tuple(comps),
                                       base_power_w=draw(st.floats(0.0, 2.0)))
        cut = draw(st.integers(1, n_ticks))
        phases = tuple(ss.Phase(f"p{p}", float(cut if p == 0 else n_ticks),
                                procs[p]) for p in range(n_phases))
        specs = []
        for i in range(draw(st.integers(1, 5))):
            c = draw(st.integers(0, len(comps) - 1))
            kind = draw(st.sampled_from(
                [tracesim.RESIDENCY, tracesim.COUNTER, tracesim.LEVEL]))
            policies = [tracesim.POLLED_FAST, tracesim.POLLED_SLOW]
            if kind == tracesim.LEVEL:
                policies.append(tracesim.EVENT_DRIVEN)
            n = comps[c].n_states
            weights = {j: draw(st.floats(-3.0, 3.0))
                       for j in range(n) if draw(st.booleans())} or {0: 1.0}
            period = draw(st.one_of(st.integers(1, 3).map(lambda r: r * k),
                                    st.integers(1, 13)))
            specs.append(ss.PredictorSpec(
                id=f"s{i}", component=f"c{c}", kind=kind, weights=weights,
                update_rate_hz=1.0 / period,
                delay_s=float(draw(st.one_of(st.integers(0, 3).map(
                    lambda r: r * k), st.integers(0, 40)))),
                policy=draw(st.sampled_from(policies))))
        trace = ss.gen_trace(model, ss.WorkloadSpec(phases), float(n_ticks),
                             TICK_S, draw(st.integers(0, 2**16)))
        return trace, specs, k

    return draw_system()


def test_keyed_rows_materialise_on_random_systems():
    hypothesis = pytest.importorskip("hypothesis")
    held = []

    @hypothesis.given(random_system())
    @hypothesis.settings(max_examples=60, deadline=None, database=None,
                         print_blob=True)
    def check(case):
        trace, specs, k = case
        assert_keyed(trace, specs, 1.0 / k)
        held.append(any(group[3] for group in collector._groups(
            trace, specs, k)))

    check()
    assert any(held)


def test_keyed_truth_alone_on_random_systems(monkeypatch):
    # with no predictors the rows hold the truth alone, keyed by the
    # components' states: an error-vs-rate run keys its finest rate so
    hypothesis = pytest.importorskip("hypothesis")

    @hypothesis.given(random_system())
    @hypothesis.settings(max_examples=60, deadline=None, database=None,
                         print_blob=True)
    def check(case):
        trace, _, k = case
        keyed = collect_keyed(trace, (), 1.0 / k)
        assert np.array_equal(bits(keyed.truth()),
                              bits(ss.true_energy(trace, float(k))))
        assert keyed.counts.sum() == keyed.m == len(trace) // k
        assert keyed.x.shape == (len(keyed.y), 0)
        assert keyed.design().x.shape == (keyed.m, 0)

    check()
    keyed, collect_keyed_ = [], exp.collect_keyed

    def counted(trace, predictors, rate_hz):
        keyed.append((len(predictors), rate_hz))
        return collect_keyed_(trace, predictors, rate_hz)

    monkeypatch.setattr(exp, "collect_keyed", counted)
    exp.run_error_vs_rate(scn.builtin("n85like"))
    assert keyed == [(0, 4.0)]


def test_error_vs_rate_runs_key_the_truth_alone(monkeypatch):
    # a run that reads truths alone keys its finest rate with no
    # predictors; a molding run keys its predictors too, and the truths
    # of both keys are the same bits at every rate
    received, collect_keyed_ = [], exp.collect_keyed

    def recorded(trace, predictors, rate_hz):
        received.append((tuple(predictors), rate_hz))
        return collect_keyed_(trace, predictors, rate_hz)

    monkeypatch.setattr(exp, "collect_keyed", recorded)
    molding = dataclasses.replace(scn.builtin("noiseless_linear"),
                                  duration_s=600.0)
    alone = dataclasses.replace(molding, experiment=scn.ERROR_VS_RATE)
    fine = max(molding.rate_grid)
    exp.run_scenario(alone)
    exp.run_scenario(molding)
    assert received == [((), fine), (molding.predictors, fine)]
    arts = exp.simulate(alone)
    both = exp.RunArtifacts(molding, arts.trace, arts.readings)
    for rate in alone.rate_grid:
        assert np.array_equal(bits(arts.truth(rate)), bits(both.truth(rate)))
    assert arts.keyed().n == 0 and both.keyed().n == len(molding.predictors)
    # a design is still collect's at every rate, the finest too
    assert np.array_equal(bits(arts.design(fine).x), bits(both.design(fine).x))


def battery_models():
    """A strategy of interfaces for a random system with a fine interval
    of `k` ticks, each kind's periods on and off that interval's grid."""
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies

    @st.composite
    def draw_model(draw, k: int, n_ticks: int):
        def period() -> int:
            # a whole multiple of the fine interval, or any tick count
            return draw(st.one_of(
                st.integers(1, max(1, n_ticks // k)).map(lambda r: r * k),
                st.integers(1, n_ticks)))

        kind = draw(st.sampled_from([battery.INSTANT, battery.FILTERED,
                                     battery.CAPACITY]))
        taps = draw(st.integers(1, 4))
        return battery.BatteryInterfaceModel(
            kind=kind, reading_rate_hz=1.0 / period(),
            noise_sigma=draw(st.sampled_from([0.0, 0.1])),
            filter_window_s=float(period() * taps) if kind == battery.FILTERED
            else 0.0,
            filter_taps=taps if kind == battery.FILTERED else 0)

    return draw_model


def test_run_truth_readings_stay_within_roundoff_on_random_systems():
    # readings fed a run's truth, the keyed finest rate's sums where a
    # period is a whole multiple of its interval, are sample_interface's
    # within a few roundings, for every battery kind
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    models = battery_models()

    @hypothesis.given(random_system(), st.data())
    @hypothesis.settings(max_examples=60, deadline=None, database=None,
                         print_blob=True)
    def check(case, data):
        trace, _, k = case
        model = data.draw(models(k, len(trace)))
        seed = data.draw(st.integers(0, 2**16))
        run = SimpleNamespace(experiment=scn.ERROR_VS_RATE, predictors=(),
                              rate_grid=(1.0 / k,), battery=model,
                              battery_seed=lambda: seed)
        got = exp.RunArtifacts(run, trace).readings.values
        want = ss.sample_interface(trace, model, seed).values
        np.testing.assert_allclose(got, want, rtol=4e-15, atol=0)

    check()


def span_period(trace, specs, k: int) -> int:
    """L, the span period that phases the keys at intervals of `k` ticks:
    the lcm of the span periods of the groups that sum their columns."""
    m = len(trace) // k
    return math.lcm(1, *(
        collector._group_lookup(trace, group, m, k).query.repeat
        for group, columns in collector._groups(trace, specs, k).items()
        if not group[3] and any(specs[i].kind != tracesim.LEVEL
                                for i in columns)))


def test_block_walk_equals_the_whole_reductions_on_random_systems():
    # with blocks of a few rows, every walk crosses many blocks: each
    # block of keys is counted and renumbered alone, phased (L > 1) or
    # not, and stretch's means and the coarser truth sums read windows
    # that span blocks, that do not divide them and that exceed them
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    phased = []

    @hypothesis.given(random_system(), st.data())
    @hypothesis.settings(max_examples=60, deadline=None, database=None,
                         print_blob=True)
    def check(case, data):
        trace, specs, k = case
        block = data.draw(st.sampled_from([1, 2, 5, 16]))
        with mock.patch.object(collector, "_BLOCK_ROWS", block):
            keyed = collect_keyed(trace, specs, 1.0 / k)
            assert keyed.key.dtype == np.min_scalar_type(len(keyed.counts))
            assert np.array_equal(
                np.bincount(keyed.key, minlength=len(keyed.y)), keyed.counts)
            assert np.array_equal(bits(keyed.design().x),
                                  bits(collect(trace, specs, 1.0 / k).x))
            window = data.draw(st.integers(1, keyed.m))
            count = keyed.m // window
            assert np.array_equal(bits(keyed.window_means(window, count)),
                                  bits(whole_means(keyed, window, count)))
            windows = data.draw(st.lists(st.integers(1, keyed.m),
                                         min_size=1, max_size=3))
            for r, got in zip(windows, keyed.truth_sums(windows)):
                assert np.array_equal(bits(got), bits(whole_sums(keyed, r)))
        phased.append(span_period(trace, specs, k) > 1)

    check()
    assert any(phased)


def test_sums_at_equals_sums_at_the_rows():
    # sums_at(w, rows) is sums(w)[rows] byte for byte on every grid a
    # random system queries, run-major or by binary search
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies

    @hypothesis.given(random_system(), st.data())
    @hypothesis.settings(max_examples=40, deadline=None, database=None,
                         print_blob=True)
    def check(case, data):
        trace, specs, k = case
        m = len(trace) // k
        lookups = [tracesim.RunLookup(trace, c, tracesim._Grid(m, k))
                   for c in range(len(trace.runs))]
        lookups += [collector._group_lookup(trace, group, m, k)
                    for group in collector._groups(trace, specs, k)]
        for lookup in lookups:
            n = lookup.trace.model.components[lookup.c_idx].n_states
            w = np.linspace(-1.5, 2.5, n)
            rows = np.array(data.draw(st.lists(
                st.integers(0, lookup.query.size - 2), max_size=30)),
                dtype=np.int64)
            assert np.array_equal(bits(lookup.sums_at(w, rows)),
                                  bits(lookup.sums(w)[rows]))
            assert np.array_equal(lookup.states_at(rows),
                                  lookup.at(np.arange(n))[rows])

    check()


def test_shortened_t61like_keeps_its_keyed_values():
    # a trace cut to a length that is not whole t_low windows keys the
    # rows past the last window too
    sc = dataclasses.replace(scn.builtin("t61like"), duration_s=650.0)
    arts = exp.simulate(sc)
    assert_keyed(arts.trace, sc.predictors, max(sc.rate_grid))
