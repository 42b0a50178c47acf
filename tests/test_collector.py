import numpy as np
import pytest

import sesame as ss
import sesame.scenarios as scn
from reference import array_grid_collect, duty, fixed, interval_truth
from sesame.errors import ConfigurationError, RateError


def flat_system():
    model = ss.ComponentStateModel(
        components=(ss.Component("cpu", (1.0, 9.0)),), base_power_w=1.0)
    wl = ss.WorkloadSpec(
        phases=(ss.Phase("p", 1.0, {"cpu": duty(0.01, 0.5, 1, 0)}),))
    trace = ss.gen_trace(model, wl, 1.0, 0.001, 0)
    return model, trace


def three_predictor_setup(duration=30.0):
    model = ss.ComponentStateModel(
        components=(
            ss.Component("cpu", (1.0, 9.0)),
            ss.Component("disk", (0.0, 2.0)),
            ss.Component("lcd", (0.5, 1.5)),
        ),
        base_power_w=1.0,
    )
    wl = ss.WorkloadSpec(phases=(
        ss.Phase("a", duration / 2, {
            "cpu": ss.MarkovChain(((0.9, 0.1), (0.1, 0.9)), step_s=0.05),
            "disk": ss.MarkovChain(((0.95, 0.05), (0.1, 0.9)), step_s=0.05),
            "lcd": fixed(0),
        }),
        ss.Phase("b", duration / 2, {
            "cpu": ss.MarkovChain(((0.8, 0.2), (0.2, 0.8)), step_s=0.05),
            "disk": ss.MarkovChain(((0.9, 0.1), (0.2, 0.8)), step_s=0.05),
            "lcd": fixed(1),
        }),
    ))
    trace = ss.gen_trace(model, wl, duration, 0.001, 5)
    specs = [
        ss.PredictorSpec(id="cpu_busy", component="cpu", kind="residency",
                         weights={1: 1.0}, update_rate_hz=250.0),
        ss.PredictorSpec(id="disk_ops", component="disk", kind="counter",
                         weights={1: 120.0}, update_rate_hz=250.0),
        ss.PredictorSpec(id="backlight", component="lcd", kind="level",
                         weights={0: 0.2, 1: 0.8}, policy="event-driven"),
    ]
    return trace, specs


def test_constant_predictor_collected_flat():
    model, trace = flat_system()
    spec = ss.PredictorSpec(id="cpu_busy", component="cpu", kind="residency",
                            weights={1: 1.0}, update_rate_hz=1000.0)
    dm = ss.collect(trace, [spec], 100.0)
    assert dm.m == 100
    assert np.allclose(dm.x[:, 0], 0.5)
    with pytest.raises(ConfigurationError, match="no predictors"):
        ss.collect(trace, [], 100.0)


def test_fast_residency_within_one_update_quantum():
    trace, specs = three_predictor_setup()
    dm = ss.collect(trace, specs, 100.0)
    truth = interval_truth(trace, specs[0], 0.01)
    quantum = 1.0 / 250.0 / 0.01  # one update period as a fraction of the interval
    assert np.max(np.abs(dm.x[:, 0] - truth[: dm.m])) <= quantum + 1e-9


def test_event_driven_level_rows():
    model = ss.ComponentStateModel(
        components=(ss.Component("lcd", (0.5, 1.5)),), base_power_w=0.0)
    wl = ss.WorkloadSpec(phases=(
        ss.Phase("dim", 5.0, {"lcd": fixed(0)}),
        ss.Phase("bright", 5.0, {"lcd": fixed(1)}),
    ))
    trace = ss.gen_trace(model, wl, 10.0, 0.001, 0)
    spec = ss.PredictorSpec(id="backlight", component="lcd", kind="level",
                            weights={0: 0.2, 1: 0.8}, policy="event-driven")
    dm = ss.collect(trace, [spec], 1.0)
    assert np.allclose(dm.x[:5, 0], 0.2)
    assert np.allclose(dm.x[5:, 0], 0.8)


def test_polled_slow_holds_between_updates():
    trace, _ = three_predictor_setup()
    slow = ss.PredictorSpec(id="io", component="disk", kind="counter",
                            weights={1: 40.0}, update_rate_hz=0.5,
                            policy="polled-slow")
    dm = ss.collect(trace, [slow], 2.0)
    # update period is 2 s; at a 0.5 s collection interval the value may only
    # change when a new update lands, i.e. every 4th row
    dm_fine = ss.collect(trace, [slow], 2.0)
    values = dm_fine.x[:, 0]
    for i in range(len(values) - 1):
        same_update = int(dm_fine.t_start_s[i] // 2.0) == int(
            dm_fine.t_start_s[i + 1] // 2.0)
        if same_update:
            assert values[i + 1] == values[i]


def test_aggregate_response_instant_paper_arithmetic():
    # 0.5 Hz readings of 2 A at 5 V over 100 s: 50 readings x 2 A x 5 V x 2 s
    model = ss.ComponentStateModel(
        components=(ss.Component("box", (10.0,)),), base_power_w=0.0)
    wl = ss.WorkloadSpec(
        phases=(ss.Phase("p", 200.0, {"box": fixed(0)}),))
    trace = ss.gen_trace(model, wl, 200.0, 0.01, 0)
    cfg = ss.BatteryInterfaceModel(kind="instant", reading_rate_hz=0.5,
                                   supply_voltage_v=5.0)
    readings = ss.sample_interface(trace, cfg, seed=0)
    y = ss.aggregate_response(readings, 100.0)
    assert np.allclose(y, 1000.0)


def test_aggregate_response_capacity_drop():
    model = ss.ComponentStateModel(
        components=(ss.Component("box", (1.0,)),), base_power_w=0.0)
    wl = ss.WorkloadSpec(
        phases=(ss.Phase("p", 500.0, {"box": fixed(0)}),))
    trace = ss.gen_trace(model, wl, 500.0, 0.01, 0)
    cfg = ss.BatteryInterfaceModel(kind="capacity", reading_rate_hz=0.1,
                                   supply_voltage_v=5.0,
                                   initial_capacity_c=20000.0)
    readings = ss.sample_interface(trace, cfg, seed=0)
    y = ss.aggregate_response(readings, 100.0)
    # 0.2 A for 100 s drops 20 C; at 5 V that is 100 J
    assert np.allclose(y, 100.0)


def test_aggregate_response_noiseless_equals_truth():
    trace, specs = three_predictor_setup()
    cfg = ss.BatteryInterfaceModel(kind="instant", reading_rate_hz=10.0,
                                   supply_voltage_v=5.0)
    readings = ss.sample_interface(trace, cfg, seed=0)
    y = ss.aggregate_response(readings, 1.0)
    truth = ss.true_energy(trace, 1.0)
    assert np.allclose(y, truth[: len(y)], rtol=1e-12)


def test_aggregate_response_rate_error():
    model = ss.ComponentStateModel(
        components=(ss.Component("box", (10.0,)),), base_power_w=0.0)
    wl = ss.WorkloadSpec(
        phases=(ss.Phase("p", 100.0, {"box": fixed(0)}),))
    trace = ss.gen_trace(model, wl, 100.0, 0.01, 0)
    cfg = ss.BatteryInterfaceModel(kind="instant", reading_rate_hz=0.5,
                                   supply_voltage_v=5.0)
    readings = ss.sample_interface(trace, cfg, seed=0)
    with pytest.raises(RateError):
        ss.aggregate_response(readings, 1.0)


def test_rate_consistency_summed_rows_match_lower_rate():
    trace, specs = three_predictor_setup()
    cfg = ss.BatteryInterfaceModel(kind="instant", reading_rate_hz=10.0,
                                   supply_voltage_v=5.0)
    readings = ss.sample_interface(trace, cfg, seed=0)
    fine = ss.collect(trace, specs, 1.0)
    coarse = ss.collect(trace, specs, 0.2)
    # responses are additive: 5 fine rows sum to 1 coarse row
    summed_y = ss.aggregate_response(readings, 1.0)[:30].reshape(6, 5).sum(axis=1)
    assert np.allclose(summed_y, ss.aggregate_response(readings, 5.0)[:6],
                       rtol=1e-12)
    # residency and counter columns are rates: 5 fine rows average to 1
    for name in ("cpu_busy", "disk_ops"):
        i = fine.columns.index(name)
        mean_rate = fine.x[:30, i].reshape(6, 5).mean(axis=1)
        assert np.allclose(mean_rate, coarse.x[:6, i], rtol=1e-12)


def test_one_interval_collects_and_aggregates():
    # a trace exactly one interval long gives one row, as do readings
    # spanning exactly one response interval, for either kind of register
    model, trace = flat_system()
    spec = ss.PredictorSpec(id="cpu_busy", component="cpu", kind="residency",
                            weights={1: 1.0}, update_rate_hz=1000.0)
    dm = ss.collect(trace, [spec], 1.0)
    assert dm.m == 1 and dm.x[0, 0] == 0.5
    box = ss.ComponentStateModel(
        components=(ss.Component("box", (1.0,)),), base_power_w=0.0)
    wl = ss.WorkloadSpec(
        phases=(ss.Phase("p", 100.0, {"box": fixed(0)}),))
    trace = ss.gen_trace(box, wl, 100.0, 0.01, 0)
    for kind in ("instant", "capacity"):
        cfg = ss.BatteryInterfaceModel(kind=kind, reading_rate_hz=0.1,
                                       supply_voltage_v=5.0)
        y = ss.aggregate_response(ss.sample_interface(trace, cfg, seed=0), 100.0)
        # 0.2 A for 100 s at 5 V
        assert len(y) == 1 and np.isclose(y[0], 100.0), kind


def test_held_column_whose_last_interval_opens_an_update_period():
    # 2 s updates read at 0.5 s: the last of the 9 intervals starts at
    # 4 s, where a new update period opens, so its row holds the rate
    # over [2, 4) s
    trace, _ = three_predictor_setup(duration=4.5)
    slow = ss.PredictorSpec(id="io", component="disk", kind="counter",
                            weights={1: 40.0}, update_rate_hz=0.5,
                            policy="polled-slow")
    dm = ss.collect(trace, [slow], 2.0)
    per_period = interval_truth(trace, slow, 2.0) / 2.0
    assert dm.m == 9
    assert np.array_equal(dm.x[:4, 0], np.zeros(4))
    assert np.allclose(dm.x[4:8, 0], per_period[0], rtol=1e-12)
    assert np.isclose(dm.x[8, 0], per_period[1], rtol=1e-12)
    assert per_period[1] != per_period[0]


def test_collected_columns_are_column_major():
    trace, specs = three_predictor_setup()
    x = ss.collect(trace, specs, 100.0).x
    assert x.flags.f_contiguous and not x.flags.c_contiguous


@pytest.mark.parametrize("name", [name for name in sorted(scn.BUILTIN_SCENARIOS)
                                  if scn.builtin(name).predictors])
def test_collect_equals_the_array_grid_reference(name):
    # every grid, base and window rate of each built-in with predictors,
    # with its held, delayed and event-driven columns, byte for byte
    sc = scn.builtin(name)
    trace = ss.gen_trace(sc.system, sc.workload, sc.duration_s, sc.tick_s,
                         sc.seed)
    for rate in sorted({*sc.rate_grid, sc.base_rate_hz, 1.0 / sc.window_s}):
        got = ss.collect(trace, sc.predictors, rate).x
        assert got.tobytes() == array_grid_collect(
            trace, sc.predictors, rate).tobytes(), rate
