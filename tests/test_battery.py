import dataclasses

import numpy as np
import pytest

import sesame as ss
import sesame.battery as battery
import sesame.scenarios as scn
from reference import fixed
from sesame.errors import ConfigurationError


def constant_trace(power=10.0, duration=100.0, tick=0.01):
    model = ss.ComponentStateModel(
        components=(ss.Component("box", (power,)),), base_power_w=0.0)
    wl = ss.WorkloadSpec(
        phases=(ss.Phase("p", duration, {"box": fixed(0)}),))
    return ss.gen_trace(model, wl, duration, tick, 0)


def reading_times(readings):
    """Reading i of a current-kind stream is taken at (i + 1) / rate."""
    return (np.arange(len(readings)) + 1) / readings.model.reading_rate_hz


def step_trace(level_w=10.0, duration=40.0, tick=0.01):
    """0 W then `level_w` from t = 0 is modeled by the warm-up zeros of the
    filter itself; the trace is constant at the post-step level."""
    return constant_trace(power=level_w, duration=duration, tick=tick)


@pytest.mark.parametrize("kind", ["instant", "filtered", "capacity"])
def test_every_sampler_needs_a_seed(kind):
    # a default seed could change with no test noticing, so each caller
    # states the seed it samples with
    model = ss.BatteryInterfaceModel(kind=kind, reading_rate_hz=1.0,
                                     filter_window_s=4.0, filter_taps=4)
    trace = constant_trace()
    for sample in (ss.sample_interface, battery._SAMPLERS[kind]):
        with pytest.raises(TypeError, match="seed"):
            sample(trace, model)


def test_instant_constant_current():
    trace = constant_trace(10.0)
    model = ss.BatteryInterfaceModel(kind="instant", reading_rate_hz=4.0,
                                     supply_voltage_v=5.0)
    readings = ss.sample_interface(trace, model, seed=0)
    assert len(readings) == 400
    assert np.allclose(readings.values, 2.0)
    # the first reading ends the first 0.25 s period, the last the trace
    assert reading_times(readings)[[0, -1]] == pytest.approx([0.25, 100.0])


def test_instant_unbiased_under_multiplicative_noise():
    trace = constant_trace(10.0, duration=400.0)
    sigma = 0.2
    model = ss.BatteryInterfaceModel(kind="instant", reading_rate_hz=4.0,
                                     supply_voltage_v=5.0, noise_sigma=sigma)
    readings = ss.sample_interface(trace, model, seed=5)
    n = len(readings)
    tol = 3 * sigma * 2.0 / np.sqrt(n)
    assert abs(readings.values.mean() - 2.0) < tol


def test_instant_counter_noise_telescopes():
    # averaging k readings shrinks the differenced register error like 1/k,
    # much faster than the 1/sqrt(k) of independent noise
    trace = constant_trace(10.0, duration=4000.0, tick=0.05)
    model = ss.BatteryInterfaceModel(kind="instant", reading_rate_hz=4.0,
                                     supply_voltage_v=5.0,
                                     counter_sigma_c=0.1)
    readings = ss.sample_interface(trace, model, seed=9)
    err4 = ss.rms_relative_error(readings.values, np.full(len(readings), 2.0))
    # mean current over 4 s windows: energy per window / (voltage x window)
    down = ss.aggregate_response(readings, 4.0) / (5.0 * 4.0)
    err025 = ss.rms_relative_error(down, np.full(len(down), 2.0))
    assert err025 < err4 / 8  # 16x decimation, ~16x error drop expected


def test_filtered_step_response_half_window():
    # zero noise, current steps 0 -> 2 A at t=0 (filter warm-up is zeros);
    # at t=8 s exactly half of the ten 1.6 s taps have seen the step
    trace = step_trace(level_w=10.0)
    model = ss.BatteryInterfaceModel(kind="filtered", reading_rate_hz=0.5,
                                     supply_voltage_v=5.0,
                                     filter_window_s=16.0, filter_taps=10)
    readings = ss.sample_interface(trace, model, seed=0)
    times = reading_times(readings)
    by_time = dict(zip(times, readings.values))
    assert by_time[8.0] == pytest.approx(1.0)
    # at t=14 the latest complete internal sample ends at 12.8 s, so only
    # 8 of the 10 taps are past the step
    assert by_time[14.0] == pytest.approx(1.6)
    assert by_time[16.0] == pytest.approx(2.0)
    # 99% of the final value is only reached at >= window seconds
    settle = times[readings.values >= 0.99 * 2.0]
    assert settle.min() >= 16.0


def test_filtered_passes_dc_exactly():
    trace = constant_trace(10.0, duration=100.0)
    model = ss.BatteryInterfaceModel(kind="filtered", reading_rate_hz=0.5,
                                     supply_voltage_v=5.0,
                                     filter_window_s=16.0, filter_taps=10)
    readings = ss.sample_interface(trace, model, seed=0)
    steady = readings.values[reading_times(readings) >= 16.0]
    assert np.allclose(steady, 2.0, atol=1e-12)


def test_capacity_constant_drain():
    trace = constant_trace(5.0, duration=100.0)  # 1 A at 5 V
    model = ss.BatteryInterfaceModel(kind="capacity", reading_rate_hz=0.1,
                                     supply_voltage_v=5.0,
                                     initial_capacity_c=20000.0)
    readings = ss.sample_interface(trace, model, seed=0)
    drops = -np.diff(readings.values)
    assert np.allclose(drops, 10.0)
    derived_current = drops / 10.0
    assert np.allclose(derived_current, 1.0)


def test_iid_noise_rms_scales_with_sqrt_k():
    # Monte Carlo over >= 1e4 windows at each decimation factor
    rng = np.random.default_rng(17)
    sigma = 0.3
    n = 4 * 10_000 * 10
    base = 2.0 * (1.0 + rng.normal(0.0, sigma, n))
    truth = np.full(n, 2.0)
    err1 = ss.rms_relative_error(base, truth)
    for k in (4, 25, 100):
        grouped = base[: n // k * k].reshape(-1, k).mean(axis=1)
        err_k = ss.rms_relative_error(grouped, truth[: len(grouped)])
        assert err_k == pytest.approx(err1 / np.sqrt(k), rel=0.2)


def test_rms_relative_error_basics():
    assert ss.rms_relative_error(np.array([5.0, 7.0]), np.array([5.0, 7.0])) == 0.0
    assert ss.rms_relative_error(np.array([11.0, 9.0]),
                                 np.array([10.0, 10.0])) == pytest.approx(0.10)


def test_rms_relative_error_excludes_zero_truth_with_count():
    assert ss.rms_relative_error(np.array([1.0, 2.0, 3.0]),
                                 np.array([1.0, 0.0, 3.0])) == 0.0
    # the mean runs over the two positive truths only
    assert ss.rms_relative_error(np.array([2.0, 5.0, 3.0]),
                                 np.array([1.0, 0.0, 3.0])) == np.sqrt(0.5)
    with pytest.raises(ConfigurationError):
        ss.rms_relative_error(np.array([1.0]), np.array([0.0]))


def test_error_vs_rate_monotone_per_kind():
    # bursty workload, every interface kind with nonzero noise: RMS error
    # must not increase as the rate drops
    model = ss.ComponentStateModel(
        components=(ss.Component("cpu", (2.0, 12.0)),), base_power_w=1.0)
    chain = ss.MarkovChain(((0.9, 0.1), (0.1, 0.9)), step_s=0.05)
    wl = ss.WorkloadSpec(
        phases=(ss.Phase("p", 2000.0, {"cpu": chain}),))
    trace = ss.gen_trace(model, wl, 2000.0, 0.01, 3)
    configs = [
        ss.BatteryInterfaceModel(kind="instant", reading_rate_hz=4.0,
                                 supply_voltage_v=5.0, noise_sigma=0.2,
                                 counter_sigma_c=0.05),
        ss.BatteryInterfaceModel(kind="filtered", reading_rate_hz=0.5,
                                 supply_voltage_v=5.0, noise_sigma=0.15,
                                 filter_window_s=16.0, filter_taps=10),
        ss.BatteryInterfaceModel(kind="capacity", reading_rate_hz=0.1,
                                 supply_voltage_v=5.0, noise_sigma=2e-4,
                                 initial_capacity_c=20000.0),
    ]
    for cfg in configs:
        readings = ss.sample_interface(trace, cfg, seed=8)
        errors = []
        for rate in (4.0, 1.0, 0.1, 0.01):
            if rate > cfg.reading_rate_hz + 1e-12:
                continue
            est = ss.aggregate_response(readings, 1.0 / rate)
            truth = ss.true_energy(trace, 1.0 / rate)
            m = min(len(est), len(truth))
            errors.append(ss.rms_relative_error(est[:m], truth[:m]))
        assert len(errors) >= 2
        assert all(errors[i + 1] <= errors[i] + 1e-9 for i in range(len(errors) - 1)), (
            cfg.kind, errors)


@pytest.mark.parametrize("name", ["n900like", "t61like", "dvs_flip"])
def test_capacity_and_instant_interfaces_agree_on_every_window(name):
    # both noiseless interfaces read the same per-period truth, one as
    # mean currents and the other as a running charge, so every window's
    # energy agrees up to the roundoff of differencing the charge levels
    # (at most 1.5e-12 relative on these traces)
    sc = scn.builtin(name)
    trace = ss.gen_trace(sc.system, sc.workload, sc.duration_s, sc.tick_s,
                         sc.seed)
    for rate_hz in (0.1, 1.0):
        current, charge = (ss.sample_interface(trace, dataclasses.replace(
            sc.battery, kind=kind, reading_rate_hz=rate_hz, noise_sigma=0.0,
            counter_sigma_c=0.0), seed=0) for kind in ("instant", "capacity"))
        for window_s in (10.0, 100.0):
            got = ss.aggregate_response(charge, window_s)
            want = ss.aggregate_response(current, window_s)
            assert len(got) == len(want) == sc.duration_s // window_s
            np.testing.assert_allclose(got, want, rtol=1e-11, atol=0)
