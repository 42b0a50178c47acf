"""Scenario configuration: file format and calibrated built-ins.

A scenario bundles the simulated system, workload, predictors, battery
interface, and pipeline settings for one experiment. Built-ins are tuned
so their raw-interface error curves land on the anchor points the
acceptance suite checks; their seeds are part of the calibration.
"""

from __future__ import annotations

import dataclasses
import json
from dataclasses import dataclass

from .battery import FILTERED, BatteryInterfaceModel
from .collector import _spec_ticks
from .constructor import DEFAULT_T_LOW_RANGE, FIT_METHODS, REGRESSOGRAM_K_MAX
from .errors import ConfigurationError, check_fields, from_document
from .errors import read_json, to_document
from .tracesim import (
    Component,
    ComponentStateModel,
    MarkovChain,
    Phase,
    PredictorSpec,
    Schedule,
    WorkloadSpec,
    _phase_edges,
    _ratio_as_int,
)

ERROR_VS_RATE = "error-vs-rate"
MOLDING = "molding"
ADAPTATION = "adaptation"
REGRESSOGRAM = "regressogram-compare"

EXPERIMENTS = (ERROR_VS_RATE, MOLDING, ADAPTATION, REGRESSOGRAM)

DEFAULT_RATE_GRID = (0.01, 0.1, 0.5, 1.0, 4.0, 10.0, 100.0)


def _pipeline(default):
    """A field that scenario files group under "pipeline"."""
    return dataclasses.field(default=default, metadata={"group": "pipeline"})


@dataclass
class ScenarioConfig:
    name: str
    experiment: str
    seed: int
    duration_s: float
    system: ComponentStateModel
    workload: WorkloadSpec
    predictors: tuple[PredictorSpec, ...]
    battery: BatteryInterfaceModel
    tick_s: float = 0.001
    base_rate_hz: float = _pipeline(100.0)
    t_low_s: float = _pipeline(100.0)
    pca_l: int = _pipeline(2)
    fit_method: str = _pipeline("TLS")
    regressogram_k: int = _pipeline(10)
    threshold: float = _pipeline(0.10)
    window_s: float = _pipeline(100.0)
    train_windows: int = _pipeline(12)
    # keep the selected l rich enough that steady monitored error sits well
    # below the rebuild threshold
    accuracy_target: float = _pipeline(0.95)
    rate_grid: tuple[float, ...] = _pipeline(DEFAULT_RATE_GRID)
    config_triples: tuple[tuple[str, str, str], ...] = (
        ("hardware", "machine", "sim"),)

    def __post_init__(self):
        check_fields(self)
        if self.experiment not in EXPERIMENTS:
            raise ConfigurationError(f"unknown experiment {self.experiment!r}")
        if self.seed < 0:
            raise ConfigurationError(f"seed {self.seed} must be >= 0")
        _phase_edges(self.system, self.workload, self.duration_s, self.tick_s)
        if self.fit_method not in FIT_METHODS:
            raise ConfigurationError(f"fit method {self.fit_method!r} is "
                                     f"not one of {FIT_METHODS}")
        if not self.predictors and self.experiment != ERROR_VS_RATE:
            raise ConfigurationError(
                f"experiment {self.experiment!r} needs predictors")
        ids = [spec.id for spec in self.predictors]
        if len(set(ids)) != len(ids):
            raise ConfigurationError(f"duplicate predictor ids in {ids}")
        for spec in self.predictors:
            self.system.weight_vector(spec)
            _spec_ticks(spec, self.tick_s)
        if not self.rate_grid:
            raise ConfigurationError("rate grid is empty")
        for rate in (self.base_rate_hz, *self.rate_grid):
            if rate <= 0:
                raise ConfigurationError(f"rate {rate} Hz must be finite and > 0")
            _ratio_as_int(1.0 / rate, self.tick_s, f"rate {rate:g} Hz period")
            if 1.0 / rate > self.duration_s:
                raise ConfigurationError(f"rate {rate:g} Hz period is "
                                         f"longer than the trace")
        lo, hi = DEFAULT_T_LOW_RANGE
        if not lo <= self.t_low_s <= hi:
            raise ConfigurationError(
                f"t_low {self.t_low_s} s outside the range [{lo:g}, {hi:g}] s")
        _ratio_as_int(self.t_low_s, 1.0 / self.base_rate_hz, "t_low")
        bat = self.battery
        period = 1.0 / bat.reading_rate_hz
        _ratio_as_int(period, self.tick_s, "battery reading period")
        _ratio_as_int(self.t_low_s, period, "t_low vs battery reading period")
        _ratio_as_int(self.window_s, period, "window vs battery reading period")
        if bat.kind == FILTERED:
            _ratio_as_int(bat.filter_window_s / bat.filter_taps, self.tick_s,
                          "battery filter tap spacing")
        for name in ("pca_l", "regressogram_k", "train_windows"):
            value = getattr(self, name)
            if value < 1:
                raise ConfigurationError(f"{name} must be >= 1, got {value}")
        if self.regressogram_k > REGRESSOGRAM_K_MAX:
            raise ConfigurationError(f"regressogram_k must be <= 2**53, "
                                     f"got {self.regressogram_k}")
        if not 0.0 <= self.accuracy_target < 1.0:
            raise ConfigurationError(
                f"accuracy target {self.accuracy_target} outside [0, 1)")
        if not 0.0 < self.threshold < 1.0:
            raise ConfigurationError(
                f"threshold {self.threshold} must be finite and in (0, 1)")

    def with_seed(self, seed: int) -> "ScenarioConfig":
        return dataclasses.replace(self, seed=seed)

    def battery_seed(self) -> int:
        return self.seed + 7919


# ---------------------------------------------------------------------------
# JSON (de)serialization
# ---------------------------------------------------------------------------

def save_scenario(sc: ScenarioConfig, path: str) -> None:
    text = json.dumps(to_document(sc), indent=1)
    with open(path, "w") as fh:
        fh.write(text)


def load_scenario(path: str) -> ScenarioConfig:
    """The scenario a file describes, read against the dataclasses'
    fields (see `sesame.errors`)."""
    return from_document(ScenarioConfig, read_json(path, "scenario"),
                         "scenario")


# ---------------------------------------------------------------------------
# Built-in scenarios
# ---------------------------------------------------------------------------
# The Markov rows below encode mean dwell times: a per-step leave
# probability p gives dwell step_s / p.

def _chain(rows, step_s=0.05, initial=0):
    return MarkovChain(transition=tuple(tuple(r) for r in rows),
                       step_s=step_s, initial_state=initial)


# Joint activity component: cpu and io burst together (interactive use),
# which is what lets two transformed predictors carry almost all of the
# activity-driven power. State 0 is idle; states 1..6 are (cpu flavor A/B)
# x (io mode both/disk/wifi). The flavors burn identical power but retire
# instructions at different rates, and the io modes burn near-identical
# power, so the within-block contrasts keep the design matrix full rank
# without holding real power signal.

def _activity_states(idle_w: float, busy_w: float,
                     io_w: tuple[float, float, float]) -> tuple[float, ...]:
    both, disk, wifi = io_w
    return (idle_w,
            busy_w + both, busy_w + disk, busy_w + wifi,
            busy_w + both, busy_w + disk, busy_w + wifi)


def _activity_chain(idle_dwell_s: float = 30.0, active_dwell_s: float = 30.0,
                    flavor_dwell_s: float = 20.0, io_dwell_s: float = 8.0,
                    io_split: tuple[float, float, float] = (0.6, 0.2, 0.2),
                    step_s: float = 0.05) -> MarkovChain:
    p_enter = step_s / idle_dwell_s
    p_leave = step_s / active_dwell_s
    p_flip = step_s / flavor_dwell_s
    p_io = step_s / io_dwell_s
    rows = [[0.0] * 7 for _ in range(7)]
    rows[0][0] = 1.0 - p_enter
    rows[0][1] = rows[0][4] = p_enter / 2.0   # enter on the 'both' io mode
    for f in range(2):
        for m in range(3):
            s = 1 + f * 3 + m
            row = rows[s]
            row[0] = p_leave
            row[1 + (1 - f) * 3 + m] = p_flip
            for m2 in range(3):
                if m2 != m:
                    row[1 + f * 3 + m2] = p_io * io_split[m2]
            row[s] = 1.0 - sum(row)
    return _chain(rows, step_s=step_s)


def _brightness_schedule() -> Schedule:
    # a handful of user brightness changes over a run; deterministic so the
    # second model factor is independent of the activity sampling
    return Schedule(steps=(
        (400.0, 0), (500.0, 2), (350.0, 1), (450.0, 2),
        (400.0, 0), (500.0, 1), (400.0, 2),
    ))


def _laptop_system() -> ComponentStateModel:
    return ComponentStateModel(
        components=(
            Component("act", _activity_states(3.0, 8.0, (4.4, 4.0, 3.8)),
                      ("idle", "a_both", "a_disk", "a_wifi",
                       "b_both", "b_disk", "b_wifi")),
            Component("lcd", (0.8, 3.8, 7.0), ("dim", "mid", "bright")),
            # invisible to every predictor: sets the high-rate error floor
            Component("bridge", (0.3, 1.7), ("lo", "hi")),
        ),
        base_power_w=6.0,
    )


def _laptop_workload(duration_s: float) -> WorkloadSpec:
    bridge = _chain([[0.667, 0.333], [0.333, 0.667]], step_s=0.02)
    return WorkloadSpec(phases=(
        Phase("steady", duration_s, {
            "act": _activity_chain(),
            "lcd": _brightness_schedule(),
            "bridge": bridge,
        }),
    ))


def _laptop_predictors() -> tuple[PredictorSpec, ...]:
    a_states = (1, 2, 3)
    b_states = (4, 5, 6)
    return (
        PredictorSpec(id="cpu_busy", component="act", kind="residency",
                      weights={s: 1.0 for s in (*a_states, *b_states)},
                      update_rate_hz=250.0),
        PredictorSpec(id="instr_retired", component="act", kind="counter",
                      weights={**{s: 900.0 for s in a_states},
                               **{s: 1300.0 for s in b_states}},
                      update_rate_hz=250.0),
        PredictorSpec(id="disk_sectors", component="act", kind="counter",
                      weights={1: 140.0, 2: 140.0, 4: 140.0, 5: 140.0},
                      update_rate_hz=250.0, delay_s=0.3),
        PredictorSpec(id="wifi_bytes", component="act", kind="counter",
                      weights={1: 90.0, 3: 90.0, 4: 90.0, 6: 90.0},
                      update_rate_hz=250.0, delay_s=0.2),
        PredictorSpec(id="backlight", component="lcd", kind="level",
                      weights={0: 0.1, 1: 0.5, 2: 1.0},
                      policy="event-driven"),
    )


def t61like(seed: int = 61, experiment: str = MOLDING) -> ScenarioConfig:
    """Laptop with a 0.5 Hz filtered interface (10 taps over 16 s)."""
    duration = 3000.0
    return ScenarioConfig(
        name="t61like",
        experiment=experiment,
        seed=seed,
        duration_s=duration,
        system=_laptop_system(),
        workload=_laptop_workload(duration),
        predictors=_laptop_predictors(),
        battery=BatteryInterfaceModel(
            kind="filtered", reading_rate_hz=0.5, supply_voltage_v=12.0,
            filter_window_s=16.0, filter_taps=10, noise_sigma=0.11),
        rate_grid=DEFAULT_RATE_GRID,
        config_triples=(("hardware", "machine", "t61like"),
                        ("software", "dvs", "off")),
    )


def n85like(seed: int = 85, experiment: str = ERROR_VS_RATE) -> ScenarioConfig:
    """Phone with a 4 Hz instant interface dominated by register noise."""
    duration = 3000.0
    system = ComponentStateModel(
        components=(
            Component("soc", (0.8, 1.8, 2.6), ("idle", "active", "peak")),
            Component("radio", (0.1, 0.7), ("idle", "tx")),
        ),
        base_power_w=0.3,
    )
    workload = WorkloadSpec(phases=(
        Phase("steady", duration, {
            "soc": _chain([
                [0.99, 0.008, 0.002],
                [0.006, 0.98, 0.014],
                [0.004, 0.026, 0.97],
            ]),
            "radio": _chain([[0.995, 0.005], [0.02, 0.98]]),
        }),
    ))
    return ScenarioConfig(
        name="n85like",
        experiment=experiment,
        seed=seed,
        duration_s=duration,
        system=system,
        workload=workload,
        predictors=(),
        battery=BatteryInterfaceModel(
            kind="instant", reading_rate_hz=4.0, supply_voltage_v=4.0,
            noise_sigma=0.136, counter_sigma_c=0.0235),
        rate_grid=(0.01, 0.1, 0.5, 1.0, 4.0),
        config_triples=(("hardware", "machine", "n85like"),),
    )


def n900like(seed: int = 900, experiment: str = MOLDING) -> ScenarioConfig:
    """Phone with a 0.1 Hz capacity interface; current is differenced."""
    duration = 3000.0
    system = ComponentStateModel(
        components=(
            Component("act", _activity_states(0.35, 1.55, (1.05, 0.95, 0.9)),
                      ("idle", "a_both", "a_flash", "a_wifi",
                       "b_both", "b_flash", "b_wifi")),
            Component("lcd", (0.15, 0.7, 1.3), ("dim", "mid", "bright")),
            # software-invisible: dominates the high-rate error floor
            Component("gps", (0.05, 0.6), ("off", "fix")),
        ),
        base_power_w=0.25,
    )
    gps = _chain([[0.9, 0.1], [0.1, 0.9]], step_s=0.05)
    workload = WorkloadSpec(phases=(
        Phase("steady", duration, {
            "act": _activity_chain(),
            "lcd": _brightness_schedule(),
            "gps": gps,
        }),
    ))
    predictors = (
        PredictorSpec(id="cpu_util", component="act", kind="residency",
                      weights={s: 1.0 for s in range(1, 7)},
                      update_rate_hz=100.0),
        PredictorSpec(id="instr_retired", component="act", kind="counter",
                      weights={1: 500.0, 2: 500.0, 3: 500.0,
                               4: 800.0, 5: 800.0, 6: 800.0},
                      update_rate_hz=100.0),
        PredictorSpec(id="flash_io", component="act", kind="counter",
                      weights={1: 80.0, 2: 80.0, 4: 80.0, 5: 80.0},
                      update_rate_hz=20.0, delay_s=0.3, policy="polled-slow"),
        PredictorSpec(id="wifi_bytes", component="act", kind="counter",
                      weights={1: 60.0, 3: 60.0, 4: 60.0, 6: 60.0},
                      update_rate_hz=20.0, delay_s=0.2, policy="polled-slow"),
        PredictorSpec(id="backlight", component="lcd", kind="level",
                      weights={0: 0.1, 1: 0.5, 2: 1.0},
                      policy="event-driven"),
    )
    return ScenarioConfig(
        name="n900like",
        experiment=experiment,
        seed=seed,
        duration_s=duration,
        system=system,
        workload=workload,
        predictors=predictors,
        battery=BatteryInterfaceModel(
            kind="capacity", reading_rate_hz=0.1, supply_voltage_v=3.8,
            noise_sigma=9.2e-5, initial_capacity_c=20000.0),
        rate_grid=(0.01, 0.1, 1.0, 10.0, 100.0),
        config_triples=(("hardware", "machine", "n900like"),),
    )


def noiseless_linear(seed: int = 1, experiment: str = MOLDING) -> ScenarioConfig:
    """Exactly linear system, perfect predictors, noiseless instant interface."""
    duration = 2000.0
    system = ComponentStateModel(
        components=(
            Component("cpu", (1.0, 9.0), ("idle", "busy")),
            Component("disk", (0.5, 2.5), ("idle", "active")),
        ),
        base_power_w=3.0,
    )
    workload = WorkloadSpec(phases=(
        Phase("steady", duration, {
            "cpu": _chain([[0.97, 0.03], [0.02, 0.98]], step_s=0.1),
            "disk": _chain([[0.99, 0.01], [0.03, 0.97]], step_s=0.1),
        }),
    ))
    predictors = (
        PredictorSpec(id="cpu:busy", component="cpu", kind="residency",
                      weights={1: 1.0}, update_rate_hz=1000.0),
        PredictorSpec(id="disk:active", component="disk", kind="residency",
                      weights={1: 1.0}, update_rate_hz=1000.0),
    )
    return ScenarioConfig(
        name="noiseless_linear",
        experiment=experiment,
        seed=seed,
        duration_s=duration,
        system=system,
        workload=workload,
        predictors=predictors,
        battery=BatteryInterfaceModel(
            kind="instant", reading_rate_hz=1.0, supply_voltage_v=10.0),
        rate_grid=(0.01, 0.1, 1.0, 10.0, 100.0),
    )


# Desktop parts of the adaptation scenarios. The cpu has an idle and two
# busy states; it leaves any state after 30 s on average and, while both
# busy states are in use, flips between them every 20 s.
_LEAVE = 0.05 / 30.0
_FLIP = 0.05 / 20.0
_CPU_ONE_BUSY = _chain([
    [1 - _LEAVE, _LEAVE, 0.0],
    [_LEAVE, 1 - _LEAVE, 0.0],
    [0.0, 0.0, 1.0],          # never entered
])
_CPU_TWO_BUSY = _chain([
    [1 - _LEAVE, _LEAVE / 2, _LEAVE / 2],
    [_LEAVE, 1 - _LEAVE - _FLIP, _FLIP],
    [_LEAVE, _FLIP, 1 - _LEAVE - _FLIP],
])
_DISK = Component("disk", (0.2, 2.7), ("idle", "active"))
_DISK_CHAIN = _chain([[1 - 0.05 / 20.0, 0.05 / 20.0],
                      [0.05 / 10.0, 1 - 0.05 / 10.0]])
_CPU_BUSY = PredictorSpec(id="cpu_busy", component="cpu", kind="residency",
                          weights={1: 1.0, 2: 1.0}, update_rate_hz=250.0)
_DISK_SECTORS = PredictorSpec(
    id="disk_sectors", component="disk", kind="counter", weights={1: 130.0},
    update_rate_hz=250.0, delay_s=0.3)
# 1 Hz instant interface (Latitude-class): no filter lag, so the monitored
# windows isolate the model-vs-configuration mismatch
_DESKTOP_BATTERY = BatteryInterfaceModel(
    kind="instant", reading_rate_hz=1.0, supply_voltage_v=12.0,
    noise_sigma=0.10)


def dvs_flip(seed: int = 44) -> ScenarioConfig:
    """Adaptation: enabling frequency scaling mid-run changes the power map.

    Before the flip the low-frequency busy state is never entered, so its
    residency predictor is constant zero and the first model drops it.
    """
    system = ComponentStateModel(
        components=(
            Component("cpu", (3.0, 14.0, 7.2), ("idle", "busy2g", "busy800")),
            _DISK,
            Component("bridge", (0.2, 1.0), ("lo", "hi")),
        ),
        base_power_w=2.5,
    )
    bridge = _chain([[0.75, 0.25], [0.25, 0.75]], step_s=0.02)
    workload = WorkloadSpec(phases=(
        Phase("dvs_off", 1800.0, {
            "cpu": _CPU_ONE_BUSY, "disk": _DISK_CHAIN, "bridge": bridge}),
        Phase("dvs_on", 2700.0, {
            "cpu": _CPU_TWO_BUSY, "disk": _DISK_CHAIN, "bridge": bridge}),
    ))
    predictors = (
        _CPU_BUSY,
        PredictorSpec(id="p800_res", component="cpu", kind="residency",
                      weights={2: 1.0}, update_rate_hz=250.0),
        _DISK_SECTORS,
    )
    return ScenarioConfig(
        name="dvs_flip",
        experiment=ADAPTATION,
        seed=seed,
        duration_s=4500.0,
        system=system,
        workload=workload,
        predictors=predictors,
        battery=_DESKTOP_BATTERY,
        config_triples=(("hardware", "machine", "d630like"),
                        ("software", "dvs", "off")),
    )


def workload_switch(seed: int = 45) -> ScenarioConfig:
    """Adaptation: usage change decouples a hidden draw from the busy state.

    In the first phase every busy period also powers the hidden draw, so
    the model folds it into the busy coefficient; the later usage stops
    doing that and the model overpredicts until rebuilt.
    """
    system = ComponentStateModel(
        components=(
            Component("cpu", (3.0, 17.0, 14.3), ("idle", "busy_heavy", "busy_light")),
            _DISK,
        ),
        base_power_w=2.5,
    )
    cpu_light = _chain([
        [1 - _LEAVE, 0.0, _LEAVE],
        [0.0, 1.0, 0.0],
        [_LEAVE, 0.0, 1 - _LEAVE],
    ], initial=0)
    workload = WorkloadSpec(phases=(
        Phase("editor", 1800.0, {"cpu": _CPU_ONE_BUSY, "disk": _DISK_CHAIN}),
        Phase("mixed", 300.0, {"cpu": _CPU_TWO_BUSY, "disk": _DISK_CHAIN}),
        Phase("office", 2700.0, {"cpu": cpu_light, "disk": _DISK_CHAIN}),
    ))
    return ScenarioConfig(
        name="workload_switch",
        experiment=ADAPTATION,
        seed=seed,
        duration_s=4800.0,
        system=system,
        workload=workload,
        predictors=(_CPU_BUSY, _DISK_SECTORS),
        battery=_DESKTOP_BATTERY,
        config_triples=(("hardware", "machine", "d630like"),),
    )


def adaptation_control(seed: int = 46) -> ScenarioConfig:
    """Adaptation control run: no change, so no rebuild may fire."""
    sc = dvs_flip(seed=seed)
    workload = WorkloadSpec(phases=(sc.workload.phases[0],))
    return dataclasses.replace(
        sc, name="adaptation_control", duration_s=3600.0, workload=workload)


def quadratic_cpu(seed: int = 47) -> ScenarioConfig:
    """Convex power-vs-utilization system for the regressogram comparison.

    Component power follows 2 + u + 9 u^2 over six utilization levels, so a
    single linear predictor carries a systematic bias that per-bin means
    do not.
    """
    levels = [0.0, 0.2, 0.4, 0.6, 0.8, 1.0]
    powers = tuple(2.0 + u + 9.0 * u * u for u in levels)
    system = ComponentStateModel(
        components=(
            Component("cpu", powers,
                      tuple(f"u{int(u * 100):03d}" for u in levels)),
            Component("bridge", (0.1, 0.4), ("lo", "hi")),
        ),
        base_power_w=1.0,
    )
    # random walk over utilization levels. Dwells are long enough that
    # 10 ms intervals sit inside one level (the per-bin means are exact)
    # while 100 s training windows still mix several levels.
    k = len(levels)
    p_move = 0.05 / 25.0
    rows = []
    for i in range(k):
        row = [0.0] * k
        if i == 0:
            row[1] = p_move
        elif i == k - 1:
            row[k - 2] = p_move
        else:
            row[i - 1] = row[i + 1] = p_move / 2.0
        row[i] = 1.0 - sum(row)
        rows.append(row)
    workload = WorkloadSpec(phases=(
        Phase("sweep", 3000.0, {
            "cpu": MarkovChain(tuple(tuple(r) for r in rows), step_s=0.05),
            "bridge": _chain([[0.6, 0.4], [0.4, 0.6]], step_s=0.02),
        }),
    ))
    predictors = (
        PredictorSpec(id="util_level", component="cpu", kind="level",
                      weights={i: u for i, u in enumerate(levels)},
                      update_rate_hz=250.0),
    )
    return ScenarioConfig(
        name="quadratic_cpu",
        experiment=REGRESSOGRAM,
        seed=seed,
        duration_s=3000.0,
        system=system,
        workload=workload,
        predictors=predictors,
        battery=BatteryInterfaceModel(
            kind="instant", reading_rate_hz=1.0, supply_voltage_v=12.0,
            noise_sigma=0.05),
        rate_grid=(0.01, 0.1, 1.0, 10.0, 100.0),
    )


BUILTIN_SCENARIOS = {
    "t61like": t61like,
    "n85like": n85like,
    "n900like": n900like,
    "noiseless_linear": noiseless_linear,
    "dvs_flip": dvs_flip,
    "workload_switch": workload_switch,
    "adaptation_control": adaptation_control,
    "quadratic_cpu": quadratic_cpu,
}


def builtin(name: str) -> ScenarioConfig:
    if name not in BUILTIN_SCENARIOS:
        raise ConfigurationError(
            f"unknown scenario {name!r}; built-ins: {sorted(BUILTIN_SCENARIOS)}")
    return BUILTIN_SCENARIOS[name]()
