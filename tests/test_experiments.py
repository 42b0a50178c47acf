import csv
import dataclasses
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import sesame as ss
import sesame.cli as cli
import sesame.experiments as exp
import sesame.scenarios as scn
from sesame.cli import main as cli_main
from sesame.collector import DesignMatrix
from sesame.constructor import TrainingSet, fit_regressogram
from sesame.constructor import iterate_construction, stretch
from sesame.errors import AlignmentError, ConfigurationError, ParseError
from sesame.errors import SesameError, from_document, to_document
from sesame.manager import ConfigurationKey, ModelTable, install_model
from sesame.manager import maybe_rebuild, monitor, persist


@pytest.fixture(scope="module")
def noiseless_report(tmp_path_factory):
    out = tmp_path_factory.mktemp("noiseless")
    sc = scn.builtin("noiseless_linear")
    report = exp.run_molding(sc, str(out))
    return sc, report, out


def test_scenario_file_round_trip(tmp_path):
    for name in scn.BUILTIN_SCENARIOS:
        sc = scn.builtin(name)
        path = tmp_path / f"{name}.json"
        scn.save_scenario(sc, str(path))
        back = scn.load_scenario(str(path))
        assert to_document(back) == to_document(sc)


def test_scenario_file_malformed(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text('{"name": "x"')
    with pytest.raises(ParseError):
        scn.load_scenario(str(path))
    with pytest.raises(ParseError):
        from_document(scn.ScenarioConfig, {"name": "x"}, "scenario")


def test_unknown_builtin():
    with pytest.raises(ConfigurationError):
        scn.builtin("nope")


def test_with_seed_rethreads_workload():
    sc = scn.builtin("t61like").with_seed(123)
    assert sc.seed == 123


def test_a_replaced_seed_reseeds_the_trace_and_the_battery():
    # the scenario's seed is the only one: the trace is drawn from it and
    # the battery noise from battery_seed(), so replace and with_seed agree
    sc = dataclasses.replace(scn.builtin("dvs_flip"), duration_s=300.0)
    a, b, pinned = (exp.simulate(s) for s in (
        dataclasses.replace(sc, seed=5), sc.with_seed(5), sc))
    for (starts_a, states_a), (starts_b, states_b) in zip(a.trace.runs,
                                                          b.trace.runs):
        assert np.array_equal(starts_a, starts_b)
        assert np.array_equal(states_a, states_b)
    assert np.array_equal(a.readings.values, b.readings.values)
    assert not np.array_equal(a.readings.values, pinned.readings.values)


@pytest.mark.parametrize("seed", [1.5, True])
def test_with_seed_refuses_a_seed_that_is_not_an_integer(seed):
    with pytest.raises(ConfigurationError, match="seed"):
        scn.builtin("noiseless_linear").with_seed(seed)


def test_grid_coverage_every_rate_once_per_estimator(noiseless_report):
    sc, report, _ = noiseless_report
    for est in dict.fromkeys(r.estimator for r in report.rows):
        rates = [r.rate_hz for r in report.rows if r.estimator == est]
        assert rates == list(sc.rate_grid)


def test_noiseless_molding_all_full_rank_variants_exact(noiseless_report):
    # exactly linear system and noise-free interface: every variant that
    # keeps the full predictor span must be exact; l=1 discards a
    # power-carrying direction by construction and is excluded
    sc, report, _ = noiseless_report
    for est in ("molded_no_pca", "molded_all_pcs", "molded_l2"):
        for rate in sc.rate_grid:
            assert report.value(rate, est) < 1e-6, (est, rate)


def test_noiseless_exact_fits_stay_at_roundoff_at_every_rate(
        noiseless_report):
    # each cumulative column is an exact interval sum, like the truth,
    # not the difference of two large registers, so the exact fits stay
    # at roundoff at the finest rate too; over the pinned seed and seeds
    # 1-20 the molded rows read at most 7.7e-16 and the oracle 5.2e-15,
    # half the bound or less (differenced registers read 1.4e-12 at 100 Hz)
    sc, report, _ = noiseless_report
    for est in ("molded_no_pca", "molded_all_pcs", "molded_l2",
                "external_oracle"):
        for rate in sc.rate_grid:
            assert report.value(rate, est) <= 1e-14, (est, rate)


def test_noiseless_interface_error_near_zero(noiseless_report):
    sc, report, _ = noiseless_report
    for rate in sc.rate_grid:
        rms = report.value(rate, "battery_interface")
        if rms is not None:
            assert rms < 1e-9


def test_unsupported_rates_marked(noiseless_report):
    sc, report, out = noiseless_report
    # 1 Hz interface cannot serve 10 or 100 Hz rows
    assert report.value(10.0, "battery_interface") is None
    assert report.value(100.0, "battery_interface") is None
    with open(out / "report.csv") as fh:
        rows = {(r["rate_hz"], r["estimator"]): r
                for r in csv.DictReader(fh)}
    assert rows[("10", "battery_interface")]["rms_rel_error"] == ""
    assert rows[("10", "battery_interface")]["accuracy"] == ""


def test_oracle_dominates_molded_variants(noiseless_report):
    sc, report, _ = noiseless_report
    for rate in sc.rate_grid:
        oracle = report.value(rate, "external_oracle")
        for est in exp.MOLDED_VARIANTS:
            assert oracle <= report.value(rate, est) + 1e-12


def test_error_vs_rate_rejects_wrong_experiment():
    with pytest.raises(ConfigurationError):
        exp.run_error_vs_rate(scn.builtin("t61like"))


def test_adaptation_csv_and_log_shape(tmp_path):
    sc = scn.builtin("adaptation_control")
    sc = dataclasses.replace(sc, duration_s=2000.0)
    res = exp.run_adaptation(sc, str(tmp_path))
    lines = (tmp_path / "adaptation.csv").read_text().strip().splitlines()
    assert lines[0] == "t_s,window_error,rebuild_flag"
    assert len(lines) == 1 + len(res.times_s)
    log = (tmp_path / "decisions.log").read_text().strip().splitlines()
    assert all(len(line.split(",")) == 4 for line in log)
    assert any(line.endswith(",install") for line in log)


def test_adaptation_with_wider_monitor_window():
    # the monitor window length is configuration, not mechanism
    sc = scn.builtin("adaptation_control")
    sc = dataclasses.replace(sc, window_s=200.0, duration_s=2400.0,
                             train_windows=6)
    res = exp.run_adaptation(sc)
    assert res.rebuild_count == 0
    assert res.table.window_s == 200.0
    assert max(e for _, e in res.monitored()) < 0.10


def test_adaptation_fits_each_install_once(monkeypatch):
    fits = []
    fit = exp.iterate_construction

    def counted(*args, **kwargs):
        fits.append(1)
        return fit(*args, **kwargs)

    monkeypatch.setattr(exp, "iterate_construction", counted)
    res = exp.run_adaptation(scn.builtin("dvs_flip"))
    installs = [line for line in res.table.decision_log
                if line.split(",")[-1].startswith("install")]
    assert res.rebuild_count == 1
    assert len(fits) == len(installs) == 2       # cold start and rebuild


def test_adaptation_over_threshold_without_data_left():
    # cut at 2500 s, the run ends before a rebuilt dataset could be
    # collected after the flip, so the over-threshold windows only log
    sc = dataclasses.replace(scn.builtin("dvs_flip"), duration_s=2500.0)
    res = exp.run_adaptation(sc)
    assert res.rebuild_count == 0
    no_data = [line.split(",")[0] for line in res.table.decision_log
               if line.endswith(",over-threshold-no-data")]
    assert no_data == ["1900", "2000", "2400"]


def test_collect_rejects_rates_beyond_trace_resolution():
    from sesame.errors import ConfigurationError as CE

    sc = scn.builtin("noiseless_linear")
    arts = exp.simulate(sc)
    with pytest.raises(CE):
        arts.design(2000.0)


def test_adaptation_determinism(tmp_path):
    sc = scn.builtin("adaptation_control")
    sc = dataclasses.replace(sc, duration_s=2000.0)
    a = tmp_path / "a"
    b = tmp_path / "b"
    exp.run_adaptation(sc, str(a))
    exp.run_adaptation(sc, str(b))
    assert (a / "adaptation.csv").read_bytes() == (b / "adaptation.csv").read_bytes()
    assert (a / "decisions.log").read_bytes() == (b / "decisions.log").read_bytes()


# -- CLI ----------------------------------------------------------------------

def test_cli_list(capsys):
    assert cli_main(["list"]) == 0
    out = capsys.readouterr().out
    assert "t61like" in out and "n900like" in out


def test_cli_run_with_overrides(tmp_path, capsys):
    rc = cli_main(["run", "noiseless_linear", "--out", str(tmp_path / "o"),
                   "--seed", "5", "--rate-grid", "0.01,1",
                   "--tlow", "100"])
    assert rc == 0
    report = (tmp_path / "o" / "report.csv").read_text()
    rates = {line.split(",")[0] for line in report.splitlines()[1:]}
    assert rates == {"0.01", "1"}
    meta = json.loads((tmp_path / "o" / "run.json").read_text())
    assert meta["seed"] == 5
    # --l is read by regressogram-compare runs only
    rc = cli_main(["run", "quadratic_cpu", "--out", str(tmp_path / "q"),
                   "--rate-grid", "1", "--l", "2"])
    assert rc == 0
    meta = json.loads((tmp_path / "q" / "run.json").read_text())
    assert meta["pipeline"]["pca_l"] == 2


# one built-in of each experiment kind, with the overrides its kind reads
REPLAYS = {
    "n85like": ["--seed", "3"],
    "dvs_flip": ["--threshold", "0.12"],
    "quadratic_cpu": ["--l", "1", "--rate-grid", "1,100"],
    "n900like": ["--tlow", "50"],
}


@pytest.mark.parametrize("name", sorted(REPLAYS))
def test_run_json_replays_the_run(name, tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    assert cli_main(["run", name, "--out", str(a), *REPLAYS[name]]) == 0
    assert cli_main(["run", str(a / "run.json"), "--out", str(b)]) == 0
    files = sorted(p.name for p in a.iterdir())
    assert sorted(p.name for p in b.iterdir()) == files
    for f in files:
        assert (b / f).read_bytes() == (a / f).read_bytes(), f


def test_run_json_of_a_builtin_is_its_export(tmp_path):
    assert cli_main(["run", "t61like", "--out", str(tmp_path / "o")]) == 0
    assert cli_main(["export", "t61like", str(tmp_path / "t61like.json")]) == 0
    assert ((tmp_path / "o" / "run.json").read_bytes()
            == (tmp_path / "t61like.json").read_bytes())


def test_cli_run_scenario_file(tmp_path):
    sc = scn.builtin("noiseless_linear")
    sc = dataclasses.replace(sc, rate_grid=(0.01, 1.0))
    path = tmp_path / "scenario.json"
    scn.save_scenario(sc, str(path))
    assert cli_main(["run", str(path), "--out", str(tmp_path / "o")]) == 0


def test_cli_unknown_scenario_exit_1(capsys):
    assert cli_main(["run", "no_such_thing"]) == 1


def scenario_bytes(edit, name="noiseless_linear") -> bytes:
    """The built-in scenario file of `name` after `edit(doc)`."""
    doc = to_document(scn.builtin(name))
    edit(doc)
    return json.dumps(doc).encode()


@pytest.mark.parametrize("content,message", [
    (b"\xff\xfe", "is not UTF-8"),
    (b'{"name": "\xe9"}', "is not UTF-8"),
    (b"[" * 200_000, "nests too deeply"),
    (None, "cannot read scenario file"),      # a directory
    (b"1" * 5000, "integer string conversion"),
    (scenario_bytes(lambda d: d["workload"]["phases"][0].update(occupancy=[])),
     "scenario.workload.phases[0].occupancy: expected an object"),
    (scenario_bytes(lambda d: d.update(duration_s=float("nan"))),
     "scenario.duration_s: expected a finite number, got nan"),
    (scenario_bytes(lambda d: d.update(pipeline=[])),
     "scenario.pipeline: expected an object"),
    (scenario_bytes(lambda d: d["pipeline"].update(rate_grid=[])),
     "rate grid is empty"),
    (scenario_bytes(lambda d: d.update(predictors=[]), "dvs_flip"),
     "experiment 'adaptation' needs predictors"),
    (scenario_bytes(lambda d: d.update(seed=-3)), "seed -3 must be >= 0"),
    (scenario_bytes(lambda d: d["workload"]["phases"][0]["occupancy"].update(
        cpuu=d["workload"]["phases"][0]["occupancy"]["cpu"])),
     "phase steady: occupancy and system components differ in ['cpuu']"),
    (scenario_bytes(lambda d: d["workload"]["phases"][0].update(
        duration_s=1999.9995)),
     "phase steady duration: 1999.9995 is not an integral multiple"),
    # a file an earlier version exported
    (scenario_bytes(lambda d: d["battery"].update(quantization=0.0)),
     "scenario.battery: unknown key 'quantization'"),
], ids=["utf16_bom", "latin1", "deep_nesting", "directory", "huge_integer",
        "occupancy_list", "duration_nan", "pipeline_list", "rate_grid_empty",
        "predictors_empty", "seed_negative", "occupancy_unknown_component",
        "phase_off_grid", "earlier_export"])
def test_cli_unreadable_scenario_file_exit_1(tmp_path, content, message):
    path = tmp_path / "bad.json"
    if content is None:
        path.mkdir()
    else:
        path.write_bytes(content)
    src = Path(cli.__file__).resolve().parents[1]
    proc = subprocess.run(
        [sys.executable, "-m", "sesame.cli", "run", str(path),
         "--out", str(tmp_path / "o")],
        capture_output=True, text=True, timeout=60,
        env={**os.environ, "PYTHONPATH": str(src)})
    assert proc.returncode == 1
    assert proc.stderr.startswith("error: ") and message in proc.stderr
    assert "Traceback" not in proc.stderr


def test_cli_insufficient_data_exit_2(tmp_path):
    sc = scn.builtin("noiseless_linear")
    sc = dataclasses.replace(sc, duration_s=300.0)   # 3 stretched rows only
    path = tmp_path / "short.json"
    scn.save_scenario(sc, str(path))
    assert cli_main(["run", str(path), "--out", str(tmp_path / "o")]) == 2


BAD_FLAGS = {
    "rate_zero": (["t61like", "--rate-grid", "0"], "must be finite and > 0"),
    "rate_grid_empty": (["t61like", "--rate-grid", ","], "rate grid is empty"),
    "rate_off_tick_grid": (["t61like", "--rate-grid", "3"],
                           "not an integral multiple"),
    "tlow_out_of_range": (["t61like", "--tlow", "30"], "outside the range"),
    "tlow_off_base_grid": (["t61like", "--tlow", "50.005"],
                           "not an integral multiple"),
    "l_zero": (["quadratic_cpu", "--l", "0"], "pca_l must be >= 1"),
    "l_negative": (["quadratic_cpu", "--l", "-1"], "pca_l must be >= 1"),
    "l_for_molding": (["t61like", "--l", "3"], "regressogram-compare runs only"),
    "threshold_nan": (["dvs_flip", "--threshold", "nan"],
                      "ScenarioConfig.threshold: expected a finite number, "
                      "got nan"),
    "seed_negative": (["noiseless_linear", "--seed", "-1"],
                      "seed -1 must be >= 0"),
}


@pytest.mark.parametrize("case", sorted(BAD_FLAGS))
def test_cli_bad_rate_or_tlow_exit_1(tmp_path, capsys, case):
    argv, message = BAD_FLAGS[case]
    out = tmp_path / "o"
    assert cli_main(["run"] + argv + ["--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and message in err
    assert not out.exists()


@pytest.mark.parametrize("updates", [
    {"rate_grid": (1.0, 0.0)}, {"rate_grid": (-1.0,)},
    {"rate_grid": (float("nan"),)}, {"rate_grid": (3.0,)},
    {"t_low_s": 30.0}, {"t_low_s": 100.5}, {"t_low_s": 50.005},
    {"base_rate_hz": 0.0},
])
def test_scenario_config_rejects_bad_rates_and_tlow(updates):
    with pytest.raises(ConfigurationError):
        dataclasses.replace(scn.builtin("t61like"), **updates)


T61 = scn.builtin("t61like")


def first_predictor_with(**changes) -> dict:
    return {"predictors": (dataclasses.replace(T61.predictors[0], **changes),
                           *T61.predictors[1:])}


def phase_with(**changes) -> dict:
    """The workload, whose one phase is out of `dataclasses.replace`'s
    reach, with that phase changed."""
    phase = dataclasses.replace(T61.workload.phases[0], **changes)
    return {"workload": dataclasses.replace(T61.workload, phases=(phase,))}


def occupancy_with(**processes) -> dict:
    return phase_with(occupancy={**T61.workload.phases[0].occupancy,
                                 **processes})


def activity_chain_with(**changes) -> dict:
    return occupancy_with(act=dataclasses.replace(
        T61.workload.phases[0].occupancy["act"], **changes))


@pytest.mark.parametrize("updates", [
    {"pca_l": 0}, {"regressogram_k": 0}, {"train_windows": 0},
    {"accuracy_target": 1.0}, {"accuracy_target": -0.1},
    {"threshold": float("nan")}, {"threshold": 0.0}, {"threshold": 1.0},
    {"threshold": float("inf")},
    {"window_s": 101.0}, {"window_s": 0.0},
    {"t_low_s": 99.0},      # on the base grid, off the 2 s reading period
    {"duration_s": float("nan")}, {"duration_s": float("inf")},
    {"duration_s": 0.0005}, {"fit_method": "XYZ"}, {"fit_method": "tls"},
    {"duration_s": 50.0},   # shorter than the 100 s period of 0.01 Hz
    {"rate_grid": ()}, {"predictors": ()},
    # each passes every other check; it is off the 1 ms tick grid
    first_predictor_with(update_rate_hz=300.0),
    first_predictor_with(delay_s=0.0005),
    {"battery": dataclasses.replace(T61.battery, reading_rate_hz=3.0)},
    {"battery": dataclasses.replace(T61.battery, filter_taps=7)},
    activity_chain_with(step_s=0.0015),
    {"base_rate_hz": 300.0},
    # built under the check, as the predictor itself is refused
    pytest.param(lambda: first_predictor_with(policy="event-driven"),
                 id="event_driven_residency"),
    # the workload against the system: timing off the tick grid, a
    # negative seed and a phase naming a component the system lacks
    {"duration_s": 2999.9995}, phase_with(duration_s=2999.9995),
    occupancy_with(lcd=scn.Schedule(((400.0005, 0), (500.0, 2)))),
    {"seed": -1}, occupancy_with(lcdd=T61.workload.phases[0].occupancy["lcd"]),
    # a bin past 2**53 is not exact, and near 2**63 its cast is invalid
    pytest.param({"regressogram_k": 2**53 + 1}, id="regressogram_k_past_2_53"),
    pytest.param({"regressogram_k": 2**63}, id="regressogram_k_2_63"),
    # a count is an integer, and a bool is not one
    pytest.param({"pca_l": 1.5}, id="pca_l_fraction"),
    pytest.param({"regressogram_k": 2.5}, id="regressogram_k_fraction"),
    pytest.param({"train_windows": 2.5}, id="train_windows_fraction"),
    pytest.param({"pca_l": True}, id="pca_l_bool"),
    pytest.param({"regressogram_k": True}, id="regressogram_k_bool"),
    pytest.param({"train_windows": True}, id="train_windows_bool"),
])
def test_scenario_config_rejects_bad_pipeline_fields(updates):
    with pytest.raises(ConfigurationError):
        if callable(updates):
            updates = updates()
        dataclasses.replace(scn.builtin("t61like"), **updates)


@pytest.mark.parametrize("name", ["pca_l", "regressogram_k", "train_windows"])
def test_a_pipeline_count_must_be_an_integer(name):
    sc = scn.builtin("dvs_flip")
    for value in (2.5, 2.0, True, "2"):
        with pytest.raises(ConfigurationError, match=re.escape(
                f"ScenarioConfig.{name}: expected an integer, got {value!r}")):
            dataclasses.replace(sc, **{name: value})
    assert getattr(dataclasses.replace(sc, **{name: np.int64(3)}), name) == 3


def test_numpy_scalar_fields_run_and_replay(tmp_path):
    # a numpy seed once passed validation, wrote report.csv and then
    # failed untyped in json.dumps while writing run.json
    sc = dataclasses.replace(scn.builtin("noiseless_linear"),
                             seed=np.int64(3), pca_l=np.int64(2))
    exp.run_scenario(sc, str(tmp_path))
    assert scn.load_scenario(str(tmp_path / "run.json")) == sc


@pytest.mark.parametrize("field,value", [
    ("supply_voltage_v", float("inf")), ("supply_voltage_v", float("nan")),
    ("reading_rate_hz", float("inf")), ("noise_sigma", float("nan")),
    ("noise_sigma", float("inf")), ("counter_sigma_c", float("nan")),
    ("filter_window_s", float("nan")), ("initial_capacity_c", float("inf")),
])
def test_battery_refuses_non_finite_fields(field, value):
    # scenario files refuse these already; from the Python API an infinite
    # voltage made every reading 0 and a NaN noise sigma switched the
    # noise off, so the run either failed untyped or ran wrong
    sc = scn.builtin("noiseless_linear")
    with pytest.raises(ConfigurationError, match=field):
        exp.run_scenario(dataclasses.replace(sc, duration_s=400.0, battery=(
            dataclasses.replace(sc.battery, **{field: value}))))


def test_cli_other_sesame_errors_exit_1(monkeypatch, tmp_path, capsys):
    def fail(sc, out_dir):
        raise AlignmentError("interval: 0.3 is not an integral multiple")

    monkeypatch.setattr(cli, "run_scenario", fail)
    rc = cli_main(["run", "noiseless_linear", "--out", str(tmp_path / "o")])
    assert rc == 1
    assert "error: interval" in capsys.readouterr().err


def test_cli_export(tmp_path):
    path = tmp_path / "t61.json"
    assert cli_main(["export", "t61like", str(path)]) == 0
    assert scn.load_scenario(str(path)).name == "t61like"


@pytest.mark.parametrize("argv", [
    lambda tmp: ["export", "t61like", str(tmp / "missing" / "x.json")],
    lambda tmp: ["run", "noiseless_linear", "--rate-grid", "1",
                 "--out", str(tmp / "file" / "sub")],
], ids=["export_missing_dir", "run_out_under_a_file"])
def test_cli_unwritable_output_exit_1(tmp_path, capsys, argv):
    (tmp_path / "file").write_text("")
    assert cli_main(argv(tmp_path)) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and str(tmp_path) in err


# -- calibrated-scenario behaviors beyond the acceptance gate -------------------

def test_iterate_construction_picks_two_components_on_t61like():
    import sesame as ss

    sc = scn.builtin("t61like")
    arts = exp.simulate(sc)
    dm_low = ss.stretch(arts.design(sc.base_rate_hz), arts.readings, sc.t_low_s)
    model = ss.iterate_construction(dm_low, 0.90, method="TLS")
    assert model.l == 2
    assert not model.below_target


def redundant_pool(sc: scn.ScenarioConfig, seed: int) -> scn.ScenarioConfig:
    """`sc` with a copy of each predictor whose weights are perturbed by
    N(0, 0.05), relative: a pool of overlapping statistics."""
    rng = np.random.default_rng(seed)
    copies = tuple(dataclasses.replace(
        spec, id=f"{spec.id}_copy",
        weights={s: w * (1.0 + rng.normal(0.0, 0.05))
                 for s, w in spec.weights.items()})
        for spec in sc.predictors)
    return dataclasses.replace(sc, predictors=sc.predictors + copies)


def test_iterate_construction_picks_the_smallest_l_on_a_redundant_pool():
    # training accuracy is 0.84, 0.96, 0.97, 0.97, 0.94, 0.94, 0.77,
    # 0.96, 0.98 and 0.96 for l = 1..10: it does not rise with l, so a
    # walk down from l = n stops at l = 8, above the first l that meets
    # the 0.95 target
    sc = redundant_pool(dataclasses.replace(scn.builtin("t61like"),
                                            duration_s=1500.0), seed=1)
    arts = exp.simulate(sc)
    dm_low = stretch(arts.design(sc.base_rate_hz), arts.readings, sc.t_low_s)
    model = iterate_construction(dm_low, sc.accuracy_target)
    assert len(model.kept) == 10
    assert model.l == 2
    assert not model.below_target


def test_n85like_averaging_reproduces_error_drop():
    import sesame as ss

    sc = scn.builtin("n85like")
    arts = exp.simulate(sc)
    # the mean of each four readings, as energy per 1 s window
    down = ss.aggregate_response(arts.readings, 1.0)
    truth = arts.truth(1.0)
    m = min(len(down), len(truth))
    err1 = ss.rms_relative_error(down[:m], truth[:m])
    err4 = exp._interface_rms(arts.readings, 4.0, arts.truth(4.0))
    assert 0.30 <= err4 <= 0.36
    assert err1 == pytest.approx(0.10, abs=0.03)


def test_error_vs_rate_noiseless_is_zero():
    sc = scn.noiseless_linear(experiment=scn.ERROR_VS_RATE)
    report = exp.run_error_vs_rate(sc)
    supported = [r.rms_rel_error for r in report.rows
                 if r.rms_rel_error is not None]
    assert supported and max(supported) < 1e-9


def test_regressogram_compare_on_linear_truth_shows_no_gap():
    # same scenario shape but with power linear in the utilization level:
    # the regressogram and the linear model end up comparable, with no
    # ordering between them asserted
    import dataclasses as dc

    from sesame.tracesim import Component, ComponentStateModel

    sc = scn.builtin("quadratic_cpu")
    levels = [0.0, 0.2, 0.4, 0.6, 0.8, 1.0]
    linear_cpu = Component("cpu", tuple(2.0 + 10.0 * u for u in levels),
                           sc.system.components[0].state_names)
    system = ComponentStateModel(
        components=(linear_cpu,) + sc.system.components[1:],
        base_power_w=sc.system.base_power_w)
    sc = dc.replace(sc, system=system, rate_grid=(100.0,))
    report = exp.run_regressogram_compare(sc)
    reg = report.value(100.0, "regressogram")
    lin = report.value(100.0, "linear_molded")
    assert reg < 0.08 and lin < 0.08
    assert abs(reg - lin) < 0.05


def test_regressogram_k1_equals_mean_predictor_error():
    import dataclasses as dc

    import sesame as ss

    sc = dc.replace(scn.builtin("quadratic_cpu"), regressogram_k=1,
                    rate_grid=(1.0,))
    report = exp.run_regressogram_compare(sc)
    arts = exp.simulate(sc)
    truth = arts.truth(1.0)
    mean_err = ss.rms_relative_error(np.full(len(truth), truth.mean()), truth)
    assert report.value(1.0, "regressogram") == pytest.approx(mean_err, rel=1e-9)


def test_regressogram_row_is_the_fit_in_sample_error(monkeypatch):
    # each rate's rows are binned once, by the fit, and the row equals the
    # predict path on those same rows
    import sesame.constructor as con

    calls = {"bin": 0, "predict": 0}
    fits = []
    bin_rows, predict = con._bin_rows, con.predict_regressogram_rows

    def counted_bins(*args, **kwargs):
        calls["bin"] += 1
        return bin_rows(*args, **kwargs)

    def counted_predict(*args, **kwargs):
        calls["predict"] += 1
        return predict(*args, **kwargs)

    def recorded_fit(x, y, **kwargs):
        fits.append((x, y, fit_regressogram(x, y, **kwargs)))
        return fits[-1][2]

    monkeypatch.setattr(con, "_bin_rows", counted_bins)
    monkeypatch.setattr(con, "predict_regressogram_rows", counted_predict)
    monkeypatch.setattr(exp, "fit_regressogram", recorded_fit)
    sc = dataclasses.replace(scn.builtin("quadratic_cpu"), duration_s=600.0)
    report = exp.run_regressogram_compare(sc)
    assert calls == {"bin": len(sc.rate_grid), "predict": 0}
    assert len(fits) == len(sc.rate_grid)
    for rate, (x, y, model) in zip(sc.rate_grid, fits):
        want = ss.rms_relative_error(predict(model, x), y)
        assert report.value(rate, "regressogram") == want


def small_design() -> DesignMatrix:
    rng = np.random.default_rng(5)
    x = rng.uniform(0.0, 1.0, size=(20, 2))
    return DesignMatrix(interval_s=40.0, columns=("a", "b"),
                        kinds=("residency", "residency"), x=x,
                        t_start_s=np.arange(20) * 40.0,
                        y=1.0 + x @ np.array([2.0, 3.0]))


def monitored_table(dm: DesignMatrix) -> ModelTable:
    """A table whose active model is fitted on `dm`, with windows of its
    interval."""
    table = ModelTable(window_s=dm.interval_s)
    install_model(table, ConfigurationKey.canonical([("c", "n", 1)]),
                  TrainingSet(dm).fit("OLS"))
    return table


X4, Y4 = np.ones((4, 1)), np.ones(4)
ONE_STATE = ss.Trace(ss.ComponentStateModel((ss.Component("c", (1.0,)),)),
                     0.001, 1000, [(np.zeros(1, dtype=np.int64),
                                    np.zeros(1, dtype=np.int16))])
GAUGE = ss.BatteryInterfaceModel(kind="instant", reading_rate_hz=1.0)
# each call raises a SesameError that is also the error named with it,
# a built-in one where there is one
BAD_LIBRARY_CALLS = {
    "rates_interval": (ValueError, lambda dm, path: TrainingSet(dm).fit(
        "OLS").predict_rows(dm.x, 0.0)),
    "rates_interval_nan": (ValueError, lambda dm, path: TrainingSet(dm).fit(
        "OLS").predict_rows(dm.x, float("nan"))),
    "rates_interval_inf": (ValueError, lambda dm, path: TrainingSet(dm).fit(
        "OLS").predict_rows(dm.x, float("inf"))),
    "monitor_observed_nan": (ValueError, lambda dm, path: monitor(
        monitored_table(dm), 40.0, dm.x[0], float("nan"))),
    "monitor_row_nan": (ValueError, lambda dm, path: monitor(
        monitored_table(dm), 40.0, np.array([np.nan, 0.5]), 1.0)),
    "rebuild_error_nan": (ValueError, lambda dm, path: maybe_rebuild(
        monitored_table(dm), 40.0, float("nan"), True)),
    "stretch_t_low_range": (ValueError, lambda dm, path: stretch(
        dm, None, 200.0)),
    "stretch_t_low_multiple": (ValueError, lambda dm, path: stretch(
        dm, None, 60.0)),
    "fit_l": (ValueError, lambda dm, path: TrainingSet(dm).fit("OLS", l=3)),
    "accuracy_target": (ValueError, lambda dm, path: iterate_construction(
        dm, 1.0)),
    "regressogram_predictor": (ValueError, lambda dm, path: fit_regressogram(
        np.full((4, 1), np.nan), Y4)),
    "regressogram_response": (ValueError, lambda dm, path: fit_regressogram(
        X4, np.full(4, np.inf))),
    "regressogram_empty": (ValueError, lambda dm, path: fit_regressogram(
        np.empty((0, 1)), np.empty(0))),
    "regressogram_k": (ValueError, lambda dm, path: fit_regressogram(
        X4, Y4, k=0)),
    "regressogram_k_past_2_53": (ValueError, lambda dm, path: fit_regressogram(
        X4, Y4, k=2**53 + 1)),
    "regressogram_k_2_64": (ValueError, lambda dm, path: fit_regressogram(
        X4, Y4, k=2**64)),
    "regressogram_k_fraction": (ValueError, lambda dm, path: fit_regressogram(
        X4, Y4, k=2.5)),
    "regressogram_k_bool": (ValueError, lambda dm, path: fit_regressogram(
        X4, Y4, k=True)),
    "regressogram_shape": (ValueError, lambda dm, path: fit_regressogram(
        X4, Y4[:3])),
    "table_threshold": (ValueError, lambda dm, path: persist(
        ModelTable(threshold=1.5), path)),
    "table_window": (ValueError, lambda dm, path: persist(
        ModelTable(window_s=float("inf")), path)),
    "table_active_key": (ValueError, lambda dm, path: persist(
        ModelTable(active_key=ConfigurationKey.canonical([("c", "n", 1)])),
        path)),
    "report_row": (KeyError, lambda dm, path: exp.ErrorReport("s", 0).value(
        1.0, exp.ORACLE_ESTIMATOR)),
    "sample_seed_bool": (ConfigurationError, lambda dm, path:
                         ss.sample_interface(ONE_STATE, GAUGE, seed=True)),
    "sample_seed_fraction": (ConfigurationError, lambda dm, path:
                             ss.sample_interface(ONE_STATE, GAUGE, seed=1.5)),
    "sample_seed_negative": (ConfigurationError, lambda dm, path:
                             ss.sample_interface(ONE_STATE, GAUGE, seed=-1)),
    # a field of the wrong kind, refused by the documents' reader
    "battery_rate_bool": (ConfigurationError, lambda dm, path:
                          ss.BatteryInterfaceModel(kind="instant",
                                                   reading_rate_hz=True)),
    "battery_taps_fraction": (ConfigurationError, lambda dm, path:
                              dataclasses.replace(T61.battery,
                                                  filter_taps=2.5)),
    "battery_voltage_string": (ConfigurationError, lambda dm, path:
                               dataclasses.replace(GAUGE,
                                                   supply_voltage_v="12")),
    "markov_initial_fraction": (ConfigurationError, lambda dm, path:
                                ss.MarkovChain(((1.0,),), initial_state=1.5)),
    "schedule_state_fraction": (ConfigurationError, lambda dm, path:
                                ss.Schedule(((1.0, 1.5),))),
    "component_name_number": (ConfigurationError, lambda dm, path:
                              ss.Component(name=3, state_powers=(1.0,))),
    "predictor_weight_key_string": (ConfigurationError, lambda dm, path:
                                    ss.PredictorSpec("p", "c", "residency",
                                                     {"0": 1.0})),
}


@pytest.mark.parametrize("name", sorted(BAD_LIBRARY_CALLS))
def test_bad_library_calls_raise_typed_errors(name, tmp_path):
    builtin, call = BAD_LIBRARY_CALLS[name]
    with pytest.raises(SesameError) as info:
        call(small_design(), str(tmp_path / "table.json"))
    assert isinstance(info.value, builtin)
