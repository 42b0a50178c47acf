import dataclasses
import json
import re

import numpy as np
import pytest

import sesame as ss
import sesame.scenarios as scn
from reference import fixed, residency_predictors
from sesame.collector import DesignMatrix
from sesame.errors import ArgumentError, ConfigurationError, ParseError
from sesame.experiments import run_adaptation
from sesame.manager import install_model, table_equals


def make_model(seed=0, coef=2.0):
    rng = np.random.default_rng(seed)
    x = rng.normal(0.5, 0.2, size=(30, 1))
    y = 100.0 + coef * x[:, 0]
    dm = DesignMatrix(interval_s=100.0, columns=("cpu_busy",),
                      kinds=("residency",), x=x,
                      t_start_s=np.arange(30) * 100.0, y=y)
    return ss.build_model(dm, method="OLS", use_pca=False)


def key_of(**settings):
    triples = [("hardware", "machine", "boxy"),
               ("user", "brightness", "2")]
    triples += [("software", k, v) for k, v in settings.items()]
    return ss.ConfigurationKey.canonical(triples)


def test_lookup_insert_and_cold_start():
    table = ss.ModelTable()
    key = key_of(dvs="off")
    assert ss.lookup_or_create(table, key) is None   # cold start
    model = make_model()
    install_model(table, key, model)
    assert ss.lookup_or_create(table, key) is model
    assert table.active_key == key


def test_lookup_miss_after_config_flip():
    table = ss.ModelTable()
    install_model(table, key_of(dvs="off"), make_model())
    assert ss.lookup_or_create(table, key_of(dvs="on")) is None
    assert table.active_key == key_of(dvs="on")


def test_key_canonicalization_ignores_order():
    a = ss.ConfigurationKey.canonical(
        [("software", "dvs", "on"), ("hardware", "machine", "boxy")])
    b = ss.ConfigurationKey.canonical(
        [("hardware", "machine", "boxy"), ("software", "dvs", "on")])
    assert a == b
    table = ss.ModelTable()
    install_model(table, a, make_model())
    assert ss.lookup_or_create(table, b) is not None


def test_monitor_relative_error_arithmetic():
    # constant 1 W system, noiseless 1 Hz interface: each 100 s window holds
    # 100 J; a model biased to 110 J per window must monitor as 0.10
    sys_model = ss.ComponentStateModel(
        components=(ss.Component("box", (1.0,)),), base_power_w=0.0)
    wl = ss.WorkloadSpec(
        phases=(ss.Phase("p", 500.0, {"box": fixed(0)}),))
    trace = ss.gen_trace(sys_model, wl, 500.0, 0.01, 0)
    battery = ss.BatteryInterfaceModel(kind="instant", reading_rate_hz=1.0,
                                       supply_voltage_v=5.0)
    readings = ss.sample_interface(trace, battery, seed=0)
    biased = ss.EnergyModel(
        beta=np.array([110.0, 0.0]), columns=("dummy",),
        training_interval_s=100.0, fit_method="OLS", training_error=0.0,
        l=None, kept=("dummy",), dropped=(), below_target=False,
        active_columns=("dummy",))
    table = ss.ModelTable(window_s=100.0)
    key = key_of(dvs="off")
    install_model(table, key, biased)
    ss.lookup_or_create(table, key)
    observed = ss.aggregate_response(readings, 100.0)
    assert len(observed) == 5
    errors = [ss.monitor(table, (w + 1) * 100.0, np.array([0.5]), observed[w])
              for w in range(5)]
    assert np.allclose(errors, 0.10)
    assert table.decision_log[-1] == "500,0.1,0.1,monitor"
    # a window without interface energy is logged and scores nothing
    assert ss.monitor(table, 600.0, np.array([0.5]), 0.0) is None
    assert table.decision_log[-1] == "600,,0.1,skip-window"


def test_monitor_scores_a_window_under_one_joule():
    # only a non-positive energy skips a window; 0.5 J is scored
    model = ss.EnergyModel(
        beta=np.array([0.55, 0.0]), columns=("dummy",),
        training_interval_s=100.0, fit_method="OLS", training_error=0.0,
        l=None, kept=("dummy",), dropped=(), below_target=False,
        active_columns=("dummy",))
    table = ss.ModelTable(window_s=100.0)
    key = key_of(dvs="off")
    install_model(table, key, model)
    ss.lookup_or_create(table, key)
    err = ss.monitor(table, 100.0, np.array([0.5]), 0.5)
    assert np.isclose(err, 0.10)
    assert table.decision_log[-1].endswith(",monitor")


def test_monitor_without_an_active_model_is_an_argument_error():
    # no file is read, so this is a bad call, not a parse failure
    table = ss.ModelTable()
    with pytest.raises(ArgumentError, match="no active model"):
        ss.monitor(table, 100.0, np.array([0.5]), 1.0)
    ss.lookup_or_create(table, key_of(dvs="off"))      # a cold-start key
    with pytest.raises(ArgumentError, match="no active model"):
        ss.monitor(table, 100.0, np.array([0.5]), 1.0)


def test_monitor_against_interface_stream():
    model_sys = ss.ComponentStateModel(
        components=(ss.Component("cpu", (1.0, 9.0)),), base_power_w=3.0)
    wl = ss.WorkloadSpec(phases=(ss.Phase("p", 1500.0, {
        "cpu": ss.MarkovChain(((0.95, 0.05), (0.05, 0.95)), step_s=0.1)}),))
    trace = ss.gen_trace(model_sys, wl, 1500.0, 0.01, 9)
    specs = residency_predictors(model_sys, update_rate_hz=100.0)
    battery = ss.BatteryInterfaceModel(kind="instant", reading_rate_hz=1.0,
                                       supply_voltage_v=10.0)
    readings = ss.sample_interface(trace, battery, seed=0)
    low = ss.stretch(ss.collect(trace, specs, 1.0), readings, 100.0)
    fitted = ss.build_model(low)

    table = ss.ModelTable(window_s=100.0)
    key = key_of(dvs="off")
    install_model(table, key, fitted)
    ss.lookup_or_create(table, key)
    dm = ss.collect(trace, specs, 0.01)
    observed = ss.aggregate_response(readings, 100.0)
    errors = [ss.monitor(table, t + 100.0, x, y)
              for t, x, y in zip(dm.t_start_s, dm.x, observed)]
    assert len(errors) == 15
    assert max(errors) < 1e-6       # noiseless interface, exact linear system
    assert sum(line.endswith(",monitor") for line in table.decision_log) == 15


def test_maybe_rebuild_threshold_logic():
    table = ss.ModelTable(threshold=0.10)
    key = key_of(dvs="off")
    model = make_model(coef=2.0)
    install_model(table, key, model)
    ss.lookup_or_create(table, key)
    assert not ss.maybe_rebuild(table, 100.0, 0.09, True)
    # strict inequality: equal to the threshold does not trigger
    assert not ss.maybe_rebuild(table, 200.0, 0.10, True)
    assert ss.maybe_rebuild(table, 300.0, 0.17, True)
    assert ss.maybe_rebuild(table, 400.0, 0.20, True)
    # without a construction dataset left in the run, nothing is rebuilt
    assert not ss.maybe_rebuild(table, 500.0, 0.20, False)
    assert not ss.maybe_rebuild(table, 600.0, 0.09, False)
    # the decision installs nothing: the caller collects, then installs
    assert table.models == {key: model}
    assert table.decision_log[1:] == ["300,0.17,0.1,rebuild",
                                      "400,0.2,0.1,rebuild",
                                      "500,0.2,0.1,over-threshold-no-data"]


def test_rebuild_installs_below_target_flagged():
    table = ss.ModelTable(threshold=0.10)
    key = key_of(dvs="off")
    install_model(table, key, make_model())
    weak = make_model(seed=2)
    weak.below_target = True
    install_model(table, key, weak, 1900.0)
    assert table.models[key] is weak
    assert table.decision_log[-1] == "1900,,0.1,install-below-target"


def test_rebuild_never_touches_other_keys():
    table = ss.ModelTable(threshold=0.10)
    other_key = key_of(dvs="on")
    other_model = make_model(seed=3)
    install_model(table, other_key, other_model)
    key = key_of(dvs="off")
    install_model(table, key, make_model())
    ss.lookup_or_create(table, key)
    rebuilt = make_model(seed=4)
    install_model(table, key, rebuilt, 1900.0)
    assert table.models == {other_key: other_model, key: rebuilt}
    assert table.active_key == key


def test_persist_round_trip_empty(tmp_path):
    table = ss.ModelTable()
    path = tmp_path / "table.json"
    ss.persist(table, str(path))
    assert table_equals(ss.load(str(path)), table)


def test_persist_round_trip_three_models(tmp_path):
    table = ss.ModelTable(threshold=0.08, window_s=50.0)
    for i, dvs in enumerate(("off", "on", "auto")):
        install_model(table, key_of(dvs=dvs), make_model(seed=i, coef=1.0 + i))
    ss.lookup_or_create(table, key_of(dvs="on"))
    ss.monitor(table, 100.0, np.array([0.5]), 101.0)
    assert len(table.decision_log) == 4
    path = tmp_path / "table.json"
    ss.persist(table, str(path))
    assert table_equals(ss.load(str(path)), table)



def reject_constant(name):
    raise ValueError(f"non-standard JSON constant {name}")


def test_persist_writes_strict_json(tmp_path):
    table = ss.ModelTable()
    key = key_of(dvs="off")
    install_model(table, key, make_model())
    path = tmp_path / "table.json"
    ss.persist(table, str(path))
    json.loads(path.read_text(), parse_constant=reject_constant)
    assert table_equals(ss.load(str(path)), table)
    table.models[key].training_error = float("nan")
    with pytest.raises(ValueError):
        ss.persist(table, str(tmp_path / "nan.json"))
    assert not (tmp_path / "nan.json").exists()


@pytest.mark.parametrize("b0", [float("nan"), float("inf")])
def test_persist_refuses_a_non_finite_coefficient(tmp_path, b0):
    table = ss.ModelTable()
    install_model(table, key_of(dvs="off"),
                  dataclasses.replace(make_model(), beta=np.array([b0, 1.0])))
    path = tmp_path / "table.json"
    with pytest.raises(ArgumentError, match="Out of range float"):
        ss.persist(table, str(path))
    assert not path.exists()


@pytest.mark.parametrize("key, value", [
    ("history", [[100.0, 0.05]]), ("skipped_windows", 2),
    ("cooldown_until_s", None), ("cooldown_until_s", float("-inf")),
], ids=["history", "skipped_windows", "cooldown_null", "cooldown_minus_infinity"])
def test_load_refuses_the_keys_of_older_files(tmp_path, key, value):
    # older files carried the monitor history and a cool-down, spelled
    # -Infinity or null; no current table has them
    table = ss.ModelTable()
    install_model(table, key_of(dvs="off"), make_model())
    path = tmp_path / "table.json"
    ss.persist(table, str(path))
    doc = json.loads(path.read_text())
    doc[key] = value
    path.write_text(json.dumps(doc))
    with pytest.raises(ParseError, match=f"^table: unknown key '{key}'$"):
        ss.load(str(path))


def test_load_rejects_an_active_key_without_a_model(tmp_path):
    path = tmp_path / "table.json"
    ss.persist(ss.ModelTable(), str(path))
    doc = json.loads(path.read_text())
    doc["active_key"] = [["a", "b", "c"]]
    assert doc["models"] == []
    path.write_text(json.dumps(doc))
    with pytest.raises(ParseError, match="not among"):
        ss.load(str(path))


def test_load_refuses_a_duplicated_entry(tmp_path):
    table = run_adaptation(scn.builtin("dvs_flip")).table
    path = tmp_path / "table.json"
    ss.persist(table, str(path))
    doc = json.loads(path.read_text())
    doc["models"].append(doc["models"][0])
    path.write_text(json.dumps(doc))
    n = len(doc["models"]) - 1
    with pytest.raises(ParseError,
                       match=re.escape(f"table.models[{n}]: key ")):
        ss.load(str(path))


def test_persist_refuses_an_active_key_without_a_model(tmp_path):
    table = ss.ModelTable()
    install_model(table, key_of(dvs="off"), make_model())
    assert ss.lookup_or_create(table, key_of(dvs="on")) is None   # cold start
    path = tmp_path / "table.json"
    with pytest.raises(ValueError, match="no model"):
        ss.persist(table, str(path))
    assert not path.exists()


@pytest.mark.parametrize("field, value", [
    ("threshold", float("nan")), ("threshold", 0.0), ("threshold", 1.5),
    ("window_s", 0.0), ("window_s", -1.0), ("window_s", float("inf")),
])
def test_load_and_persist_refuse_bad_settings(tmp_path, field, value):
    path = tmp_path / "table.json"
    ss.persist(ss.ModelTable(), str(path))
    doc = json.loads(path.read_text())
    doc[field] = value
    path.write_text(json.dumps(doc))          # NaN and Infinity as json reads them
    # the typed reading refuses a non-finite number before the range check
    message = "must be" if np.isfinite(value) else "expected a finite number"
    with pytest.raises(ParseError, match=message):
        ss.load(str(path))
    table = ss.ModelTable(**{field: value})
    with pytest.raises(ValueError, match="must be"):
        ss.persist(table, str(tmp_path / "bad.json"))
    assert not (tmp_path / "bad.json").exists()


def set_key(key, value):
    return lambda doc: doc.update({key: value})


BAD_TABLE_DOCUMENTS = {
    "threshold_string": (set_key("threshold", "0.1"),
                         "table.threshold: expected a number"),
    "window_bool": (set_key("window_s", True), "table.window_s: expected a number"),
    "log_not_strings": (set_key("decision_log", [1, None]),
                        "table.decision_log[0]: expected a string"),
    "key_two_items": (
        lambda doc: doc["models"][0].update(key=[["a", "b"]]),
        "table.models[0].key[0]: expected 3 items, got 2"),
    "active_key_number": (set_key("active_key", 7),
                          "table.active_key: expected a list"),
    "models_object": (set_key("models", {}), "table.models: expected a list"),
    "entry_extra_key": (lambda doc: doc["models"][0].update(note="x"),
                        "table.models[0]: unknown key 'note'"),
    "model_string": (lambda doc: doc["models"][0].update(model="m"),
                     "table.models[0].model: expected an object"),
    "model_missing_key": (lambda doc: doc["models"][0]["model"].pop("l"),
                          "table.models[0].model: missing key 'l'"),
    "unknown_key": (set_key("cooldown_s", 0.0), "table: unknown key 'cooldown_s'"),
    "missing_key": (lambda doc: doc.pop("decision_log"),
                    "table: missing key 'decision_log'"),
    "document_empty": (lambda doc: doc.clear(), "table: missing key"),
}


@pytest.mark.parametrize("case", sorted(BAD_TABLE_DOCUMENTS))
def test_load_reads_each_key_by_its_type(tmp_path, case):
    edit, message = BAD_TABLE_DOCUMENTS[case]
    table = ss.ModelTable()
    install_model(table, key_of(dvs="off"), make_model())
    path = tmp_path / "table.json"
    ss.persist(table, str(path))
    doc = json.loads(path.read_text())
    edit(doc)
    path.write_text(json.dumps(doc))
    with pytest.raises(ParseError, match=re.escape(message)):
        ss.load(str(path))


def test_load_unreadable_files_raise_typed_errors(tmp_path):
    path = tmp_path / "table.json"
    path.write_bytes(b"\xff\xfe")
    with pytest.raises(ParseError, match="not UTF-8"):
        ss.load(str(path))
    path.write_bytes(b"[" * 200_000)
    with pytest.raises(ParseError, match="nests too deeply"):
        ss.load(str(path))
    with pytest.raises(ConfigurationError, match="cannot read model table"):
        ss.load(str(tmp_path / "missing.json"))


def test_persist_truncated_file_raises(tmp_path):
    table = ss.ModelTable()
    install_model(table, key_of(dvs="off"), make_model())
    path = tmp_path / "table.json"
    ss.persist(table, str(path))
    content = path.read_text()
    path.write_text(content[: len(content) // 2])
    with pytest.raises(ParseError):
        ss.load(str(path))
