"""Scenario files and model documents are read against the dataclasses'
fields and type hints: wrong JSON types, non-finite numbers, unknown keys
and inconsistent models fail typed and name the key path, absent optional
keys take the dataclass defaults, and the keys of earlier versions'
documents are unknown keys. A scenario built in Python is held to the same
rules, field by field, and a saved scenario loads back equal."""

import collections.abc
import copy
import dataclasses
import typing

import numpy as np
import pytest

import sesame.scenarios as scn
from sesame.constructor import EnergyModel
from sesame.errors import AlignmentError, ConfigurationError, ParseError
from sesame.errors import SchemaError, from_document, to_document

DELETE = object()


def edited(doc: dict, path: tuple, value) -> dict:
    """A deep copy of `doc` with the node at `path` replaced by `value`,
    or removed when `value` is DELETE."""
    doc = copy.deepcopy(doc)
    node = doc
    for key in path[:-1]:
        node = node[key]
    if value is DELETE:
        del node[path[-1]]
    else:
        node[path[-1]] = value
    return doc


T61 = to_document(scn.builtin("t61like"))
ACT = ("workload", "phases", 0, "occupancy", "act")

BAD_SCENARIOS = {
    "l_fraction": (("pipeline", "pca_l"), 2.7, ParseError,
                   "scenario.pipeline.pca_l: expected an integer"),
    "seed_bool": (("seed",), True, ParseError, "scenario.seed"),
    "duration_string": (("duration_s",), "3000", ParseError,
                        "scenario.duration_s: expected a number"),
    "duration_nan": (("duration_s",), float("nan"), ParseError,
                     "expected a finite number"),
    "misspelt_key": (("pipeline", "fit_methd"), "OLS", ParseError,
                     "scenario.pipeline: unknown key 'fit_methd'"),
    "unknown_fit_method": (("pipeline", "fit_method"), "XYZ",
                           ConfigurationError, "fit method 'XYZ'"),
    "occupancy_list": (ACT[:-1], [], ParseError,
                       "phases[0].occupancy: expected an object"),
    "process_list": (ACT, [0.5], ParseError, "occupancy.act: expected an object"),
    "process_type": (ACT + ("type",), "poisson", ParseError,
                     "occupancy.act.type: expected one of"),
    "weights_list": (("predictors", 0, "weights"), [1.0], ParseError,
                     "scenario.predictors[0].weights: expected an object"),
    "weights_key": (("predictors", 0, "weights", "busy"), 1.0, ParseError,
                    "key 'busy' is not an integer"),
    # a key names its state as a plain decimal, as it is written back
    "weights_key_underscore": (("predictors", 0, "weights", "0_1"), 1.0,
                               ParseError, "scenario.predictors[0].weights: "
                               "key '0_1' is not an integer"),
    "weights_key_space": (("predictors", 0, "weights", " 1"), 1.0,
                          ParseError, "scenario.predictors[0].weights: "
                          "key ' 1' is not an integer"),
    "weights_key_plus": (("predictors", 0, "weights", "+1"), 1.0,
                         ParseError, "scenario.predictors[0].weights: "
                         "key '+1' is not an integer"),
    "weights_key_zero": (("predictors", 0, "weights", "01"), 1.0,
                         ParseError, "scenario.predictors[0].weights: "
                         "key '01' is not an integer"),
    "pipeline_list": (("pipeline",), [], ParseError,
                      "scenario.pipeline: expected an object"),
    "noise_nan": (("battery", "noise_sigma"), float("nan"), ParseError,
                  "scenario.battery.noise_sigma: expected a finite number"),
    "state_power_nan": (("system", "components", 0, "state_powers", 0),
                        float("nan"), ParseError,
                        "scenario.system.components[0].state_powers[0]"),
    "taps_float": (("battery", "filter_taps"), 10.0, ParseError,
                   "scenario.battery.filter_taps: expected an integer"),
    "triple_short": (("config_triples", 0), ["hardware", "machine"],
                     ParseError, "expected 3 items, got 2"),
    "workload_seed": (("workload", "seed"), 61, ParseError,
                      "scenario.workload: unknown key 'seed'"),
    "battery_missing": (("battery",), DELETE, ParseError,
                        "scenario: missing key 'battery'"),
    "predictor_id_twice": (("predictors", 1, "id"), "cpu_busy",
                           ConfigurationError, "duplicate predictor ids"),
    "predictor_component": (("predictors", 0, "component"), "gpu",
                            ConfigurationError, "unknown component 'gpu'"),
    "weight_state_range": (("predictors", 0, "weights", "9"), 1.0,
                           ConfigurationError, "cpu_busy: state 9 out of range"),
    # removed features: an earlier export's keys are unknown keys, also
    # at the 0 that earlier exports wrote
    "removed_quantization": (("battery", "quantization"), 0.01, ParseError,
                             "scenario.battery: unknown key 'quantization'"),
    "removed_quantization_0": (("battery", "quantization"), 0.0, ParseError,
                               "scenario.battery: unknown key 'quantization'"),
    "removed_internal_rate": (("battery", "internal_rate_hz"), 10.0,
                              ParseError,
                              "scenario.battery: unknown key 'internal_rate_hz'"),
    "removed_internal_rate_0": (("battery", "internal_rate_hz"), 0.0,
                                ParseError, "scenario.battery: unknown key "
                                            "'internal_rate_hz'"),
    "removed_overhead": (("pipeline", "collection_overhead_w"), 0.25,
                         ParseError, "scenario.pipeline: unknown key "
                                     "'collection_overhead_w'"),
    "removed_overhead_0": (("pipeline", "collection_overhead_w"), 0.0,
                           ParseError, "scenario.pipeline: unknown key "
                                       "'collection_overhead_w'"),
    "removed_predictor_name": (("predictors", 0, "name"), "", ParseError,
                               "scenario.predictors[0]: unknown key 'name'"),
    "removed_fixed": (ACT, {"type": "fixed", "state": 0}, ParseError,
                      "occupancy.act.type: expected one of"),
    "removed_duty": (ACT, {"type": "duty", "period_s": 1.0,
                           "fraction_hi": 0.5, "state_hi": 1, "state_lo": 0},
                     ParseError, "occupancy.act.type: expected one of"),
    "seed_negative": (("seed",), -3, ConfigurationError,
                      "seed -3 must be >= 0"),
    # a phase names exactly the system's components
    "occupancy_unknown_component": (
        ACT[:-1] + ("lcdd",), T61["workload"]["phases"][0]["occupancy"]["lcd"],
        ConfigurationError,
        "phase steady: occupancy and system components differ in ['lcdd']"),
    "occupancy_missing_component": (
        ACT, DELETE, ConfigurationError,
        "phase steady: occupancy and system components differ in ['act']"),
    # the trace's timing is whole ticks
    "duration_off_grid": (("duration_s",), 3000.0005, AlignmentError,
                          "duration: 3000.0005 is not an integral multiple"),
    "phase_off_grid": (("workload", "phases", 0, "duration_s"), 2999.9995,
                       AlignmentError, "phase steady duration: 2999.9995"),
    "schedule_step_off_grid": (ACT[:-1] + ("lcd", "steps", 0, 0), 400.0005,
                               AlignmentError,
                               "phase steady lcd schedule step: 400.0005"),
    "schedule_state_range": (ACT[:-1] + ("lcd", "steps", 0, 1), 3,
                             ConfigurationError,
                             "phase steady lcd: state 3 out of range"),
    "markov_size": (ACT[:-1] + ("bridge", "transition"), [[1.0]],
                    ConfigurationError,
                    "phase steady bridge: Markov matrix for 1 states, not 2"),
}


@pytest.mark.parametrize("case", sorted(BAD_SCENARIOS))
def test_malformed_scenario_document_fails_typed(case):
    path, value, error, message = BAD_SCENARIOS[case]
    with pytest.raises(error) as info:
        from_document(scn.ScenarioConfig, edited(T61, path, value), "scenario")
    assert message in str(info.value)


MODEL = {
    "beta": [5.0, 1.0, 0.5], "columns": ["cpu", "disk"],
    "training_interval_s": 100.0,
    "fit_method": "TLS", "training_error": 0.01, "l": None,
    "kept": ["cpu", "disk"], "dropped": [], "below_target": False,
    "active_columns": ["cpu", "disk"],
}

BAD_MODELS = {
    "columns_string": ("columns", "ab", ParseError, "model.columns"),
    "below_target_string": ("below_target", "no", ParseError,
                            "model.below_target: expected true or false"),
    "beta_nan": ("beta", [5.0, float("nan"), 0.5], ParseError,
                 "model.beta[1]"),
    "l_bool": ("l", True, ParseError, "model.l: expected an integer"),
    "kept_absent": ("kept", ["cpu", "gpu"], SchemaError, "'gpu'"),
    "dropped_absent": ("dropped", ["gpu"], SchemaError, "'gpu'"),
    "active_absent": ("active_columns", ["gpu"], SchemaError, "'gpu'"),
    "interval_negative": ("training_interval_s", -1.0, SchemaError,
                          "training interval"),
    "interval_zero": ("training_interval_s", 0, SchemaError,
                      "training interval"),
    "unknown_key": ("basis", [], ParseError, "model: unknown key 'basis'"),
    # keys of earlier model documents
    "earlier_kinds": ("kinds", ["residency", "residency"], ParseError,
                      "model: unknown key 'kinds'"),
    "earlier_pca": ("pca", {"rows": [[1.0, 0.0], [0.0, 1.0]]}, ParseError,
                    "model: unknown key 'pca'"),
    "earlier_column_means": ("column_means", [0.4, 0.2], ParseError,
                             "model: unknown key 'column_means'"),
    "l_missing": ("l", DELETE, ParseError, "model: missing key 'l'"),
    # kept and dropped partition the columns, kept in column order
    "columns_repeated": ("columns", ["cpu", "cpu"], SchemaError,
                         "model repeats columns ['cpu']"),
    "kept_repeated": ("kept", ["cpu", "cpu"], SchemaError, "first at 'cpu'"),
    "kept_out_of_order": ("kept", ["disk", "cpu"], SchemaError,
                          "first at 'disk'"),
    "kept_also_dropped": ("dropped", ["disk"], SchemaError, "first at 'disk'"),
    "kept_short": ("kept", ["cpu"], SchemaError, "first at 'disk'"),
    # the active columns are distinct kept columns, in column order
    "active_dropped": ("active_columns", ["disk"], SchemaError,
                       "active columns ['disk'] are not distinct kept "
                       "columns in column order: first at 'disk'",
                       dict(MODEL, beta=[5.0, 1.0], kept=["cpu"],
                            dropped=["disk"], active_columns=["cpu"])),
    "active_repeated": ("active_columns", ["disk", "disk"], SchemaError,
                        "first at 'disk'"),
    "active_order": ("active_columns", ["disk", "cpu"], SchemaError,
                     "first at 'cpu'"),
}


def read_model(doc) -> EnergyModel:
    return from_document(EnergyModel, doc, "model")


@pytest.mark.parametrize("case", sorted(BAD_MODELS))
def test_malformed_model_document_fails_typed(case):
    key, value, error, message, *base = BAD_MODELS[case]
    with pytest.raises(error) as info:
        read_model(edited(base[0] if base else MODEL, (key,), value))
    assert message in str(info.value)


def test_model_document_reads_json_types_exactly():
    model = read_model(MODEL)
    assert model.columns == ("cpu", "disk") and model.l is None
    assert read_model(dict(MODEL, training_interval_s=100)) == model


def test_minimal_scenario_document_takes_every_default():
    doc = {
        "name": "minimal", "experiment": "molding", "seed": 3,
        "duration_s": 600,
        "system": {"components": [{"name": "cpu",
                                   "state_powers": [1, 4]}]},
        "workload": {"phases": [{"name": "only", "duration_s": 600,
                                 "occupancy": {"cpu": {
                                     "type": "markov",
                                     "transition": [[0.9, 0.1],
                                                    [0.2, 0.8]]}}}]},
        "predictors": [{"id": "busy", "component": "cpu",
                        "kind": "residency", "weights": {"1": 1}}],
        "battery": {"kind": "instant", "reading_rate_hz": 1},
    }
    sc = from_document(scn.ScenarioConfig, doc, "scenario")
    assert sc.seed == 3 and sc.duration_s == 600.0
    chain = sc.workload.phases[0].occupancy["cpu"]
    assert sc.predictors[0].weights == {1: 1.0}
    for obj in (sc, sc.system, sc.system.components[0], chain,
                sc.predictors[0], sc.battery):
        for f in dataclasses.fields(obj):
            if f.default is not dataclasses.MISSING:
                assert getattr(obj, f.name) == f.default, f.name


def test_model_equality_covers_every_field():
    model = read_model(MODEL)
    assert model == read_model(copy.deepcopy(MODEL))
    for key, value in (("beta", [5.0, 1.0, 0.25]), ("training_error", 0.02),
                       ("l", 1), ("below_target", True),
                       ("active_columns", ["cpu"])):
        assert model != read_model(dict(MODEL, **{key: value})), key
    assert model != dataclasses.replace(model, fit_method="OLS")


def hint_classes(hint, found: dict) -> dict:
    """Each dataclass that `hint` reaches, mapped to its type hints."""
    if dataclasses.is_dataclass(hint):
        if hint not in found:
            found[hint] = typing.get_type_hints(hint)
            for field_hint in found[hint].values():
                hint_classes(field_hint, found)
    for arg in typing.get_args(hint):
        hint_classes(arg, found)
    return found


def first_instances(obj, found: dict) -> dict:
    """The first instance of each dataclass in `obj`, `obj` included."""
    if dataclasses.is_dataclass(obj):
        found.setdefault(type(obj), obj)
        children = [getattr(obj, f.name) for f in dataclasses.fields(obj)]
    elif isinstance(obj, dict):
        children = obj.values()
    else:
        children = obj if isinstance(obj, tuple) else ()
    for child in children:
        first_instances(child, found)
    return found


SCENARIO_HINTS = hint_classes(scn.ScenarioConfig, {})
BUILT_INSTANCES = {}
for _name in scn.BUILTIN_SCENARIOS:
    first_instances(scn.builtin(_name), BUILT_INSTANCES)


def wrong_kinds(hint, value) -> list:
    """Values of a field of type `hint`, now `value`, each with a wrong
    kind at one place: a bool for an int or a float, 1.5 for an int, a
    string for a number and a number for a string or a dataclass."""
    origin, args = typing.get_origin(hint), typing.get_args(hint)
    if hint in (int, float, str):
        return {int: [True, 1.5, "1"], float: [True, "1.0"],
                str: [1.0]}[hint]
    if origin is tuple:
        hints = args[:1] * len(value) if args[-1] is Ellipsis else args
        return [value[:i] + (wrong,) + value[i + 1:]
                for i in range(1 if args[-1] is Ellipsis else len(args))
                for wrong in wrong_kinds(hints[i], value[i])]
    if origin is collections.abc.Mapping:
        key, item = next(iter(value.items()))
        return ([{wrong: item} for wrong in wrong_kinds(args[0], key)]
                + [{**value, key: wrong}
                   for wrong in wrong_kinds(args[1], item)])
    return [1.0, "markov"]      # a dataclass, or a union of dataclasses


FIELDS = [(cls, name) for cls, hints in SCENARIO_HINTS.items()
          for name in hints]


def test_the_walk_reaches_every_scenario_dataclass():
    assert {cls.__name__ for cls in SCENARIO_HINTS} == {
        "ScenarioConfig", "ComponentStateModel", "Component",
        "WorkloadSpec", "Phase", "Schedule", "MarkovChain",
        "PredictorSpec", "BatteryInterfaceModel"}


@pytest.mark.parametrize("cls,name", FIELDS,
                         ids=[f"{c.__name__}.{n}" for c, n in FIELDS])
def test_every_scenario_field_refuses_a_wrong_kind(cls, name):
    # a dataclass that skips `check_fields` in its `__post_init__`, or a
    # built-in that holds none of its instances, fails here
    built = BUILT_INSTANCES[cls]
    wrongs = wrong_kinds(SCENARIO_HINTS[cls][name], getattr(built, name))
    assert wrongs
    for wrong in wrongs:
        with pytest.raises(ConfigurationError) as info:
            dataclasses.replace(built, **{name: wrong})
        assert str(info.value).startswith(f"{cls.__name__}.{name}"), wrong


ROUND_TRIPS = {**{name: scn.builtin(name) for name in scn.BUILTIN_SCENARIOS},
               "numpy_scalars": dataclasses.replace(
                   scn.builtin("noiseless_linear"), seed=np.int64(3),
                   pca_l=np.int64(2), threshold=np.float64(0.2))}


@pytest.mark.parametrize("name", sorted(ROUND_TRIPS))
def test_a_saved_scenario_loads_back_equal(name, tmp_path):
    sc, path = ROUND_TRIPS[name], str(tmp_path / "scenario.json")
    scn.save_scenario(sc, path)
    assert scn.load_scenario(path) == sc
