"""Property tests of the single affine model form and of persistence.

A fitted EnergyModel is b0 + r . b on the kept predictor rates, scaled by
the interval ratio; these check that form against the explicit PCA
pipeline it folds, and that its energies add up across rates. The
per-rate oracle's fit, from zeros and from a random start, is checked
against its normal equations and against lstsq, and the one scoring pass
against scoring each estimate alone, at the chunk edges and on exact,
near-collinear and partly non-positive truths. `iterate_construction` returns the first l whose fit
meets its target, as fitting every l on its own finds. Every rate's
design, truth and battery response hold one row per whole interval of
the trace, for every battery kind. Model tables and scenarios must
come back from their documents unchanged, and a document with any one
node replaced must load or fail typed. A short built-in whose timing fields are drawn on
and off the tick grid must run to finite values or fail typed.
"""

import ast
import dataclasses
import json
import tempfile
from pathlib import Path

import numpy as np
import pytest

import sesame as ss
import sesame.experiments as exp
import sesame.scenarios as scn
from reference import (
    masked_rms_relative_error,
    oracle_rms,
    scaled_cond,
    smallest_l_meeting,
    stacked_fit_oracle,
)
from sesame.battery import BatteryInterfaceModel
from sesame.collector import DesignMatrix, aggregate_response
from sesame.errors import AlignmentError, ConfigurationError, RateError
from sesame.errors import SesameError
from sesame.errors import from_document, to_document
from sesame.manager import table_equals
from sesame.tracesim import COUNTER
from test_scoring import (
    assert_oracle_scores_as_alone,
    assert_scores_as_each_estimate_alone,
)

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies
hnp = pytest.importorskip("hypothesis.extra.numpy")

# No example database is kept, so every property prints the blob that
# replays a failing input (`@hypothesis.reproduce_failure`).
PROPERTY = hypothesis.settings(max_examples=40, deadline=None, database=None,
                              print_blob=True)
KINDS = ("residency", COUNTER, "level")
T_TRAIN = 100.0


def training_matrix(seed: int, n: int, kinds: tuple[str, ...]) -> DesignMatrix:
    """A noisy affine training set of 100 s rows with positive energies.

    The predictors share one load factor, as component activity does, so
    the response follows the leading principal component and a truncated
    TLS fit stays well posed.
    """
    rng = np.random.default_rng(seed)
    m = n + 2 + int(rng.integers(4, 40))
    load = rng.uniform(0.0, 1.0, size=(m, 1))
    x = 0.8 * load + 0.2 * rng.uniform(0.0, 1.0, size=(m, n))
    rate_w = rng.uniform(0.5, 5.0, size=n)
    for j, kind in enumerate(kinds):
        if kind == COUNTER:           # events per second
            x[:, j] *= rng.uniform(1.0, 50.0)
    scale = np.array([1.0 / 50.0 if k == COUNTER else 1.0 for k in kinds])
    y = (5.0 + x @ (rate_w * scale)) * T_TRAIN
    y *= 1.0 + rng.normal(0.0, 0.001, size=m)
    return DesignMatrix(interval_s=T_TRAIN,
                        columns=tuple(f"p{j}" for j in range(n)), kinds=kinds,
                        x=x, t_start_s=np.arange(m) * T_TRAIN, y=y)


def oracle_predict(dm: DesignMatrix, model: ss.EnergyModel, x: np.ndarray,
                   interval_s: float) -> np.ndarray:
    """Standardize, rotate onto the top-l principal axes, apply the
    rotated coefficients: the PCA model written out step by step."""
    idx = [dm.columns.index(c) for c in model.kept]
    basis, z = ss.pca_transform(dm.x[:, idx], model.kept)
    z = z[:, :model.l]
    y = np.asarray(dm.y, dtype=float)
    yc = y - y.mean()
    if model.fit_method == "TLS":
        coef = ss.fit_tls(z, yc / yc.std()) * yc.std()
    else:
        coef = ss.fit_ols(z, yc)
    zq = ((x[:, idx] - basis.column_means) / basis.column_scales
          ) @ basis.rows[:model.l].T
    return (y.mean() + coef[0] + zq @ coef[1:]) * (interval_s / dm.interval_s)


@PROPERTY
@hypothesis.given(seed=st.integers(0, 2**32 - 1),
                  kinds=st.lists(st.sampled_from(KINDS), min_size=1, max_size=5),
                  l_frac=st.floats(0.0, 1.0),
                  interval_s=st.sampled_from([0.01, 1.0, 100.0]))
def test_pca_model_equals_explicit_rotated_pipeline(seed, kinds, l_frac,
                                                    interval_s):
    dm = training_matrix(seed, len(kinds), tuple(kinds))
    n = len(kinds)
    l = 1 + int(l_frac * (n - 1))
    model = ss.build_model(dm, use_pca=True, l=l)
    assert model.l == l and len(model.beta) == 1 + n
    x = training_matrix(seed + 1, n, tuple(kinds)).x
    got = model.predict_rows(x, interval_s)
    want = oracle_predict(dm, model, x, interval_s)
    np.testing.assert_allclose(got, want, rtol=1e-12)


@PROPERTY
@hypothesis.given(seed=st.integers(0, 2**32 - 1),
                  kinds=st.lists(st.sampled_from(KINDS[:2]), min_size=1,
                                 max_size=5),
                  use_pca=st.booleans(), l_frac=st.floats(0.0, 1.0),
                  k=st.integers(1, 50), interval_s=st.floats(1e-3, 10.0))
def test_energy_is_additive_across_rates(seed, kinds, use_pca, l_frac, k,
                                         interval_s):
    kinds = tuple(kinds)
    n = len(kinds)
    model = ss.build_model(training_matrix(seed, n, kinds), use_pca=use_pca,
                           l=1 + int(l_frac * (n - 1)) if use_pca else None)
    rng = np.random.default_rng(seed + 2)
    sub = rng.uniform(0.0, 1.0, size=(k, n))
    counter = np.array([kind == COUNTER for kind in kinds])
    sub[:, counter] *= 1000.0
    # residency fractions and counter rates alike average over the
    # merged interval
    merged = sub.mean(axis=0)
    parts = model.predict_rows(sub, interval_s).sum()
    whole = model.predict_rows(merged, k * interval_s)[0]
    assert parts == pytest.approx(whole, rel=1e-9)



@PROPERTY
@hypothesis.given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 5),
                  rows_per_coef=st.integers(4, 10))
def test_tls_equals_ols_on_clean_data(seed, n, rows_per_coef):
    # exactly affine data leaves no residual for TLS to spread over the
    # predictors, so both solvers recover the same coefficients
    rng = np.random.default_rng(seed)
    x = rng.uniform(-1.0, 1.0, size=(rows_per_coef * (n + 1), n))
    beta = rng.uniform(-5.0, 5.0, size=n + 1)
    y = beta[0] + x @ beta[1:]
    ols = ss.fit_ols(x, y)
    np.testing.assert_allclose(ss.fit_tls(x, y), ols, rtol=0.0, atol=1e-9)
    np.testing.assert_allclose(ols, beta, rtol=0.0, atol=1e-9)


@st.composite
def oracle_problems(draw):
    """A design of 1 to 6 predictors and positive truths for its rows."""
    n = draw(st.integers(1, 6))
    m = draw(st.integers(n + 2, 40))
    x = draw(hnp.arrays(float, (m, n), elements=st.floats(-1e3, 1e3)))
    y = draw(hnp.arrays(float, m, elements=st.floats(1e-3, 1e3)))
    return x, y


def assert_solves_its_normal_equations(x, y, coef):
    """`coef`, an oracle fit of (x, y) from any start, leaves the normal
    equations G c = A^T 1 a residual of roundoff size, and fits no worse
    than lstsq, but for roundoff; on the `_ORACLE_COND_BOUND` side of
    lstsq, it is lstsq's bit for bit."""
    n1 = 1 + x.shape[1]
    w = 1.0 / y
    # the oracle's own G from a zero start, bit for bit: the top block of
    # the GEMM B A, B = [A^T; -1] in C order
    b = np.ascontiguousarray(np.vstack([w, x.T * w, -np.ones_like(w)]))
    g, rhs = (b @ b[:n1].T)[:n1], b[:n1].sum(axis=1)
    ref = stacked_fit_oracle(x, y)
    cond = scaled_cond(g)
    if cond >= exp._ORACLE_COND_BOUND:
        assert np.array_equal(coef, ref)
        return
    assert np.linalg.norm(g @ coef - rhs) <= 1e-12 * (
        np.linalg.norm(g) * np.linalg.norm(coef) + np.linalg.norm(rhs))
    # no worse a fit than lstsq's, but for roundoff: an exactly affine
    # truth leaves the normal equations a residual near eps * cond(g)
    slack = 1e-15 + np.finfo(float).eps * cond
    assert oracle_rms(x, y, coef) <= (
        oracle_rms(x, y, ref) * (1 + 1e-12) + slack)


@PROPERTY
@hypothesis.given(problem=oracle_problems())
def test_oracle_solves_its_normal_equations(problem):
    x, y = problem
    assert_solves_its_normal_equations(x, y, exp._fit_oracle(x, y))


@PROPERTY
@hypothesis.given(problem=oracle_problems(), seed=st.integers(0, 2**32 - 1),
                  spread=st.sampled_from([0.0, 1e-6, 0.1, 1.0]))
def test_oracle_steps_from_a_random_start_to_its_normal_equations(
        problem, seed, spread):
    # each coefficient off lstsq's by a random share of itself, as the
    # molded variants of `scored_problems` are off the truths' own
    x, y = problem
    ref = stacked_fit_oracle(x, y)
    rng = np.random.default_rng(seed)
    start = ref * (1.0 + spread * rng.standard_normal(len(ref)))
    assert_solves_its_normal_equations(
        x, y, exp._fit_oracle(x, y, start=start))


@st.composite
def scored_problems(draw):
    """A design x, truths y and molded coefficients C (1 + n, k) near the
    truths' own: 1 or 2 rows or at the chunk edges, y exactly affine in
    x or not, two columns near-collinear or not, and a share of the
    truths at 0 or -1."""
    m = draw(st.sampled_from(
        [1, 2, 50, exp._CHUNK_ROWS, exp._CHUNK_ROWS + 1]))
    n, k = draw(st.integers(1, 4)), draw(st.integers(1, 4))
    exact, collinear = draw(st.booleans()), draw(st.booleans())
    dropped = draw(st.sampled_from([0.0, 0.3, 1.0]))
    spread = draw(st.sampled_from([0.0, 1e-6, 0.1, 1.0]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    x = np.asfortranarray(rng.uniform(0.0, 100.0, (m, n)))
    if collinear and n > 1:
        x[:, 1] = x[:, 0] * (1.0 + 1e-9 * rng.standard_normal(m))
    beta = rng.uniform(0.1, 2.0, n + 1)
    y = beta[0] + x @ beta[1:]
    if not exact:
        y *= rng.uniform(0.8, 1.2, m)
    low = rng.random(m) < dropped
    y[low] = -rng.integers(0, 2, low.sum())
    coefs = beta[:, None] * (1.0 + spread * rng.standard_normal((n + 1, k)))
    return x, y, coefs


@hypothesis.settings(max_examples=30, deadline=None, database=None,
                     print_blob=True)
@hypothesis.given(problem=scored_problems())
def test_one_pass_scores_as_each_estimate_alone(problem):
    x, y, coefs = problem
    # the lengths are checked before the truths' signs
    with pytest.raises(AlignmentError):
        exp._affine_rms(x[:-1], y, coefs, oracle=True)
    if not (y > 0).any():
        with pytest.raises(ConfigurationError, match="no positive"):
            exp._affine_rms(x, y, coefs, oracle=True)
        return
    got = exp._affine_rms(x, y, coefs, oracle=True)
    # the oracle's sums leave the columns' scores as they are
    assert np.array_equal(got[:-1], exp._affine_rms(x, y, coefs))
    assert_scores_as_each_estimate_alone(
        got[:-1], x, y, coefs,
        [masked_rms_relative_error(c[0] + x @ c[1:], y) for c in coefs.T])
    coef = exp._fit_oracle(x, y, start=coefs)
    assert_oracle_scores_as_alone(
        got, x, y, coefs, coef,
        masked_rms_relative_error(coef[0] + x @ coef[1:], y))


@PROPERTY
@hypothesis.given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 5),
                  target=st.floats(0.0, 0.999))
def test_iterate_construction_returns_the_first_l_that_meets(seed, n,
                                                               target):
    # each column is a scaled copy of one of a few sources plus its own
    # noise, from 1e-3 to 1 relative, so some axes nearly coincide
    rng = np.random.default_rng(seed)
    m = n + 2 + int(rng.integers(0, 30))
    sources = rng.uniform(0.0, 1.0, size=(m, int(rng.integers(1, n + 1))))
    x = (sources[:, rng.integers(0, sources.shape[1], n)]
         * rng.uniform(0.5, 2.0, n)
         + rng.normal(0.0, 1.0, (m, n)) * 10.0 ** rng.uniform(-3, 0, n))
    y = (5.0 + x @ rng.uniform(0.5, 5.0, n)) * T_TRAIN
    y *= 1.0 + rng.normal(0.0, 10.0 ** rng.uniform(-3, -0.5), m)
    dm = DesignMatrix(interval_s=T_TRAIN,
                      columns=tuple(f"p{j}" for j in range(n)),
                      kinds=("residency",) * n, x=x,
                      t_start_s=np.arange(m) * T_TRAIN, y=y)
    want = smallest_l_meeting(dm, target)
    expect = ss.build_model(dm, l=want)
    expect.below_target = want is None
    assert ss.iterate_construction(dm, target) == expect


BATTERY_KINDS = {
    "instant": {"kind": "instant"},
    "filtered": {"kind": "filtered", "filter_window_s": 16.0,
                 "filter_taps": 10},
    "capacity": {"kind": "capacity"},
}


@hypothesis.settings(max_examples=20, deadline=None, database=None,
                     print_blob=True)
@hypothesis.given(name=st.sampled_from([n for n in sorted(scn.BUILTIN_SCENARIOS)
                                        if scn.builtin(n).predictors]),
                  kind=st.sampled_from(sorted(BATTERY_KINDS)),
                  reading_rate_hz=st.sampled_from((0.1, 0.5, 1.0, 4.0)),
                  ticks=st.integers(200_000, 600_000))
def test_every_rate_has_one_row_count(name, kind, reading_rate_hz, ticks):
    # the duration is rarely a whole number of any interval, so each
    # count is a floor; the scorers compare the rows without truncating
    sc = scn.builtin(name)
    sc = dataclasses.replace(
        sc, duration_s=ticks * sc.tick_s,
        battery=BatteryInterfaceModel(reading_rate_hz=reading_rate_hz,
                                      **BATTERY_KINDS[kind]))
    arts = exp.simulate(sc)
    for rate in (*sc.rate_grid, 1.0 / sc.window_s):
        rows = ticks // round(1.0 / (rate * sc.tick_s))
        assert arts.design(rate).m == rows
        assert len(arts.truth(rate)) == rows
        try:
            response = aggregate_response(arts.readings, 1.0 / rate)
        except (AlignmentError, RateError):
            continue            # not a whole number of reading periods
        assert len(response) == rows

# -- persistence ----------------------------------------------------------------

KEYS = st.lists(st.tuples(st.text(max_size=6), st.text(max_size=6),
                          st.text(max_size=6)), min_size=1, max_size=3)


@st.composite
def model_tables(draw):
    """A table of fitted models under distinct keys, with valid monitoring
    settings and a decision log."""
    keys = draw(st.lists(KEYS.map(ss.ConfigurationKey.canonical), max_size=4,
                         unique=True))
    table = ss.ModelTable(threshold=draw(st.floats(0.0, 1.0, exclude_min=True,
                                                   exclude_max=True)),
                          window_s=draw(st.floats(0.0, exclude_min=True,
                                                  allow_infinity=False)))
    for key in keys:
        kinds = tuple(draw(st.lists(st.sampled_from(KINDS), min_size=1,
                                    max_size=4)))
        n = len(kinds)
        use_pca = draw(st.booleans())
        table.models[key] = ss.build_model(
            training_matrix(draw(st.integers(0, 2**32 - 1)), n, kinds),
            method=draw(st.sampled_from(["TLS", "OLS"])), use_pca=use_pca,
            l=draw(st.integers(1, n)) if use_pca else None)
    if keys:
        table.active_key = draw(st.sampled_from([None] + keys))
    table.decision_log = draw(st.lists(st.text(max_size=20), max_size=5))
    return table


@PROPERTY
@hypothesis.given(table=model_tables(), seed=st.integers(0, 2**32 - 1),
                  interval_s=st.sampled_from([0.01, 1.0, 100.0]))
def test_persisted_table_loads_back_equal(table, seed, interval_s):
    with tempfile.TemporaryDirectory() as tmp:
        path = str(Path(tmp) / "table.json")
        ss.persist(table, path)
        back = ss.load(path)
    assert table_equals(back, table)
    rng = np.random.default_rng(seed)
    for key, model in table.models.items():
        x = rng.uniform(0.0, 1.0, size=(7, len(model.columns)))
        assert np.array_equal(back.models[key].predict_rows(x, interval_s),
                              model.predict_rows(x, interval_s))


@pytest.mark.parametrize("name", sorted(scn.BUILTIN_SCENARIOS))
@hypothesis.settings(max_examples=10, deadline=None, database=None,
                     print_blob=True)
@hypothesis.given(seed=st.integers(0, 2**31 - 1))
def test_scenario_document_round_trips(name, seed):
    sc = scn.builtin(name).with_seed(seed)
    doc = to_document(sc)
    back = from_document(scn.ScenarioConfig, json.loads(json.dumps(doc)),
                         "scenario")
    assert back == sc
    assert to_document(back) == doc


# -- document fuzz --------------------------------------------------------------

JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats()
    | st.text(max_size=8) | st.sampled_from(["fixed", "markov", "TLS", "1"]),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=8), inner, max_size=3),
    max_leaves=8)


def node_paths(doc, path=()):
    """The path of every node of a JSON document, the root included."""
    yield path
    items = doc.items() if isinstance(doc, dict) else (
        enumerate(doc) if isinstance(doc, list) else ())
    for key, child in items:
        yield from node_paths(child, path + (key,))


def with_node(doc, path, value):
    """`doc` with the node at `path` replaced by `value`."""
    if not path:
        return value
    doc = json.loads(json.dumps(doc))
    node = doc
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value
    return doc


@hypothesis.settings(max_examples=200, deadline=None, database=None,
                     print_blob=True)
@hypothesis.given(name=st.sampled_from(sorted(scn.BUILTIN_SCENARIOS)),
                  pick=st.integers(0), value=JSON_VALUES)
def test_scenario_document_with_one_node_replaced_fails_typed(name, pick,
                                                              value):
    doc = to_document(scn.builtin(name))
    paths = list(node_paths(doc))
    try:
        from_document(scn.ScenarioConfig,
                      with_node(doc, paths[pick % len(paths)], value),
                      "scenario")
    except SesameError:
        pass


@hypothesis.settings(max_examples=200, deadline=None, database=None,
                     print_blob=True)
@hypothesis.given(seed=st.integers(0, 2**32 - 1),
                  kinds=st.lists(st.sampled_from(KINDS), min_size=1,
                                 max_size=3),
                  use_pca=st.booleans(), pick=st.integers(0),
                  value=JSON_VALUES)
def test_model_document_with_one_node_replaced_fails_typed(seed, kinds,
                                                           use_pca, pick,
                                                           value):
    model = ss.build_model(training_matrix(seed, len(kinds), tuple(kinds)),
                           use_pca=use_pca)
    doc = json.loads(json.dumps(to_document(model)))
    paths = list(node_paths(doc))
    try:
        back = from_document(ss.EnergyModel,
                             with_node(doc, paths[pick % len(paths)], value),
                             "model")
    except SesameError:
        return
    # a model that loads has a consistent shape, so it predicts
    assert back.predict_rows(np.ones((2, len(back.columns))), 1.0).shape == (2,)


@hypothesis.settings(max_examples=200, deadline=None, database=None,
                     print_blob=True)
@hypothesis.given(table=model_tables(), pick=st.integers(0), value=JSON_VALUES)
def test_table_document_with_one_node_replaced_fails_typed(table, pick, value):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "table.json"
        ss.persist(table, str(path))
        doc = json.loads(path.read_text())
        paths = list(node_paths(doc))
        path.write_text(json.dumps(with_node(doc, paths[pick % len(paths)],
                                             value)))
        try:
            back = ss.load(str(path))
        except SesameError:
            return
        # what loads is what persist accepts
        ss.persist(back, str(Path(tmp) / "again.json"))


# -- timing fuzz ----------------------------------------------------------------

# values on the grid of every tick in ON_GRID["tick_s"], and values off it
ON_GRID = {"tick_s": (0.001, 0.002, 0.005),
           "rate_hz": (0.01, 0.1, 1.0, 4.0, 10.0, 100.0),
           "update_rate_hz": (20.0, 50.0, 100.0),
           "delay_s": (0.0, 0.01, 0.2, 0.3),
           "reading_rate_hz": (0.1, 0.5, 1.0, 4.0)}
OFF_GRID = {"tick_s": (0.0015,), "rate_hz": (3.0, 300.0),
            "update_rate_hz": (300.0,), "delay_s": (0.0005, 0.0123),
            "reading_rate_hz": (3.0,)}


@st.composite
def timing_variants(draw):
    """A built-in cut to at most 200 s, with its timing fields on the
    tick grid or, about half the time, one of them off it: (built-in,
    changes). It may also run as an error-vs-rate experiment, which
    reaches every rate of its grid in 200 s."""
    sc = scn.builtin(draw(st.sampled_from(sorted(scn.BUILTIN_SCENARIOS))))
    off = draw(st.none() | st.sampled_from(sorted(ON_GRID)))

    def value(field):
        return draw(st.sampled_from((OFF_GRID if field == off
                                     else ON_GRID)[field]))

    rates = draw(st.lists(st.sampled_from(ON_GRID["rate_hz"]), min_size=1,
                          max_size=3, unique=True))
    return sc, {
        "experiment": draw(st.sampled_from((sc.experiment,
                                            scn.ERROR_VS_RATE))),
        "duration_s": draw(st.sampled_from((50.0, 200.0))),
        "t_low_s": draw(st.sampled_from((50.0, 100.0))),
        "tick_s": value("tick_s"),
        "rate_grid": (*rates, value("rate_hz")) if off == "rate_hz"
        else tuple(rates),
        "predictors": tuple(
            dataclasses.replace(spec, update_rate_hz=value("update_rate_hz"),
                                delay_s=value("delay_s"))
            for spec in sc.predictors),
        "battery": dataclasses.replace(
            sc.battery, reading_rate_hz=value("reading_rate_hz")),
    }


def returned_values(result) -> list[float]:
    """The floats a run returns, as the golden files pin them."""
    if isinstance(result, exp.ErrorReport):
        return [row.rms_rel_error for row in result.rows
                if row.rms_rel_error is not None]
    model = result.table.active_model
    return ([e for e in result.errors if e is not None]
            + ([] if model is None else model.beta.tolist()))


@hypothesis.settings(max_examples=30, deadline=None, database=None,
                     print_blob=True)
@hypothesis.given(variant=timing_variants())
def test_timing_fields_run_finite_or_fail_typed(variant):
    sc, changes = variant
    try:
        result = exp.run_scenario(dataclasses.replace(sc, **changes))
    except SesameError:
        return
    assert np.all(np.isfinite(returned_values(result)))


def test_every_property_prints_its_failing_input():
    properties = [f for f in globals().values() if hasattr(f, "hypothesis")]
    assert properties
    for f in properties:
        assert f._hypothesis_internal_use_settings.print_blob, f.__name__


def test_every_settings_call_in_the_tests_prints_its_blob():
    # the check above sees only this module's top-level properties; this
    # one reads every settings call in every test module, nested or not
    calls = []
    for path in sorted(Path(__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            func = node.func if isinstance(node, ast.Call) else None
            if (isinstance(func, ast.Attribute) and func.attr == "settings"
                    or isinstance(func, ast.Name) and func.id == "settings"):
                blob = [kw.value for kw in node.keywords
                        if kw.arg == "print_blob"]
                calls.append((f"{path.name}:{node.lineno}",
                              [ast.literal_eval(v) for v in blob] == [True]))
    assert calls
    assert [where for where, ok in calls if not ok] == []
