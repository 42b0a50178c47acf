import json
import tracemalloc

import numpy as np
import pytest

import sesame as ss
import sesame.constructor as con
from reference import (
    bin_index,
    loop_fit_regressogram,
    loop_predict_regressogram,
    residency_beta_true,
    residency_predictors,
)
from sesame.collector import DesignMatrix
from sesame.constructor import predict_regressogram_rows
from sesame.errors import (
    ArgumentError,
    ConfigurationError,
    DegenerateFitError,
    InsufficientDataError,
    ParseError,
    SchemaError,
    from_document,
    to_document,
)


# -- low-level solvers --------------------------------------------------------

def test_tls_two_point_line():
    beta = ss.fit_tls(np.array([[1.0], [2.0], [3.0]]), np.array([1.0, 2.0, 3.0]))
    assert beta == pytest.approx([0.0, 1.0], abs=1e-12)


def test_tls_exact_on_consistent_data():
    rng = np.random.default_rng(2)
    x = rng.normal(size=(50, 3))
    beta_true = np.array([2.0, 1.5, -0.5, 3.0])
    y = beta_true[0] + x @ beta_true[1:]
    assert ss.fit_tls(x, y) == pytest.approx(beta_true, abs=1e-9)
    assert ss.fit_ols(x, y) == pytest.approx(beta_true, abs=1e-9)


def test_tls_and_ols_agree_on_noise_free_data():
    rng = np.random.default_rng(3)
    x = rng.normal(size=(80, 4))
    beta_true = np.array([1.0, 0.3, -2.0, 0.7, 1.1])
    y = beta_true[0] + x @ beta_true[1:]
    assert np.allclose(ss.fit_tls(x, y), ss.fit_ols(x, y), atol=1e-9)


def test_tls_needs_rows():
    with pytest.raises(InsufficientDataError):
        ss.fit_tls(np.ones((3, 2)), np.ones(3))


def small_training_matrix(m=30):
    rng = np.random.default_rng(14)
    x = rng.normal(0.5, 0.2, size=(m, 2))
    y = 5.0 + x @ np.array([2.0, 1.0]) + rng.normal(0.0, 0.01, m)
    return DesignMatrix(interval_s=100.0, columns=("a", "b"),
                        kinds=("residency", "residency"), x=x,
                        t_start_s=np.arange(m) * 100.0, y=y)


def nan_at(a, i=3):
    a = np.array(a, dtype=float)
    a.flat[i] = np.nan
    return a


BAD_FIT_CALLS = {
    # a misspelt method used to fit OLS silently
    "method_lower_case": lambda dm: ss.build_model(dm, method="tls"),
    "method_spaced": lambda dm: ss.iterate_construction(dm, 0.5,
                                                        method="T L S"),
    "l_fraction": lambda dm: ss.build_model(dm, l=1.5),
    "l_bool": lambda dm: ss.build_model(dm, l=True),
    # l counts principal components, so a fit without PCA used to drop it
    "l_without_pca": lambda dm: ss.build_model(dm, use_pca=False, l=1),
    "tls_short_response": lambda dm: ss.fit_tls(dm.x, dm.y[:-1]),
    "ols_short_response": lambda dm: ss.fit_ols(dm.x, dm.y[:-1]),
    "tls_nan_response": lambda dm: ss.fit_tls(dm.x, nan_at(dm.y)),
    "ols_nan_response": lambda dm: ss.fit_ols(dm.x, nan_at(dm.y)),
    "tls_inf_predictor": lambda dm: ss.fit_tls(np.where(dm.x > 0.6, np.inf,
                                                        dm.x), dm.y),
    "ols_nan_predictor": lambda dm: ss.fit_ols(nan_at(dm.x), dm.y),
}


@pytest.mark.parametrize("case", sorted(BAD_FIT_CALLS))
def test_bad_fit_arguments_fail_typed(case):
    with pytest.raises(ArgumentError):
        BAD_FIT_CALLS[case](small_training_matrix())


def test_tls_beats_ols_with_noise_in_predictors():
    # independent oracle: 100 seeded sets with Gaussian noise on X only,
    # compare coefficient recovery against the known generating beta
    beta_true = np.array([1.0, 2.0, -1.5, 1.0])
    tls_err, ols_err = [], []
    for seed in range(100):
        rng = np.random.default_rng(1000 + seed)
        x = rng.normal(size=(200, 3))
        y = beta_true[0] + x @ beta_true[1:]
        x_obs = x + rng.normal(0.0, 0.3, size=x.shape)
        tls_err.append(np.linalg.norm(ss.fit_tls(x_obs, y) - beta_true))
        ols_err.append(np.linalg.norm(ss.fit_ols(x_obs, y) - beta_true))
    assert np.mean(tls_err) < np.mean(ols_err)


def test_ols_constant_response_centered_predictors():
    rng = np.random.default_rng(4)
    x = rng.normal(size=(40, 3))
    x -= x.mean(axis=0)
    y = np.full(40, 7.0)
    beta = ss.fit_ols(x, y)
    assert beta[0] == pytest.approx(7.0, abs=1e-9)
    assert beta[1:] == pytest.approx(np.zeros(3), abs=1e-9)


def test_ols_duplicate_column_raises():
    rng = np.random.default_rng(5)
    col = rng.normal(size=40)
    x = np.column_stack([col, col])
    with pytest.raises(DegenerateFitError):
        ss.fit_ols(x, col * 2.0)


def test_ols_scale_equivariance():
    rng = np.random.default_rng(6)
    x = rng.normal(size=(60, 3))
    y = 1.0 + x @ np.array([2.0, -1.0, 0.5]) + rng.normal(0.0, 0.1, 60)
    beta = ss.fit_ols(x, y)
    scaled = x.copy()
    scaled[:, 1] *= 10.0
    beta_s = ss.fit_ols(scaled, y)
    assert beta_s[2] == pytest.approx(beta[2] / 10.0, rel=1e-9)
    pred = beta[0] + x @ beta[1:]
    pred_s = beta_s[0] + scaled @ beta_s[1:]
    assert np.allclose(pred, pred_s, atol=1e-9)


# -- PCA -----------------------------------------------------------------------

def test_pca_single_column_is_identity_direction():
    rng = np.random.default_rng(7)
    x = rng.normal(3.0, 2.0, size=(30, 1))
    basis, z = ss.pca_transform(x)
    assert basis.rows == pytest.approx(np.array([[1.0]]))
    expect = (x[:, 0] - basis.column_means[0]) / basis.column_scales[0]
    assert z[:, 0] == pytest.approx(expect)


def test_pca_duplicate_columns_expose_rank_deficiency():
    rng = np.random.default_rng(8)
    col = rng.normal(size=100)
    _, z = ss.pca_transform(np.column_stack([col, col]))
    # Z = U S, so its column norms are the singular values
    sing = np.linalg.norm(z, axis=0)
    assert sing[1] / sing[0] < 1e-9


def test_pca_orthonormal_sorted_round_trip():
    rng = np.random.default_rng(9)
    x = rng.normal(size=(100, 5)) @ rng.normal(size=(5, 5)) + rng.normal(size=5)
    basis, z = ss.pca_transform(x)
    gram = basis.rows @ basis.rows.T
    assert np.allclose(gram, np.eye(5), atol=1e-9)
    assert np.all(np.diff(np.linalg.norm(z, axis=0)) <= 1e-12)
    back = basis.inverse_transform(z)
    assert np.allclose(back, x, rtol=1e-9, atol=1e-9)
    # Z must match the direct product with the transform rows
    xcs = (x - basis.column_means) / basis.column_scales
    assert np.allclose(z, xcs @ basis.rows.T, atol=1e-12)


def test_pca_drops_zero_variance_columns():
    rng = np.random.default_rng(10)
    x = np.column_stack([rng.normal(size=50), np.full(50, 3.3)])
    with pytest.warns(UserWarning):
        basis, z = ss.pca_transform(x, ("a", "const"))
    assert basis.columns == ("a",)
    assert z.shape == (50, 1)


def test_pca_m_less_than_n_errors():
    with pytest.raises(InsufficientDataError):
        ss.pca_transform(np.random.default_rng(0).normal(size=(3, 5)))


# -- pipeline on simulated data -------------------------------------------------

def linear_scenario(duration=2000.0, tick=0.01, seed=7):
    model = ss.ComponentStateModel(
        components=(
            ss.Component("cpu", (1.0, 9.0)),
            ss.Component("disk", (0.5, 2.5)),
        ),
        base_power_w=3.0,
    )
    wl = ss.WorkloadSpec(phases=(ss.Phase("p", duration, {
        "cpu": ss.MarkovChain(((0.97, 0.03), (0.02, 0.98)), step_s=0.1),
        "disk": ss.MarkovChain(((0.99, 0.01), (0.03, 0.97)), step_s=0.1),
    }),))
    trace = ss.gen_trace(model, wl, duration, tick, seed)
    specs = residency_predictors(model, update_rate_hz=1.0 / tick)
    battery = ss.BatteryInterfaceModel(kind="instant", reading_rate_hz=1.0,
                                       supply_voltage_v=10.0)
    readings = ss.sample_interface(trace, battery, seed=0)
    return model, trace, specs, readings


def test_stretch_row_count_and_reading_grouping():
    model, trace, specs, readings = linear_scenario(duration=1000.0)
    dm = ss.collect(trace, specs, 100.0)
    low = ss.stretch(dm, readings, 100.0)
    assert low.m == 10
    # each response window aggregates 100 readings of the 1 Hz interface
    manual = readings.values[:1000].reshape(10, 100).sum(axis=1) * 10.0
    assert np.allclose(low.y, manual, rtol=1e-12)


def test_stretch_windows_start_at_the_design_start():
    model, trace, specs, readings = linear_scenario(duration=1000.0)
    dm = ss.collect(trace, specs, 100.0)
    shifted = DesignMatrix(interval_s=dm.interval_s, columns=dm.columns,
                           kinds=dm.kinds, x=dm.x, t_start_s=dm.t_start_s + 5.0)
    low = ss.stretch(shifted, readings, 100.0)
    assert np.array_equal(low.t_start_s, 5.0 + np.arange(10) * 100.0)
    assert np.array_equal(low.x, ss.stretch(dm, readings, 100.0).x)


def test_stretch_range_and_insufficient_rows():
    model, trace, specs, readings = linear_scenario(duration=1000.0)
    dm = ss.collect(trace, specs, 100.0)
    with pytest.raises(ValueError):
        ss.stretch(dm, readings, 5.0)
    short = DesignMatrix(interval_s=dm.interval_s, columns=dm.columns,
                         kinds=dm.kinds, x=dm.x[:20000],
                         t_start_s=dm.t_start_s[:20000])
    with pytest.raises(InsufficientDataError):
        ss.stretch(short, readings, 100.0)


def test_noiseless_fit_recovers_beta_true():
    model, trace, specs, readings = linear_scenario()
    dm = ss.collect(trace, specs, 1.0)
    low = ss.stretch(dm, readings, 100.0)
    fitted = ss.build_model(low, method="TLS", use_pca=False)
    expect = residency_beta_true(model, 100.0, specs)
    assert fitted.beta == pytest.approx(expect, rel=1e-7)
    assert fitted.fit_method == "TLS"


def test_pca_exactness_full_rank_matches_raw_fit():
    model, trace, specs, readings = linear_scenario()
    dm = ss.collect(trace, specs, 1.0)
    low = ss.stretch(dm, readings, 100.0)
    raw = ss.build_model(low, method="TLS", use_pca=False)
    pca = ss.build_model(low, method="TLS", use_pca=True)
    pred_raw = raw.predict_rows(low.x, 100.0)
    pred_pca = pca.predict_rows(low.x, 100.0)
    assert np.allclose(pred_raw, pred_pca, rtol=1e-9)
    assert abs(raw.training_error - pca.training_error) < 1e-9
    # TLS is rotation invariant: at full l both fits store the same map
    assert (raw.l, pca.l) == (None, len(pca.kept))
    assert pca.beta == pytest.approx(raw.beta, rel=1e-9)


def test_beta_invariance_across_time_scales():
    model, trace, specs, readings = linear_scenario()
    dm = ss.collect(trace, specs, 100.0)
    low = ss.stretch(dm, readings, 100.0)
    fitted = ss.build_model(low, method="TLS", use_pca=True)
    for t in (0.01, 0.1, 1.0, 10.0):
        x_t = ss.collect(trace, specs, 1.0 / t)
        pred = fitted.predict_rows(x_t.x, t)
        truth = ss.true_energy(trace, t)[: len(pred)]
        rel = np.abs(pred - truth) / truth
        assert rel.max() < 1e-6, (t, rel.max())


def test_tls_degenerate_falls_back_to_ols():
    # duplicate predictor columns: TLS's smallest singular direction lies in
    # the predictor block, so the solver must hand over to OLS; with the
    # duplicate dropped by zero-variance screening this stays fittable only
    # when the duplicate differs, so build two truly identical columns
    rng = np.random.default_rng(12)
    col = rng.normal(0.5, 0.2, size=30)
    x = np.column_stack([col, col])
    y = 5.0 + 2.0 * col
    dm = DesignMatrix(interval_s=100.0, columns=("a", "b"),
                      kinds=("residency", "residency"), x=x,
                      t_start_s=np.arange(30) * 100.0, y=y)
    with pytest.raises(DegenerateFitError):
        ss.build_model(dm, method="OLS", use_pca=False)


def test_iterate_construction_targets():
    model, trace, specs, readings = linear_scenario()
    dm = ss.collect(trace, specs, 1.0)
    low = ss.stretch(dm, readings, 100.0)
    # exact linear system: every l >= 1 that spans the response passes, so a
    # zero target must land on l = 1
    m0 = ss.iterate_construction(low, 0.0)
    assert m0.l == 1
    m_high = ss.iterate_construction(low, 0.999999)
    assert not m_high.below_target
    with pytest.raises(ValueError):
        ss.iterate_construction(low, 1.5)


def test_iterate_construction_single_predictor():
    rng = np.random.default_rng(13)
    x = rng.normal(0.5, 0.1, size=(30, 1))
    y = 3.0 + 2.0 * x[:, 0] + rng.normal(0, 0.2, 30)
    dm = DesignMatrix(interval_s=100.0, columns=("only",), kinds=("residency",),
                      x=x, t_start_s=np.arange(30) * 100.0, y=y)
    m = ss.iterate_construction(dm, 0.99)
    assert m.l == 1
    assert m.below_target  # noisy response cannot hit 99 percent


# -- regressogram ---------------------------------------------------------------

def test_regressogram_k1_is_global_mean():
    rng = np.random.default_rng(14)
    x = rng.uniform(0, 1, size=(200, 2))
    y = rng.normal(5.0, 1.0, 200)
    model = ss.fit_regressogram(x, y, k=1)
    assert ss.predict_regressogram(model, x[0]) == pytest.approx(y.mean())


def test_regressogram_zero_error_on_aligned_piecewise_truth():
    rng = np.random.default_rng(15)
    x = rng.uniform(0.0, 1.0, size=(5000, 1))
    x = np.concatenate([x, [[0.0], [1.0]]])  # pin the observed range
    y = np.floor(x[:, 0] * 10.0).clip(0, 9)  # constant inside each of 10 bins
    model = ss.fit_regressogram(x, y, k=10)
    preds = np.array([ss.predict_regressogram(model, row) for row in x])
    assert np.allclose(preds, y, atol=1e-12)


def test_regressogram_matches_brute_force_oracle():
    rng = np.random.default_rng(16)
    x = rng.uniform(-2.0, 3.0, size=(1000, 2))
    y = np.sin(x[:, 0]) + x[:, 1] ** 2 + rng.normal(0, 0.1, 1000)
    k = 10
    model = ss.fit_regressogram(x, y, k=k)

    # independent brute force: same binning rule, fresh accumulation
    lo = x.min(axis=0)
    hi = x.max(axis=0)
    cells: dict[tuple[int, ...], list] = {}
    for i in range(1000):
        idx = []
        for j in range(2):
            b = int((x[i, j] - lo[j]) / (hi[j] - lo[j]) * k)
            idx.append(min(b, k - 1))
        cells.setdefault(tuple(idx), []).append(y[i])
    for i in range(1000):
        got = ss.predict_regressogram(model, x[i])
        idx = []
        for j in range(2):
            b = int((x[i, j] - lo[j]) / (hi[j] - lo[j]) * k)
            idx.append(min(b, k - 1))
        vals = cells[tuple(idx)]
        total = 0.0
        for v in vals:
            total += float(v)
        assert got == total / len(vals)


def test_regressogram_out_of_range_falls_back():
    rng = np.random.default_rng(17)
    x = rng.uniform(0, 1, size=(100, 2))
    y = x[:, 0] * 2.0
    model = ss.fit_regressogram(x, y, k=5)
    assert ss.predict_regressogram(model, np.array([5.0, 0.5])) == model.fallback
    with pytest.raises(ValueError):
        ss.fit_regressogram(np.empty((0, 2)), np.empty(0), k=5)



def regressogram_case(name):
    rng = np.random.default_rng(18)
    x = rng.uniform(-2.0, 3.0, size=(800, 3))
    y = np.sin(x[:, 0]) + x[:, 1] ** 2 + rng.normal(0, 0.1, 800)
    query = np.vstack([x, rng.uniform(-4.0, 5.0, size=(400, 3)),
                       x.min(axis=0), x.max(axis=0)])
    if name == "constant_column":
        x[:, 2] = 1.5
        query[::3, 2] = 1.5
        return x, y, query, 10
    if name == "empty_cells":
        x = x[(x[:, 0] < 0.0) | (x[:, 1] > 1.0)]    # a hole in the grid
        return x, y[:len(x)], query, 6
    if name == "k1":
        return x, y, query, 1
    return x, y, query, 10


def in_sample_error(model, x, y):
    """The RMS relative error of the predict path on the training rows,
    or None when no response is positive."""
    try:
        return ss.rms_relative_error(predict_regressogram_rows(model, x), y)
    except ConfigurationError:
        return None


def assert_matches_loop(x, y, k, query):
    """Fitted cells (lexicographic), means, fallback, each column's range
    and the rows' predictions all equal the row-loop oracle's, exactly,
    and the training error is the predict path's on the training rows."""
    model = ss.fit_regressogram(x, y, k=k)
    assert model.training_error == in_sample_error(model, x, y)
    edges, cells, fallback = loop_fit_regressogram(x, y, k)
    order = sorted(cells)
    assert model.cells.dtype == np.int64
    assert np.array_equal(model.cells, np.array(order).reshape(-1, x.shape[1]))
    assert np.array_equal(model.means,
                          [cells[c][1] / cells[c][0] for c in order])
    assert model.fallback == fallback
    assert np.array_equal(model.edges, [(e[0], e[-1]) for e in edges])
    got = predict_regressogram_rows(model, query)
    want = np.array([loop_predict_regressogram(edges, cells, fallback, k, row)
                     for row in query])
    assert np.array_equal(got, want)
    return got, model


@pytest.mark.parametrize(
    "name", ["out_of_range", "constant_column", "empty_cells", "k1"])
def test_regressogram_matches_row_loop(name):
    x, y, query, k = regressogram_case(name)
    got, model = assert_matches_loop(x, y, k, query)
    assert (got == model.fallback).any()


def test_regressogram_many_columns_keep_distinct_cells():
    # 2**70 cells overflow an int64 row-major index, which would merge
    # cells that differ only in the leading columns
    rng = np.random.default_rng(19)
    x = rng.integers(0, 2, size=(400, 70)).astype(float)
    x[:, 8:] = rng.integers(0, 2, size=(4, 62))[rng.integers(0, 4, 400)]
    y = rng.normal(size=400)
    query = np.vstack([x, rng.integers(0, 2, size=(200, 70))])
    assert_matches_loop(x, y, 2, query)


def test_regressogram_matches_row_loop_on_random_inputs():
    # k**columns below, at and above the row count, so that the cell keys
    # are renumbered at no column, at the first, or at later ones
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies

    @st.composite
    def inputs(draw):
        m, n, k = (draw(st.integers(1, 200)), draw(st.integers(1, 4)),
                   draw(st.integers(1, 40)))
        rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
        # a column takes `levels` distinct values (1: constant), or
        # continuous ones at 0, so that cells repeat and bins hit the edges
        levels = draw(st.lists(st.integers(0, 12), min_size=n, max_size=n))
        x = np.column_stack([rng.uniform(-1.0, 3.0, m) if lv == 0
                             else rng.integers(0, lv, m) * 0.37 - 1.0
                             for lv in levels])
        # uniform rows straddle the range, so some are outside it in one
        # column or more
        query = np.vstack([x, x.min(axis=0), x.max(axis=0), rng.uniform(
            -3.0, 5.0, (draw(st.integers(0, 30)), n))])
        return x, rng.normal(size=m), k, query

    @hypothesis.settings(max_examples=150, deadline=None, database=None,
                         print_blob=True)
    @hypothesis.given(inputs())
    def check(case):
        assert_matches_loop(*case)

    check()


def test_regressogram_sorts_only_past_the_row_count(monkeypatch):
    # np.unique is the cell index's one sort: one column at k = 10, as
    # every built-in is, never reaches it; each column that would take the
    # key space past the row count renumbers once
    calls = []
    unique = np.unique
    monkeypatch.setattr(np, "unique",
                        lambda *a, **kw: calls.append(1) or unique(*a, **kw))
    rng = np.random.default_rng(20)
    for shape, k, sorts in (((300, 1), 10, 0), ((100, 2), 10, 0),
                            ((50, 1), 100, 1), ((50, 2), 10, 1),
                            ((50, 3), 10, 2)):
        calls.clear()
        x = rng.uniform(0.0, 1.0, shape)
        model = ss.fit_regressogram(x, rng.normal(size=shape[0]), k=k)
        assert len(calls) == sorts, (shape, k)
        if not sorts:       # cells and rows together are no fewer rows
            predict_regressogram_rows(model, x)
            assert not calls, (shape, k)


def test_regressogram_memory_does_not_grow_with_k():
    # only each column's (lo, hi) is kept, and no array is sized by k
    rng = np.random.default_rng(21)
    x = rng.uniform(0.0, 1.0, (50, 3))
    y = rng.normal(size=50)
    tracemalloc.start()
    try:
        model = ss.fit_regressogram(x, y, k=10**6)
        got = predict_regressogram_rows(model, x)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20
    assert model.edges.shape == (3, 2) and len(model.means) == 50
    assert np.array_equal(got, y)


@pytest.mark.parametrize("m", [con._BLOCK_ROWS - 1, con._BLOCK_ROWS,
                               con._BLOCK_ROWS + 1])
@pytest.mark.parametrize("k, levels", [(10, 0), (2**20, 6)])
def test_regressogram_matches_row_loop_at_the_block_edges(m, k, levels):
    # one row of each cell is found over blocks of rows; at k = 10 the
    # keys are row-major, and at k = 2**20 > m they are joined at the
    # first column, with six levels per column so that each cell sums
    # many rows
    rng = np.random.default_rng(m + k)
    if levels:
        x = rng.integers(0, levels, (m, 2)) * 0.37 - 1.0
        y = rng.normal(1.0, 1.0, m)
    else:
        x = rng.uniform(-1.0, 3.0, (m, 2))
        y = rng.uniform(0.5, 2.0, m)
    query = np.vstack([x[:40], rng.uniform(-2.0, 4.0, (20, 2))])
    assert_matches_loop(x, y, k, query)


@pytest.mark.parametrize("columns", [1, 2])
def test_regressogram_fit_holds_its_keys_and_one_float_per_row(columns):
    # beyond its inputs the fit holds the bins, the keys (the bins
    # themselves for one column) and one float per row, besides two masks
    # of one byte per row and O(cells + block): 2 row-length arrays for
    # one column, as every built-in has, and 4 for two
    rows = 2**17 + 3
    rng = np.random.default_rng(23)
    x = rng.uniform(0.0, 1.0, (rows, columns))
    y = rng.uniform(0.5, 2.0, rows)
    tracemalloc.start()
    try:
        model = ss.fit_regressogram(x, y, k=10)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    row_arrays = 2 if columns == 1 else 4
    assert peak <= (rows * (8 * row_arrays + 2)
                    + 4 * 8 * (10**columns + con._BLOCK_ROWS) + 2**14)
    assert model.training_error == in_sample_error(model, x, y)


def test_regressogram_keys_do_not_overflow_at_huge_k():
    # at the largest k, 2**53, a row-major key over two columns passes
    # 2**63, and so does a dense key over more than 1,024 rows times k; a
    # wrapped key breaks the cells' order or merges cells
    rng = np.random.default_rng(22)
    x = rng.uniform(0.0, 1.0, (1100, 2))
    y = rng.normal(size=1100)
    k = 2**53
    model = ss.fit_regressogram(x, y, k=k)
    want = sorted([bin_index(v, e, k) for v, e in zip(row, model.edges)]
                  for row in x)
    assert model.cells.tolist() == want
    assert np.array_equal(predict_regressogram_rows(model, x), y)
    assert model.training_error == in_sample_error(model, x, y)


def test_regressogram_training_error_needs_a_positive_response():
    x = np.linspace(0.0, 1.0, 30)[:, None]
    for y in (np.zeros(30), -1.0 - x[:, 0]):
        model = ss.fit_regressogram(x, y, k=4)
        assert model.training_error is None
        assert in_sample_error(model, x, y) is None
    # the non-positive responses are skipped, as the scoring skips them
    y = np.where(x[:, 0] > 0.5, x[:, 0], -1.0)
    model = ss.fit_regressogram(x, y, k=4)
    assert model.training_error == in_sample_error(model, x, y) > 0.0


def test_regressogram_refuses_column_names_of_another_length():
    # one name per predictor column: a name short or over is refused, not
    # stored beside the edges or read as x1 in an error
    x = np.column_stack([np.linspace(0, 1, 20), np.linspace(1, 2, 20)])
    y = x.sum(axis=1)
    for columns in (("a",), ("a", "b", "c")):
        with pytest.raises(ArgumentError, match="column names"):
            ss.fit_regressogram(x, y, k=4, columns=columns)
    assert ss.fit_regressogram(x, y, k=4, columns=("a", "b")).columns == (
        "a", "b")
    assert ss.fit_regressogram(x, y, k=4).columns == ("x0", "x1")


def test_regressogram_with_counts_equals_the_rows_repeated():
    # row i with count c fits as c equal rows: the same cells, and means,
    # error and fallback within roundoff of the repeated rows'
    rng = np.random.default_rng(5)
    x = rng.uniform(0.0, 1.0, (40, 2))
    y = rng.uniform(0.5, 2.0, 40)
    counts = rng.integers(1, 9, 40)
    got = ss.fit_regressogram(x, y, k=3, counts=counts)
    want = ss.fit_regressogram(np.repeat(x, counts, axis=0),
                               np.repeat(y, counts), k=3)
    assert np.array_equal(got.edges, want.edges)
    assert np.array_equal(got.cells, want.cells)
    np.testing.assert_allclose(got.means, want.means, rtol=1e-14)
    assert got.training_error == pytest.approx(want.training_error,
                                               rel=1e-13)
    assert got.fallback == pytest.approx(want.fallback, rel=1e-14)
    with pytest.raises(ArgumentError, match="counts"):
        ss.fit_regressogram(x, y, k=3, counts=counts[:-1])


def test_regressogram_rejects_non_finite_values():
    # the fit reads finiteness from each column's min and max, its edges:
    # a NaN, +inf or -inf in the first or the last column, at its first,
    # an inner or its last row, is named by its column, and with both
    # columns bad the first is named
    x3 = np.column_stack([np.linspace(0, 1, 20), np.linspace(1, 2, 20),
                          np.linspace(-3, 3, 20)])
    y3 = x3.sum(axis=1)
    cols3 = ("cpu", "disk", "wifi")
    for value in (np.nan, np.inf, -np.inf):
        for row in (0, 7, 19):
            for j, name in ((0, "cpu"), (2, "wifi")):
                bad = x3.copy()
                bad[row, j] = value
                with pytest.raises(ArgumentError, match=f"'{name}'"):
                    ss.fit_regressogram(bad, y3, k=4, columns=cols3)
            bad = x3.copy()
            bad[row, [0, 2]] = value
            with pytest.raises(ArgumentError, match="'cpu'"):
                ss.fit_regressogram(bad, y3, k=4, columns=cols3)
        bad = x3.copy()
        bad[7, 2] = value
        with pytest.raises(ArgumentError, match="'x2'"):  # unnamed columns
            ss.fit_regressogram(bad, y3, k=4)
    x = np.column_stack([np.linspace(0, 1, 20), np.linspace(1, 2, 20)])
    y = x.sum(axis=1)
    cols = ("cpu", "disk")
    bad = x.copy()
    bad[4, 1] = np.nan
    with pytest.raises(ValueError, match="'disk'"):
        ss.fit_regressogram(bad, y, k=4, columns=cols)
    with pytest.raises(ValueError, match="response"):
        ss.fit_regressogram(x, np.where(y > 2.5, np.inf, y), k=4)
    model = ss.fit_regressogram(x, y, k=4, columns=cols)
    bad[4, 1] = 0.5
    bad[7, 0] = -np.inf
    with pytest.raises(ValueError, match="'cpu'"):
        predict_regressogram_rows(model, bad)
    with pytest.raises(ValueError, match="'cpu'"):     # no fallback for inf
        ss.predict_regressogram(model, np.array([np.inf, 1.5]))
    with pytest.raises(SchemaError):
        predict_regressogram_rows(model, x[:, :1])


def test_coefficients_are_the_affine_map_at_an_interval():
    # the dropped column gets weight 0, and every coefficient scales by t / T
    model = ss.EnergyModel(
        beta=np.array([6.0, 2.0, 4.0]), columns=("a", "b", "c"),
        training_interval_s=100.0, fit_method="OLS", training_error=0.0,
        l=None, kept=("a", "c"), dropped=("b",), below_target=False,
        active_columns=("a", "c"))
    c = model.coefficients(0.5)
    assert np.array_equal(c, np.array([6.0, 2.0, 0.0, 4.0]) * (0.5 / 100.0))
    x = np.random.default_rng(15).uniform(0.0, 1.0, (20, 3))
    assert np.allclose(c[0] + x @ c[1:], model.predict_rows(x, 0.5),
                       rtol=1e-14, atol=0.0)
    for bad in (0.0, -1.0, np.inf, np.nan):
        with pytest.raises(ArgumentError, match="interval"):
            model.coefficients(bad)
        with pytest.raises(ArgumentError, match="interval"):
            model.predict_rows(x, bad)


# -- persistence ----------------------------------------------------------------

def read_model(doc) -> ss.EnergyModel:
    return from_document(ss.EnergyModel, doc, "model")


def test_model_document_round_trip():
    model, trace, specs, readings = linear_scenario()
    dm = ss.collect(trace, specs, 1.0)
    low = ss.stretch(dm, readings, 100.0)
    n = low.n
    for use_pca, l in ((False, None), (True, None), (True, 1)):
        fitted = ss.build_model(low, use_pca=use_pca, l=l)
        assert fitted.l == (n if use_pca and l is None else l)
        text = json.dumps(to_document(fitted))
        assert len(text) < 4096
        back = read_model(json.loads(text))
        assert back == fitted
        x = low.x[:3]
        assert np.array_equal(back.predict_rows(x, 2.0),
                              fitted.predict_rows(x, 2.0))
        with pytest.raises(SchemaError):
            back.predict_rows(x[:, :1], 2.0)


def test_model_document_malformed():
    with pytest.raises(ParseError):
        read_model({"beta": [1.0]})
    with pytest.raises(ParseError):
        read_model([1.0])


def test_model_document_in_the_old_basis_form_is_rejected():
    # an earlier version stored PCA models as a basis plus a beta in
    # rotated coordinates; at l = n that beta has the right length, so
    # loading it as the affine form would predict wrong energies
    doc = {
        "beta": [5.0, 1.0, 0.5], "columns": ["cpu", "disk"],
        "training_interval_s": 100.0,
        "fit_method": "TLS", "training_error": 0.01, "l": 2,
        "kept": ["cpu", "disk"], "dropped": [], "below_target": False,
        "active_columns": ["cpu", "disk"],
        "pca": {"rows": [[0.7071, 0.7071], [0.7071, -0.7071]],
                "singular_values": [9.0, 3.0], "column_means": [0.4, 0.2],
                "column_scales": [0.1, 0.05], "columns": ["cpu", "disk"]},
    }
    with pytest.raises(ParseError, match="model: unknown key 'pca'"):
        read_model(doc)
    no_pca = {k: v for k, v in doc.items() if k != "pca"}
    no_pca["column_means"] = [0.4, 0.2]
    with pytest.raises(ParseError, match="model: unknown key 'column_means'"):
        read_model(no_pca)
    current = {k: v for k, v in no_pca.items() if k != "column_means"}
    assert read_model(current).l == 2
    # no "l": not a current document
    with pytest.raises(ParseError, match="model: missing key 'l'"):
        read_model({k: v for k, v in current.items() if k != "l"})
    with pytest.raises(ParseError):
        read_model(dict(current, l=1.5))
    with pytest.raises(SchemaError):
        read_model(dict(current, l=3))
