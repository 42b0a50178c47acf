"""Per-rate scoring against the formulas it replaced.

A molding run scores each molded variant with its own `predict_rows`,
and `rms_relative_error` masks only truths that hold a non-positive
value. `reference` keeps the formulas that gather and mask on every
call. `predict_rows` takes the full rows against weights spread to the
full width, while the reference gathers the kept columns first, so the
two round differently: they agree within (n + 2) eps of each row's scale
(|b0| + |x_kept| @ |b|) t / T. The oracle solves its normal equations
while they are well conditioned, so there its weighted RMS is compared
with the stacked design's to 1e-12 relative or 1e-15 absolute. Every
other comparison is `==` or `np.array_equal`.
"""

import dataclasses
import math

import numpy as np
import pytest

import sesame.experiments as exp
import sesame.scenarios as scn
from reference import (
    gather_predict_rows,
    masked_rms_relative_error,
    oracle_rms,
    scaled_cond,
    stacked_fit_oracle,
)
from sesame.battery import rms_relative_error
from sesame.collector import aggregate_response
from sesame.constructor import TrainingSet, build_model, stretch
from sesame.errors import AlignmentError, ConfigurationError

# not a whole number of the coarsest (100 s) interval, so no rate's row
# count is a multiple of its ratio to a coarser rate
DURATION_S = 1234.5


def shortened(name: str) -> scn.ScenarioConfig:
    return dataclasses.replace(scn.builtin(name), duration_s=DURATION_S)


@pytest.fixture(scope="module")
def t61():
    sc = shortened("t61like")
    arts = exp.simulate(sc)
    return sc, arts, exp.train_molded_variants(sc, arts)


def truths(rng: np.random.Generator, n: int) -> dict[str, np.ndarray]:
    positive = rng.uniform(0.5, 2.0, n)
    mixed = positive.copy()
    mixed[::3] = 0.0
    mixed[1::7] = -rng.uniform(0.1, 1.0, len(mixed[1::7]))
    with_nan = mixed.copy()
    with_nan[-1] = np.nan
    return {"positive": positive, "zeros_and_negatives": mixed,
            "nan": with_nan}


@pytest.mark.parametrize("n", [1, 7, 1001, 30003])
def test_scorer_equals_masking_on_every_call(n):
    rng = np.random.default_rng(n)
    for name, truth in truths(rng, n).items():
        if not (truth > 0).any():
            continue
        for _ in range(3):
            est = truth * rng.normal(1.0, 0.1, n) + rng.normal(0.0, 0.01, n)
            want = masked_rms_relative_error(est, truth)
            assert rms_relative_error(est, truth) == want, name
            # strided views score as their copies do
            wide = np.repeat(est, 2)[::2]
            assert rms_relative_error(wide, truth) == want, name
            assert rms_relative_error(
                est, np.repeat(truth, 2)[::2]) == want, name


def test_scorer_keeps_the_error_types():
    with pytest.raises(AlignmentError):
        rms_relative_error(np.ones(3), np.ones(4))
    # the lengths are checked before the truths' signs, as before
    with pytest.raises(AlignmentError):
        rms_relative_error(np.ones(3), np.zeros(4))
    for truth in (np.zeros(3), -np.ones(3), np.full(3, np.nan)):
        with pytest.raises(ConfigurationError):
            rms_relative_error(np.ones(3), truth)
    with pytest.raises(ConfigurationError):
        rms_relative_error(np.ones(0), np.ones(0))


def assert_predicts_as_the_gather(model, x, interval_s):
    """`predict_rows` equals the gather within (n + 2) eps of each row's
    scale, n being the model's kept columns."""
    got = model.predict_rows(x, interval_s)
    want = gather_predict_rows(model, x, interval_s)
    by_name = {c: i for i, c in enumerate(model.columns)}
    kept = np.abs(x[:, [by_name[c] for c in model.kept]])
    scale = ((abs(model.beta[0]) + kept @ np.abs(model.beta[1:]))
             * (interval_s / model.training_interval_s))
    bound = (len(model.kept) + 2) * np.finfo(float).eps * scale
    assert got.shape == want.shape
    assert (np.abs(got - want) <= bound).all()


def test_all_kept_models_predict_as_the_gather(t61):
    sc, arts, models = t61
    for rate in sc.rate_grid:
        x = arts.design(rate).x
        for name, model in models.items():
            assert model.kept == model.columns, name
            assert_predicts_as_the_gather(model, x, 1.0 / rate)
            # Fortran-ordered rows predict within the same bound
            assert_predicts_as_the_gather(model, np.asfortranarray(x),
                                          1.0 / rate)


def test_a_model_with_a_dropped_column_predicts_as_the_gather():
    sc = shortened("dvs_flip")
    arts = exp.simulate(sc)
    with pytest.warns(UserWarning, match="p800_res"):
        ts = TrainingSet(stretch(arts.design(sc.base_rate_hz), arts.readings,
                                 sc.t_low_s))
    for l in (None, 1):
        model = ts.fit(sc.fit_method, l=l)
        assert model.dropped == ("p800_res",)
        for rate in sc.rate_grid:
            assert_predicts_as_the_gather(model, arts.design(rate).x,
                                          1.0 / rate)


def oracle_designs(sc, arts):
    """(x, y) of every rate's oracle fit, on its truth and on the random
    truths with enough positive rows, and one singular design per rate."""
    for rate in sc.rate_grid:
        x, y = arts.design(rate).x, arts.truth(rate)
        yield x, y
        yield np.column_stack([x, x[:, :1]]), y
        rng = np.random.default_rng(int(rate * 100))
        for name, yy in truths(rng, len(y)).items():
            if name != "nan" and (yy > 0).sum() > x.shape[1] + 1:
                yield x, yy


def normal_matrix(x, y):
    """The oracle's g = A^T A, bit for bit, so both pick the same path."""
    ok = y > 0
    w = 1.0 / y[ok]
    at = np.vstack([w, x[ok].T * w])
    return at @ at.T


def test_oracle_fallback_equals_the_stacked_design(t61):
    sc, arts, _ = t61
    checked = 0
    for x, y in oracle_designs(sc, arts):
        if scaled_cond(normal_matrix(x, y)) >= exp._ORACLE_COND_BOUND:
            assert np.array_equal(exp._fit_oracle(x, y),
                                  stacked_fit_oracle(x, y))
            checked += 1
    # only the duplicated-column designs, one per rate, are singular
    assert checked == len(sc.rate_grid)


def test_oracle_normal_equations_fit_as_the_stacked_design(t61):
    sc, arts, _ = t61
    checked = 0
    for x, y in oracle_designs(sc, arts):
        if scaled_cond(normal_matrix(x, y)) < exp._ORACLE_COND_BOUND:
            assert math.isclose(
                oracle_rms(x, y, exp._fit_oracle(x, y)),
                oracle_rms(x, y, stacked_fit_oracle(x, y)),
                rel_tol=1e-12, abs_tol=1e-15)
            checked += 1
    assert checked >= len(sc.rate_grid)


def test_molding_report_equals_scoring_each_estimate_alone(t61):
    sc, arts, models = t61
    report = exp.run_molding(sc)
    want = []
    for rate in sc.rate_grid:
        truth = arts.truth(rate)
        if report.value(rate, exp.BATTERY_ESTIMATOR) is None:
            want.append(None)
        else:
            est = aggregate_response(arts.readings, 1.0 / rate)
            want.append(masked_rms_relative_error(est, truth))
        dm = arts.design(rate)
        for name in exp.MOLDED_VARIANTS:
            pred = models[name].predict_rows(dm.x, 1.0 / rate)
            want.append(masked_rms_relative_error(pred, truth))
        coef = exp._fit_oracle(dm.x, truth)
        want.append(masked_rms_relative_error(coef[0] + dm.x @ coef[1:],
                                              truth))
    assert [row.rms_rel_error for row in report.rows] == want


@pytest.mark.parametrize("pca_l", [1, 2, 9])
def test_regressogram_linear_model_is_capped_at_pca_l(pca_l):
    # t61like keeps five columns, so l = 9 keeps them all
    sc = dataclasses.replace(scn.t61like(experiment=scn.REGRESSOGRAM),
                             duration_s=DURATION_S, rate_grid=(1.0,),
                             pca_l=pca_l)
    arts = exp.simulate(sc)
    stretched = stretch(arts.design(sc.base_rate_hz), arts.readings,
                        sc.t_low_s)
    kept = len(TrainingSet(stretched).kept)
    model = build_model(stretched, method=sc.fit_method, l=min(pca_l, kept))
    pred = model.predict_rows(arts.design(1.0).x, 1.0)
    report = exp.run_regressogram_compare(sc)
    assert report.value(1.0, "linear_molded") == masked_rms_relative_error(
        pred, arts.truth(1.0))
