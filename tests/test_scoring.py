"""Per-rate scoring against the formulas it replaced.

A molding run scores the four molded variants and the oracle in one
chunked pass over the oracle's weighted design A = [1 X] / y, and
`rms_relative_error` masks only truths that hold a non-positive value.
`reference` keeps the formulas that gather, predict and mask on every
call. `predict_rows` takes the full rows against weights spread to the
full width, while the reference gathers the kept columns first, so the
two round differently: they agree within (n + 2) eps of each row's scale
(|b0| + |x_kept| @ |b|) t / T. The chunked scorer forms each row's
relative error as a_i @ c - 1 rather than (estimate - y) / y, and sums
the squares chunk by chunk, so it agrees with the per-estimate formula
within the bound `assert_scores_as_each_estimate_alone` derives from
each row's scale. The oracle's score is a quadratic form shifted to the
best-scored column, within the bound `assert_oracle_scores_as_alone`
derives from the same data. The regressogram runner's `linear_molded`
row takes the same scorer. The oracle steps from a start to the solution
of its normal equations, summed chunk by chunk, while they are well
conditioned, so there its weighted RMS is compared with the stacked
design's to 1e-12 relative or 1e-15 absolute; on a singular design it
equals the stacked design's `lstsq` bit for bit.
A run's truth at a rate coarser than its grid's finest sums rows of the
finest rate's, so it agrees with `true_energy` within 4e-15 relative:
pairwise summation of up to 10^4 rows carries a few roundings each.
Every other comparison is `==` or `np.array_equal`.
"""

import dataclasses
import math
import tracemalloc

import numpy as np
import pytest

import sesame.experiments as exp
import sesame.scenarios as scn
from reference import (
    gather_predict_rows,
    interface_readings,
    masked_rms_relative_error,
    oracle_rms,
    scaled_cond,
    stacked_fit_oracle,
)
from sesame.battery import (
    rms_relative_difference,
    rms_relative_error,
    sample_interface,
    truth_rate,
)
from sesame.collector import KeyedRows, aggregate_response
from sesame.constructor import TrainingSet, build_model, stretch
from sesame.errors import AlignmentError, ConfigurationError
from sesame.tracesim import true_energy

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
    """The oracle's G = A^T A from a zero start, bit for bit, so both
    pick the same path: the sum over chunks of `_CHUNK_ROWS` rows of the
    top block of each chunk's GEMM B A, B = [A^T; -1] over its
    positive-truth rows in C order, starting from zeros: GEMM rounds
    differently on other layouts."""
    n1 = 1 + x.shape[1]
    gh = np.zeros((n1 + 1, n1))
    for start in range(0, len(y), exp._CHUNK_ROWS):
        xc, yc = x[start:start + exp._CHUNK_ROWS], y[start:start + exp._CHUNK_ROWS]
        ok = yc > 0
        if ok.any():
            w = 1.0 / yc[ok]
            b = np.ascontiguousarray(
                np.vstack([w, xc[ok].T * w, -np.ones_like(w)]))
            gh += b @ b[:n1].T
    return gh[:n1]


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


def assert_scores_as_each_estimate_alone(got, x, y, coefs, want):
    """`got[j]`, the chunked score of column j of `coefs` (1 + n, k),
    equals `want[j]`, the per-estimate formula's, within a bound from
    each row's scale.

    With u = eps / 2, row i's relative error r_i, and its scale
    S_i = (|c0| + |x_i| @ |c[1:]|) / y_i:
    - the scorer's a_i @ c - 1 rounds 1 / y_i, each x_ij / y_i, a
      coefficient scaled by t / T, each product and the n additions, so
      it is within (n + 4) u S_i of a_i @ c, and subtracting 1 adds
      u |r_i|;
    - the formula's (c0 + x_i @ c[1:]) t / T - y_i, divided by y_i, is
      within (n + 2) u S_i + 2 u |r_i|;
    so the two relative errors differ by at most
    e_i = (2 n + 7) u S_i + 3 u |r_i|, one u of slack for second order.
    Over the N scored rows their RMS values then differ by at most
    sqrt(mean(e_i^2)) (the triangle inequality), plus each side's
    rounding of the squares, the sum, the division and the square root:
    numpy's pairwise sum of nonnegative terms rounds at most
    ceil(log2(N / 128)) + 18 times, and the scorer adds one rounding a
    chunk. Each side's sum counts its own N; 4 roundings beyond the sum
    are counted for each.
    """
    n = x.shape[1]
    u = np.finfo(float).eps / 2
    ok = y > 0
    xo, yo = x[ok], y[ok]
    scale = (np.abs(coefs[0]) + np.abs(xo) @ np.abs(coefs[1:])) / yo[:, None]
    rel = (coefs[0] + xo @ coefs[1:]) / yo[:, None] - 1.0
    e = (2 * n + 7) * u * scale + 3 * u * np.abs(rel)
    roundings = (2 * (max(0, math.ceil(math.log2(len(yo) / 128))) + 22)
                 + math.ceil(len(y) / exp._CHUNK_ROWS))
    bound = np.sqrt(np.mean(e * e, axis=0)) + roundings * u * np.asarray(want)
    assert got.shape == bound.shape
    assert (np.abs(got - np.asarray(want)) <= bound).all(), (got, want, bound)


def assert_oracle_scores_as_alone(got, x, y, coefs, coef, want):
    """`got[-1]`, the chunked score of the oracle's coefficients `coef`
    by the shifted form, equals `want`, the per-estimate formula's, within
    a bound from the data; `got[:-1]` are the chunked scores of the
    columns of `coefs` (1 + n, k) that the form starts from.

    With u = eps / 2, N scored rows a_i of A = [1 X] / y, C chunks of at
    most K rows, and j the column of least score (the least SSE, as the
    square root is monotone; every tied column is tried), d = c - c_j
    and r_i = a_i @ c_j - 1. Over the scorer's computed rows and
    residuals, SSE_j + 2 d^T H_j + d^T G d is exactly sum_i rho_i^2, with
    rho_i their a_i @ c - 1, so the bound has three parts:
    - the form's rounding, E: SSE_j is a sum of squares, within
      (ceil(log2(N / 128)) + 21 + C) u SSE_j (the pairwise sum, the
      square, the chunk sums and the form's two additions); each entry
      of H_j and G is a BLAS dot product over a chunk, which rounds at
      most K times in any order, summed over C chunks and then taken
      with d, so 2 d^T H_j and d^T G d are within
      2 (K + C + n + 3) u |d|^T sum_i |a_i| |r_i| and
      (K + C + 2 n + 4) u |d|^T (sum_i |a_i| |a_i|^T) |d|, one u of
      slack each. Clamping the form at 0 moves it no further from
      sum_i rho_i^2 >= 0.
    - the square root: with p the clamped form / N and q = mean(rho^2),
      |sqrt p - sqrt q| <= min(|p - q| / (sqrt p + sqrt q), sqrt |p - q|),
      plus 2 u got for the division and the root. sqrt q >= want - B.
    - rho against the formula's relative errors r^c_i of c, B: the
      scorer's r_i is within (n + 4) u S_i + u |r_i| of its exact value,
      S_i = |a_i| @ |c_j| (see `assert_scores_as_each_estimate_alone`);
      the computed a_i @ d within 3 u |a_i| @ |d| (a_i rounds twice, d
      once); and the formula's within (n + 2) u (S_i + |a_i| @ |d|)
      + 2 u |r^c_i|. So rho_i differs by at most
      e_i = (2 n + 7) u S_i + (n + 6) u |a_i| @ |d| + 2 u |r_i|
      + 3 u |r^c_i|, one u of slack for second order, and the RMS values
      by B = sqrt(mean(e_i^2)) + (ceil(log2(N / 128)) + 22) u want, the
      formula's own rounding as above.
    """
    n, k = x.shape[1], coefs.shape[1]
    u = np.finfo(float).eps / 2
    ok = y > 0
    a = np.column_stack([np.ones(ok.sum()), x[ok]]) / y[ok][:, None]
    big_n, abs_a = len(a), np.abs(a)
    depth = max(0, math.ceil(math.log2(big_n / 128))) + 18
    rows = min(len(y), exp._CHUNK_ROWS)
    chunks = math.ceil(len(y) / exp._CHUNK_ROWS)
    rel_c = np.abs(a @ coef - 1.0)
    got = np.asarray(got)
    bounds = []
    for j in np.flatnonzero(got[:k] == got[:k].min()):
        d = np.abs(coef - coefs[:, j])
        rel = np.abs(a @ coefs[:, j] - 1.0)
        ad = abs_a @ d
        e = ((2 * n + 7) * u * (abs_a @ np.abs(coefs[:, j]))
             + (n + 6) * u * ad + 2 * u * rel + 3 * u * rel_c)
        b = math.sqrt(np.mean(e * e)) + (depth + 22) * u * want
        err = ((depth + 21 + chunks) * u * (rel @ rel)
               + 2 * (rows + chunks + n + 3) * u * (d @ (abs_a.T @ rel))
               + (rows + chunks + 2 * n + 4) * u * (ad @ ad)) / big_n
        den = got[-1] + max(0.0, want - b)
        root = math.sqrt(err)
        if den > 0:
            root = min(root, err / den)
        bounds.append(root + 2 * u * got[-1] + b)
    assert abs(got[-1] - want) <= max(bounds), (got, want, bounds)


def test_molding_report_equals_scoring_each_estimate_alone(t61):
    sc, arts, models = t61
    report = exp.run_molding(sc)
    for rate in sc.rate_grid:
        truth = arts.truth(rate)
        battery = report.value(rate, exp.BATTERY_ESTIMATOR)
        if battery is not None:
            est = aggregate_response(arts.readings, 1.0 / rate)
            assert battery == masked_rms_relative_error(est, truth)
        dm = arts.design(rate)
        coefs, alone = [], []
        for name in exp.MOLDED_VARIANTS:
            model = models[name]
            coefs.append(model.coefficients(1.0 / rate))
            alone.append(masked_rms_relative_error(
                model.predict_rows(dm.x, 1.0 / rate), truth))
        coefs = np.column_stack(coefs)
        coef = exp._fit_oracle(dm.x, truth, start=coefs)
        scores = np.array([report.value(rate, name) for name in
                           exp.MOLDED_VARIANTS + (exp.ORACLE_ESTIMATOR,)])
        assert_scores_as_each_estimate_alone(
            scores[:-1], dm.x, truth, coefs, alone)
        assert_oracle_scores_as_alone(
            scores, dm.x, truth, coefs, coef, masked_rms_relative_error(
                coef[0] + dm.x @ coef[1:], truth))


# one row, one full chunk with and without one more row, and four full
# chunks with and without a last chunk of one row
@pytest.mark.parametrize("m", [1, exp._CHUNK_ROWS, exp._CHUNK_ROWS + 1,
                               4 * exp._CHUNK_ROWS, 4 * exp._CHUNK_ROWS + 1])
def test_scorer_and_oracle_at_the_chunk_edges(m):
    rng = np.random.default_rng(m)
    x = np.asfortranarray(rng.uniform(0.0, 2.0, (m, 3)))
    singular = np.asfortranarray(np.column_stack([x, x[:, :1]]))
    for name, y in truths(rng, m).items():
        if not (y > 0).any():
            with pytest.raises(ConfigurationError, match="no positive"):
                exp._fit_oracle(x, y)
            with pytest.raises(ConfigurationError, match="no positive"):
                exp._affine_rms(x, y, np.ones((4, 1)))
            continue
        coef = exp._fit_oracle(x, y)
        if scaled_cond(normal_matrix(x, y)) < exp._ORACLE_COND_BOUND:
            assert math.isclose(oracle_rms(x, y, coef),
                                oracle_rms(x, y, stacked_fit_oracle(x, y)),
                                rel_tol=1e-12, abs_tol=1e-15), name
        else:
            assert np.array_equal(coef, stacked_fit_oracle(x, y)), name
        # a duplicated column is singular at any length: lstsq on the
        # whole design, as the stacked reference solves it
        assert scaled_cond(normal_matrix(singular, y)) >= \
            exp._ORACLE_COND_BOUND
        assert np.array_equal(exp._fit_oracle(singular, y),
                              stacked_fit_oracle(singular, y)), name
        coefs = np.column_stack(
            [rng.normal(0.0, 1.0, (4, 3)), coef, np.zeros(4)])
        want = [masked_rms_relative_error(c[0] + x @ c[1:], y)
                for c in coefs.T]
        got = exp._affine_rms(x, y, coefs)
        assert_scores_as_each_estimate_alone(got, x, y, coefs, want)
        # a zero estimate is off by exactly 1 on every scored row
        assert got[-1] == 1.0


def test_scoring_holds_its_chunk_buffers_and_the_sums_only():
    # each call writes every chunk into one (1 + n, chunk) design buffer
    # and one (k, chunk) residual buffer; beyond them it holds a chunk's
    # mask of positive truths, one byte a row, and O(n^2) sums, never an
    # array of one float a row (1 MB here)
    rows, n, k = 16 * exp._CHUNK_ROWS + 5, 5, 4
    rng = np.random.default_rng(24)
    x = np.asfortranarray(rng.uniform(0.0, 2.0, (rows, n)))
    y = rng.uniform(0.5, 2.0, rows)
    coefs = rng.normal(0.0, 1.0, (1 + n, k))
    tracemalloc.start()
    try:
        exp._affine_rms(x, y, coefs, oracle=True)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= (8 * (1 + n + k) + 1) * exp._CHUNK_ROWS + 2**15


def test_chunked_scoring_keeps_the_error_types():
    x = np.ones((exp._CHUNK_ROWS + 1, 2), order="F")
    y = np.ones(exp._CHUNK_ROWS + 1)
    with pytest.raises(AlignmentError):
        exp._fit_oracle(x, y[:-1])
    with pytest.raises(AlignmentError):
        exp._affine_rms(x[:-1], y, np.ones((3, 1)))
    # the lengths are checked before the truths' signs
    with pytest.raises(AlignmentError):
        exp._fit_oracle(x, np.zeros(3))
    for truth in (np.zeros_like(y), -y, np.full_like(y, np.nan)):
        with pytest.raises(ConfigurationError):
            exp._fit_oracle(x, truth)
        with pytest.raises(ConfigurationError):
            exp._affine_rms(x, truth, np.ones((3, 1)))


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
    x, truth = arts.design(1.0).x, arts.truth(1.0)
    report = exp.run_regressogram_compare(sc)
    assert_scores_as_each_estimate_alone(
        np.array([report.value(1.0, "linear_molded")]), x, truth,
        model.coefficients(1.0)[:, None],
        [masked_rms_relative_error(model.predict_rows(x, 1.0), truth)])


@pytest.mark.parametrize("name", sorted(scn.BUILTIN_SCENARIOS))
def test_coarser_truths_sum_the_finest_rate(name):
    # every built-in grid nests, so in a run that keys its finest rate
    # each coarser truth sums the finest rate's, whichever rate is asked
    # for first; a run that keys nothing reads true_energy at every rate.
    # Each truth is held once built, and read-only
    sc = scn.builtin(name)
    arts = exp.simulate(sc)
    fine = max(sc.rate_grid)
    keys = sc.experiment in (scn.MOLDING, scn.REGRESSOGRAM)
    for rate in sorted(sc.rate_grid):
        got, want = arts.truth(rate), true_energy(arts.trace, 1.0 / rate)
        if rate == fine or not keys:
            assert np.array_equal(got, want)
        else:
            np.testing.assert_allclose(got, want, rtol=4e-15, atol=0)
        assert got is arts.truth(rate) and not got.flags.writeable
    fine_first = exp.RunArtifacts(sc, arts.trace)
    fine_first._truths.clear()
    for rate in sorted(sc.rate_grid, reverse=True):
        assert np.array_equal(fine_first.truth(rate), arts.truth(rate))


def test_artifacts_key_the_finest_rate_once(monkeypatch):
    # the finest rate is keyed once per run, whichever rate is asked for
    # first, and its design and truth are collect's and true_energy's;
    # the coarser truths are its sums, held once built, and any rate's
    # design is built again on each call
    sc = shortened("t61like")
    arts = exp.simulate(sc)
    fine = max(sc.rate_grid)
    keyed, collect_keyed = [], exp.collect_keyed
    built, collect = [], exp.collect

    def counted_keyed(trace, predictors, rate_hz):
        keyed.append(rate_hz)
        return collect_keyed(trace, predictors, rate_hz)

    def counted(trace, predictors, rate_hz):
        built.append(rate_hz)
        return collect(trace, predictors, rate_hz)

    monkeypatch.setattr(exp, "collect_keyed", counted_keyed)
    monkeypatch.setattr(exp, "collect", counted)
    rates = sorted({sc.base_rate_hz, *sc.rate_grid})
    assert fine in rates and len(rates) > 2
    for first in rates:
        keyed.clear()
        run = exp.RunArtifacts(sc, arts.trace)
        run._truths.clear()
        run.truth(first)
        for rate in rates:
            run.design(rate)
            run.truth(rate)
        assert keyed == [fine]
    assert np.array_equal(run.design(fine).x,
                          collect(arts.trace, sc.predictors, fine).x)
    assert np.array_equal(run.truth(fine), true_energy(arts.trace, 1.0 / fine))
    for rate in rates:
        if rate == fine:
            continue
        np.testing.assert_allclose(run.truth(rate),
                                   true_energy(arts.trace, 1.0 / rate),
                                   rtol=4e-15, atol=0)
        assert run.truth(rate) is run.truth(rate)
        built.clear()
        first, second = run.design(rate), run.design(rate)
        assert built == [rate, rate]
        assert not np.shares_memory(first.x, second.x)
        assert np.array_equal(first.x, second.x)
    assert keyed == [fine]


@pytest.mark.parametrize("name, grid", [
    *(pytest.param(name, None, id=name)
      for name in sorted(scn.BUILTIN_SCENARIOS)),
    pytest.param("noiseless_linear", (1 / 3, 0.4), id="molding-3s-2.5s")])
def test_each_run_builds_each_truth_once(name, grid, monkeypatch):
    # a run builds the truth at each interval once, from true_energy or
    # as a window of its keyed finest rate, however often its readings
    # and its scores read it: n85like's readings and its 4 Hz score read
    # one truth, and so do a molding run's 1 s readings and its 3 s
    # score, 3 s not being a whole number of its finest 2.5 s interval
    sc = scn.builtin(name)
    if sc.experiment != scn.ADAPTATION:
        sc = dataclasses.replace(sc, duration_s=1200.0)
    if grid is not None:
        sc = dataclasses.replace(sc, rate_grid=grid)
    built = []      # the interval of each truth built, in ticks
    energy, sums = exp.true_energy, KeyedRows.truth_sums

    def counted_energy(trace, interval_s):
        built.append(round(interval_s / trace.tick_s))
        return energy(trace, interval_s)

    def counted_sums(keyed, windows):
        fine = round(keyed.interval_s / sc.tick_s)
        built.extend(r * fine for r in windows)
        return sums(keyed, windows)

    monkeypatch.setattr(exp, "true_energy", counted_energy)
    monkeypatch.setattr(KeyedRows, "truth_sums", counted_sums)
    exp.run_scenario(sc)
    assert built and len(built) == len(set(built)), sorted(built)


@pytest.mark.parametrize("name", ["t61like", "quadratic_cpu"])
def test_keyed_runs_read_the_run_truth(name, monkeypatch):
    # a molding and a regressogram run read each reading period's energy,
    # or each of t61like's 1.6 s tap spacings, from the keyed finest
    # rate's sums: true_energy is never called at that period, and the
    # readings are sample_interface's fed the run's truth, bit for bit
    sc = shortened(name)
    called = []

    def counted(trace, interval_s):
        called.append(interval_s)
        return true_energy(trace, interval_s)

    monkeypatch.setattr(exp, "true_energy", counted)
    arts = exp.simulate(sc)
    exp.run_scenario(sc)
    rate = truth_rate(sc.battery)
    assert not [t for t in called if math.isclose(t, 1.0 / rate)]
    want = sample_interface(arts.trace, sc.battery, sc.battery_seed(),
                            arts.truth(rate))
    assert np.array_equal(arts.readings.values.view(np.int64),
                          want.values.view(np.int64))
    # the period is a whole number r of the finest interval, and its
    # energies are the fine truth's sums of r rows, bit for bit
    fine = arts.truth(max(sc.rate_grid))
    r = round(max(sc.rate_grid) / rate)
    assert r > 1 and math.isclose(max(sc.rate_grid) / rate, r)
    c = len(fine) // r
    assert np.array_equal(arts.truth(rate),
                          fine[:c * r].reshape(c, r).sum(axis=1))
    np.testing.assert_allclose(arts.truth(rate),
                               true_energy(arts.trace, 1.0 / rate),
                               rtol=4e-15, atol=0)


def test_adaptation_readings_are_sample_interfaces():
    # an adaptation run keys no rate: its readings take true_energy's
    # energies, as sample_interface's do, bit for bit
    sc = scn.builtin("dvs_flip")
    arts = exp.simulate(sc)
    want = interface_readings(arts.trace, sc.battery, sc.battery_seed())
    assert np.array_equal(arts.readings.values.view(np.int64),
                          want.values.view(np.int64))
    assert arts._keyed is None


def test_a_grid_that_does_not_nest_takes_true_energy():
    # 0.4 Hz is 2.5 intervals of 1 Hz, so it is not summed from them
    sc = dataclasses.replace(shortened("t61like"), rate_grid=(0.4, 1.0))
    arts = exp.simulate(sc)
    for rate in sc.rate_grid:
        assert np.array_equal(arts.truth(rate),
                              true_energy(arts.trace, 1.0 / rate))


def test_counted_rows_score_as_the_rows_repeated(t61):
    # keyed rows with their counts score, fit the oracle and take its
    # singular fallback as the whole design does, to roundoff: each sum
    # weighs a distinct row by its count instead of adding its copies
    sc, arts, models = t61
    fine = max(sc.rate_grid)
    keyed, x, y = arts.keyed(), arts.design(fine).x, arts.truth(fine)
    coefs = np.column_stack([models[name].coefficients(1.0 / fine)
                             for name in exp.MOLDED_VARIANTS])
    np.testing.assert_allclose(
        exp._affine_rms(keyed.x, keyed.y, coefs, oracle=True,
                        counts=keyed.counts),
        exp._affine_rms(x, y, coefs, oracle=True), rtol=1e-12, atol=0)

    # a duplicated first column sends the oracle to its lstsq fallback,
    # which weighs each distinct row by the root of its count
    def fallback(x, y, counts=None):
        # the fit on [X x0], as one on X
        coef = exp._fit_oracle(np.column_stack([x, x[:, :1]]), y,
                               counts=counts)
        return np.concatenate([[coef[0], coef[1] + coef[-1]], coef[2:-1]])

    assert math.isclose(
        oracle_rms(x, y, fallback(keyed.x, keyed.y, keyed.counts)),
        oracle_rms(x, y, fallback(x, y)), rel_tol=1e-12, abs_tol=1e-15)


def test_counted_relative_difference_equals_the_rows_repeated():
    rng = np.random.default_rng(7)
    counts = rng.integers(1, 6, 1001)
    for name, truth in truths(rng, 1001).items():
        if name == "nan":
            continue
        diff = rng.normal(0.0, 0.1, 1001)
        want = rms_relative_difference(np.repeat(diff, counts),
                                       np.repeat(truth, counts))
        got = rms_relative_difference(diff.copy(), truth, counts)
        assert math.isclose(got, want, rel_tol=1e-13), name
