"""Scenario runners that emit the evaluation artifacts as CSV files.

Every runner is deterministic given the scenario seed: two runs write
byte-identical reports. Estimates are always scored as RMS relative error
against exact ground-truth energy at the evaluated rate. A molding run
scores its four molded variants and the per-rate oracle, all affine in
the collected rates, in one chunked pass over the oracle's weighted
design that also sums the oracle's normal equations, so the oracle is
fitted and scored without a second pass.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, field, replace

import numpy as np

from .battery import BatteryReadings, rms_relative_error, sample_interface
from .collector import DesignMatrix, aggregate_response, collect
from .constructor import EnergyModel, TrainingSet
from .constructor import fit_regressogram, iterate_construction, stretch
from .errors import AlignmentError, ConfigurationError, InsufficientDataError
from .errors import MissingRowError
from .manager import (
    ConfigurationKey,
    ModelTable,
    install_model,
    lookup_or_create,
    maybe_rebuild,
    monitor,
)
from .scenarios import (
    ADAPTATION,
    ERROR_VS_RATE,
    MOLDING,
    REGRESSOGRAM,
    ScenarioConfig,
    save_scenario,
)
from .tracesim import Trace, _ratio_as_int, gen_trace, true_energy

BATTERY_ESTIMATOR = "battery_interface"
ORACLE_ESTIMATOR = "external_oracle"

MOLDED_VARIANTS = ("molded_no_pca", "molded_all_pcs", "molded_l2", "molded_l1")


def _fmt(value: float) -> str:
    return format(value, ".12g")


@dataclass
class ReportRow:
    rate_hz: float
    estimator: str
    rms_rel_error: float | None     # None = rate unsupported by the source

    @property
    def accuracy(self) -> float | None:
        if self.rms_rel_error is None:
            return None
        return 1.0 - self.rms_rel_error


@dataclass
class ErrorReport:
    scenario: str
    seed: int
    rows: list[ReportRow] = field(default_factory=list)

    def add(self, rate_hz: float, estimator: str,
            rms: float | None) -> None:
        self.rows.append(ReportRow(rate_hz, estimator, rms))

    def value(self, rate_hz: float, estimator: str) -> float | None:
        for row in self.rows:
            if row.estimator == estimator and math.isclose(row.rate_hz, rate_hz):
                return row.rms_rel_error
        raise MissingRowError((rate_hz, estimator))

    def write_csv(self, path: str) -> None:
        with open(path, "w", newline="") as fh:
            fh.write("rate_hz,estimator,rms_rel_error,accuracy\n")
            for row in self.rows:
                if row.rms_rel_error is None:
                    fh.write(f"{_fmt(row.rate_hz)},{row.estimator},,\n")
                else:
                    fh.write(f"{_fmt(row.rate_hz)},{row.estimator},"
                             f"{_fmt(row.rms_rel_error)},{_fmt(row.accuracy)}\n")


@dataclass
class RunArtifacts:
    """Shared simulation products for one scenario run.

    The truth at the finest rate of the scenario's grid is `true_energy`'s.
    A rate whose interval is a whole number r > 1 of that rate's sums r
    of its rows at a time, within a few roundings of `true_energy`; any
    other rate is `true_energy`'s. The rule reads only the grid, so a
    rate's values do not depend on which rate was asked for first.

    Two arrays are kept once built: the design at the scenario's base
    rate, which a runner both trains and scores on, and the truth at the
    finest rate, which every coarser truth sums. Any other rate's design
    or truth is built afresh on each call, so it is held only as long as
    its caller holds it, and a second call for the same rate pays for it
    again: a caller that needs one of them twice holds the array it got,
    as `run_molding` does.
    """

    scenario: ScenarioConfig
    trace: Trace
    readings: BatteryReadings

    _base_design: DesignMatrix | None = None
    _fine_truth: np.ndarray | None = None

    def design(self, rate_hz: float) -> DesignMatrix:
        if rate_hz != self.scenario.base_rate_hz:
            return collect(self.trace, self.scenario.predictors, rate_hz)
        if self._base_design is None:
            self._base_design = collect(
                self.trace, self.scenario.predictors, rate_hz)
        return self._base_design

    def truth(self, rate_hz: float) -> np.ndarray:
        fine = max(self.scenario.rate_grid)
        if rate_hz == fine:
            if self._fine_truth is None:
                self._fine_truth = true_energy(self.trace, 1.0 / fine)
            return self._fine_truth
        tick = self.trace.tick_s
        k = _ratio_as_int(1.0 / rate_hz, tick, "interval")
        r, rest = divmod(k, _ratio_as_int(1.0 / fine, tick, "interval"))
        if r > 1 and not rest:
            m = len(self.trace) // k
            return self.truth(fine)[:m * r].reshape(m, r).sum(axis=1)
        return true_energy(self.trace, 1.0 / rate_hz)


def simulate(sc: ScenarioConfig) -> RunArtifacts:
    """Generate the trace and the battery readings; the predictors are
    read off the trace when a design matrix is collected."""
    trace = gen_trace(sc.system, sc.workload, sc.duration_s, sc.tick_s,
                      sc.seed)
    readings = sample_interface(trace, sc.battery, seed=sc.battery_seed())
    return RunArtifacts(scenario=sc, trace=trace, readings=readings)


def _interface_rms(readings: BatteryReadings, rate_hz: float,
                   truth: np.ndarray) -> float | None:
    """Raw-interface RMS error against `truth` at `rate_hz`, or None when
    its interval is not a whole number of reading periods."""
    interval = 1.0 / rate_hz
    try:
        _ratio_as_int(interval, readings.period_s, "interval")
    except AlignmentError:
        return None
    return rms_relative_error(aggregate_response(readings, interval), truth)


# Rows per chunk of the scoring pass, sized to a core's 2 MB L2 cache. A
# chunk's weighted design and residuals take (n + 1 + estimators) * 8
# bytes a row, and its slices of x and y (n + 1) * 8 more: about 1.1 MB
# at 2^13 rows with 5 predictors and 4 estimators, so a chunk is read
# back from L2 by the sums that follow its writes, and scoring adds
# nothing row-length to a 100 Hz run's peak memory. Over t61like's 7
# rates (one thread, median of 25) the pass took 5.42 ms at 2^13 rows,
# against 5.80 ms at 2^12, 5.50 ms at 2^14 and 6.24 ms at 2^15; numpy's
# per-call cost stays small at 37 chunks for 300,000 rows.
_CHUNK_ROWS = 1 << 13


def _weighted_chunks(x: np.ndarray, y: np.ndarray, coefs: np.ndarray):
    """For each chunk of `_CHUNK_ROWS` rows, (A^T, R^T) over its rows
    with y > 0: A^T = ([1 X] / y)^T, one (1 + n, rows) array whose first
    row is w = 1 / y, and R^T = C^T A^T - 1, one (k, rows) array holding
    each column of `coefs` C (1 + n, k)'s relative errors. Chunks with no
    such row are skipped.

    Both arrays are views of two buffers that the call allocates once and
    every chunk overwrites: a caller that keeps a chunk past the next one
    copies it.

    Raises AlignmentError when x and y differ in length, and, once every
    chunk is read, ConfigurationError when no y is positive.
    """
    if len(y) != x.shape[0]:
        raise AlignmentError(f"design/truth length mismatch: "
                             f"{x.shape[0]} vs {len(y)}")
    n1, k = coefs.shape
    size = min(len(y), _CHUNK_ROWS)
    at_buf, r_buf = np.empty(n1 * size), np.empty(k * size)
    seen = False
    for start in range(0, len(y), _CHUNK_ROWS):
        xc, yc = x[start:start + _CHUNK_ROWS], y[start:start + _CHUNK_ROWS]
        ok = yc > 0
        if not ok.all():
            ok = np.flatnonzero(ok)
            xc, yc = xc[ok], yc[ok]
        rows = len(yc)
        if not rows:
            continue
        seen = True
        at = at_buf[:n1 * rows].reshape(n1, rows)
        np.divide(1.0, yc, out=at[0])
        np.multiply(xc.T, at[0], out=at[1:])
        rt = r_buf[:k * rows].reshape(k, rows)
        np.matmul(coefs.T, at, out=rt)
        rt -= 1.0
        yield at, rt
    if not seen:
        raise ConfigurationError("no positive truth values to compare against")


def _chunk_sums(x: np.ndarray, y: np.ndarray, coefs: np.ndarray,
                oracle: bool):
    """One pass over `_weighted_chunks`: the scored row count m and each
    column's sum of squared relative errors SSE, then g = A^T A, A^T 1
    and H = A^T R, which only a pass with `oracle` sums (else all 0)."""
    n1, k = coefs.shape
    m, sse = 0, np.zeros(k)
    g, at_1, h = np.zeros((n1, n1)), np.zeros(n1), np.zeros((n1, k))
    for at, rt in _weighted_chunks(x, y, coefs):
        m += at.shape[1]
        if oracle:
            # numpy's syrk path: a GEMM form of G, even at @ at.copy().T,
            # put noiseless_linear's oracle above its 1e-14 roundoff bound
            g += at @ at.T
            at_1 += at.sum(axis=1)
            h += at @ rt.T
        rt *= rt
        sse += rt.sum(axis=1)
    return m, sse, g, at_1, h


# Solving the normal equations loses about cond * eps of the
# coefficients' relative accuracy, cond being that of g scaled to a unit
# diagonal, which takes out the rate columns' spread of scales (1 to
# about 1e3): below 1e8, at most about 2e-8; the built-ins read at most
# about 4e3. The residual is stationary at the optimum, so an RMS error
# well above that moves by about its square, relative; an exact fit
# keeps an RMS of roundoff size, as lstsq's is.
_ORACLE_COND_BOUND = 1e8


def _fit_oracle(x: np.ndarray, y: np.ndarray, sums=None) -> np.ndarray:
    """Per-rate linear baseline minimizing the RMS *relative* error.

    Weighted least squares with 1/y weights over the rows with y > 0: the
    best tradeoff any affine model of these predictors can reach at this
    rate, so every molded variant is dominated by it in-sample. Its
    normal equations g = A^T A and A^T 1, A = [1 X] / y, come from
    `sums`, a `_chunk_sums` pass with the oracle's sums, or else from a
    pass of their own. With d = sqrt(diag(g)), the coefficients solve
    g c = A^T 1 scaled by d on both sides while the scaled matrix's
    condition number is below `_ORACLE_COND_BOUND`; at or above it, and
    when d holds a zero, they are `np.linalg.lstsq(A, 1)` over the whole
    A, stacked from copies of `_weighted_chunks`' reused chunks.
    """
    no_columns = np.empty((1 + x.shape[1], 0))
    _, _, g, at_1, _ = sums or _chunk_sums(x, y, no_columns, oracle=True)
    d = np.sqrt(np.diag(g))
    if d.all():
        gs = g / d / d[:, None]
        if np.linalg.cond(gs) < _ORACLE_COND_BOUND:
            return np.linalg.solve(gs, at_1 / d) / d
    a = np.hstack([at.copy()
                   for at, _ in _weighted_chunks(x, y, no_columns)]).T
    coef, *_ = np.linalg.lstsq(a, np.ones(len(a)), rcond=None)
    return coef


def _affine_rms(x: np.ndarray, y: np.ndarray, coefs: np.ndarray,
                oracle: bool = False) -> np.ndarray:
    """RMS relative error of each affine estimate c0 + x @ c[1:] against
    y over the rows with y > 0, for each column c of `coefs` (1 + n, k),
    and with `oracle` one more, the per-rate oracle's (`_fit_oracle`),
    all from one `_chunk_sums` pass; it raises `_weighted_chunks`' typed
    errors.

    Row i's relative error is a_i @ c - 1, a_i being row i of the
    oracle's weighted design. With j the column of least SSE and
    delta = c - c_j, the oracle's SSE is SSE_j + 2 delta^T H_j
    + delta^T g delta, exact for any c. Shifted to an estimate close to
    the oracle's (Chan, Golub and LeVeque's shifted data), the form
    cancels only small terms; an exact fit may round it below 0, read
    as 0.
    """
    sums = _chunk_sums(x, y, coefs, oracle)
    m, sse, g, _, h = sums
    if oracle:
        j = int(np.argmin(sse))
        delta = _fit_oracle(x, y, sums) - coefs[:, j]
        sse = np.append(sse, max(0.0, sse[j] + 2.0 * (delta @ h[:, j])
                                 + delta @ g @ delta))
    return np.sqrt(sse / m)


def _simulate_as(sc: ScenarioConfig, experiment: str) -> RunArtifacts:
    """`simulate(sc)`, once `sc` is known to be an `experiment` run."""
    if sc.experiment != experiment:
        raise ConfigurationError(
            f"scenario {sc.name} is a {sc.experiment} experiment")
    return simulate(sc)


# ---------------------------------------------------------------------------
# Runners
# ---------------------------------------------------------------------------

def run_error_vs_rate(sc: ScenarioConfig,
                      out_dir: str | None = None) -> ErrorReport:
    """Raw-interface RMS error across the rate grid (Fig 3 shaped data)."""
    arts = _simulate_as(sc, ERROR_VS_RATE)
    report = ErrorReport(sc.name, sc.seed)
    for rate in sc.rate_grid:
        report.add(rate, BATTERY_ESTIMATOR,
                   _interface_rms(arts.readings, rate, arts.truth(rate)))
    _write_outputs(sc, report, out_dir)
    return report


def train_molded_variants(sc: ScenarioConfig,
                          arts: RunArtifacts) -> dict[str, EnergyModel]:
    """Stretch once, then fit the four molded variants on the same rows,
    from one prepared training set and one PCA SVD."""
    dm_base = arts.design(sc.base_rate_hz)
    ts = TrainingSet(stretch(dm_base, arts.readings, sc.t_low_s))
    models = {
        "molded_no_pca": ts.fit(sc.fit_method, use_pca=False),
        "molded_all_pcs": ts.fit(sc.fit_method),
    }
    models["molded_l2"] = ts.fit(sc.fit_method, l=min(2, len(ts.kept)))
    models["molded_l1"] = ts.fit(sc.fit_method, l=1)
    return models


def run_molding(sc: ScenarioConfig,
                out_dir: str | None = None) -> ErrorReport:
    """Molded-model variants vs raw interface vs the per-rate oracle.

    Across the rates the run holds the finest truth and the base-rate
    design, built in that order, so the truth kernel's temporaries are
    freed before the design is held; each other rate's design and truth
    are held only while that rate is scored.
    """
    arts = _simulate_as(sc, MOLDING)
    arts.truth(max(sc.rate_grid))
    models = train_molded_variants(sc, arts)
    report = ErrorReport(sc.name, sc.seed)
    for rate in sc.rate_grid:
        truth = arts.truth(rate)
        report.add(rate, BATTERY_ESTIMATOR,
                   _interface_rms(arts.readings, rate, truth))
        coefs = np.column_stack([models[name].coefficients(1.0 / rate)
                                 for name in MOLDED_VARIANTS])
        rms = _affine_rms(arts.design(rate).x, truth, coefs, oracle=True)
        for name, value in zip(MOLDED_VARIANTS + (ORACLE_ESTIMATOR,), rms):
            report.add(rate, name, float(value))
    _write_outputs(sc, report, out_dir)
    return report


@dataclass
class AdaptationResult:
    times_s: list[float]
    errors: list[float | None]       # None while collecting training data
    rebuild_flags: list[int]
    table: ModelTable

    @property
    def rebuild_count(self) -> int:
        return sum(self.rebuild_flags)

    def monitored(self) -> list[tuple[float, float]]:
        return [(t, e) for t, e, in zip(self.times_s, self.errors)
                if e is not None]

    def write_csv(self, path: str) -> None:
        with open(path, "w", newline="") as fh:
            fh.write("t_s,window_error,rebuild_flag\n")
            for t, e, flag in zip(self.times_s, self.errors,
                                  self.rebuild_flags):
                err = "" if e is None else _fmt(e)
                fh.write(f"{_fmt(t)},{err},{flag}\n")


def run_adaptation(sc: ScenarioConfig,
                   out_dir: str | None = None) -> AdaptationResult:
    """Cold-start, monitor per window, rebuild on threshold crossings.

    Window-level aggregates double as the stretched training rows, so a
    construction dataset is `train_windows` consecutive windows.
    """
    arts = _simulate_as(sc, ADAPTATION)
    window = sc.window_s
    # one response per window row: DesignMatrix refuses unequal counts
    dm_win = replace(arts.design(1.0 / window),
                     y=aggregate_response(arts.readings, window))
    m = dm_win.m
    if m < sc.train_windows + 1:
        raise InsufficientDataError(
            f"{m} windows cannot hold a {sc.train_windows}-window "
            "construction dataset plus monitoring")

    def train_on(w0: int, w1: int) -> EnergyModel:
        dm = replace(dm_win, x=dm_win.x[w0:w1],
                     t_start_s=dm_win.t_start_s[w0:w1], y=dm_win.y[w0:w1])
        return iterate_construction(dm, sc.accuracy_target,
                                    method=sc.fit_method)

    table = ModelTable(threshold=sc.threshold, window_s=window)
    key = ConfigurationKey.canonical(sc.config_triples)
    lookup_or_create(table, key)

    rows: list[tuple[float, float | None, int]] = []
    span = sc.train_windows
    collect_until = span                # the cold start dataset
    for w in range(m):
        t_end = (w + 1) * window
        err, rebuilt = None, False
        if w == collect_until - 1:
            install_model(table, key, train_on(w + 1 - span, w + 1), t_end)
        elif w >= collect_until:
            err = monitor(table, t_end, dm_win.x[w], float(dm_win.y[w]))
            if err is not None:
                rebuilt = maybe_rebuild(table, t_end, err, w + 1 + span <= m)
        if rebuilt:
            # monitoring pauses while the fresh dataset accumulates
            collect_until = w + 1 + span
        rows.append((t_end, err, int(rebuilt)))
    times, errors, flags = (list(col) for col in zip(*rows))
    result = AdaptationResult(times, errors, flags, table)
    _write_outputs(sc, result, out_dir)
    return result


def run_regressogram_compare(sc: ScenarioConfig,
                             out_dir: str | None = None) -> ErrorReport:
    """Linear molded model vs per-rate regressogram on an ideal interface.

    The regressogram trains on ground-truth responses at each rate, which
    is the premise that makes it a what-if upper line rather than part of
    the battery-fed pipeline. Its row is the fit's in-sample error
    (`RegressogramModel.training_error`): it is scored on the rows it was
    fitted on, so the rows are binned once per rate. The run holds what
    `run_molding` holds across the rates.
    """
    arts = _simulate_as(sc, REGRESSOGRAM)
    arts.truth(max(sc.rate_grid))
    ts = TrainingSet(
        stretch(arts.design(sc.base_rate_hz), arts.readings, sc.t_low_s))
    linear = ts.fit(sc.fit_method, l=min(sc.pca_l, len(ts.kept)))
    report = ErrorReport(sc.name, sc.seed)
    for rate in sc.rate_grid:
        dm, truth = arts.design(rate), arts.truth(rate)
        coef = linear.coefficients(1.0 / rate)[:, None]
        report.add(rate, "linear_molded",
                   float(_affine_rms(dm.x, truth, coef)[0]))
        reg = fit_regressogram(dm.x, truth, k=sc.regressogram_k,
                               columns=dm.columns)
        report.add(rate, "regressogram", reg.training_error)
    _write_outputs(sc, report, out_dir)
    return report


def run_scenario(sc: ScenarioConfig, out_dir: str | None = None):
    """Dispatch on the scenario's experiment kind."""
    runner = {
        ERROR_VS_RATE: run_error_vs_rate,
        MOLDING: run_molding,
        ADAPTATION: run_adaptation,
        REGRESSOGRAM: run_regressogram_compare,
    }[sc.experiment]
    return runner(sc, out_dir)


def _write_outputs(sc: ScenarioConfig, result: ErrorReport | AdaptationResult,
                   out_dir: str | None) -> None:
    """Write a run's files into `out_dir`, unless it is None: the report,
    or the adaptation trace and the decision log, and `run.json`, the
    scenario document that `sesame run` replays."""
    if out_dir is None:
        return
    os.makedirs(out_dir, exist_ok=True)
    if isinstance(result, AdaptationResult):
        result.write_csv(os.path.join(out_dir, "adaptation.csv"))
        with open(os.path.join(out_dir, "decisions.log"), "w") as fh:
            fh.writelines(line + "\n" for line in result.table.decision_log)
    else:
        result.write_csv(os.path.join(out_dir, "report.csv"))
    save_scenario(sc, os.path.join(out_dir, "run.json"))
