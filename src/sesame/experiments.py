"""Scenario runners that emit the evaluation artifacts as CSV files.

Every runner is deterministic given the scenario seed: two runs on one
BLAS kernel set write byte-identical reports. Estimates are always
scored as RMS relative error against exact ground-truth energy at the
evaluated rate. A molding run scores its four molded variants and the
per-rate oracle, all affine in the collected rates, in one chunked pass
over the oracle's weighted design that also sums the oracle's normal
equations, so the oracle is fitted and scored without a second pass.

Every run, the first time it asks for its finest rate, holds that rate
as keyed rows (`collector.collect_keyed`): the distinct design rows and
truths, a count for each, and each row's key into them. A molding or
regressogram run stretches, scores and fits that rate from the distinct
rows, each weighed by its count, so that work follows the trace's runs
(1,013 distinct rows of t61like's 300,000 at 100 Hz), not its length.
An error-vs-rate run reads only the truths, so it keys its finest rate
with no predictors, and its key follows the truth's runs alone. Every
coarser truth whose interval is a whole number of the finest one's sums
the keyed finest rate's. Every coarser design is collected and scored
row by row.

The battery readings of every run but an adaptation run take their
energy from the run's truth (`RunArtifacts.truth` at the reading period,
or at the filtered kind's tap spacing). On every such built-in that
period is a whole multiple of the finest interval, so the readings are
the keyed truth's sums and the run never calls `true_energy`. An
adaptation run keys no rate, and its readings are
`battery.sample_interface`'s.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, field, replace

import numpy as np

from .battery import BatteryReadings, rms_relative_error, sample_interface
from .battery import sample_truth, truth_rate
from .collector import DesignMatrix, KeyedRows, aggregate_response
from .collector import collect, collect_keyed
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

    The finest rate of the scenario's grid is held as keyed rows (`keyed`,
    `collector.KeyedRows`), built from the trace's runs the first time
    the run asks for that rate: each fine row's key into the distinct
    design rows and truths. Its design and truth are `collect`'s and
    `true_energy`'s, bit for bit. An error-vs-rate run reads truths
    alone, so it keys its truth alone, with no predictors, and any
    design it is asked for is `collect`'s. The truth at a rate whose
    interval is a whole number r > 1 of the finest rate's sums r of its
    rows at a time, within a few roundings of `true_energy`, as the fine
    truth is gathered through the key, block by block
    (`KeyedRows.truth_sums`), for every such rate of the grid and of
    the battery readings at once; those sums are held once built. Any
    other rate's truth is `true_energy`'s. The rule reads only the grid
    and the battery, so a rate's values do not depend on which rate was
    asked for first.

    The readings, when not given, are sampled once the artifacts are
    built. Every run but an adaptation run keys its finest rate, and its
    readings take each period's energy from `truth(1 / period)`
    (`battery.sample_truth`): the keyed sums where the period is a whole
    multiple of the finest interval, else `true_energy`, so a run
    computes its energy once. An adaptation run never holds its finest
    rate, and keying dvs_flip's 100 Hz truth alone and summing it to 1 s
    took 6.6 ms against 1.5 ms for its 1 s `true_energy` (2 cores, median
    of 9), so its readings are `sample_interface`'s.

    Scoring, fits and, when the base rate is the finest, `stretch` read
    the distinct rows and their counts. Any other rate's design, and
    `true_energy`'s truths, are built afresh on each call, so each is
    held only as long as its caller holds it, and a second call for the
    same rate pays for it again.
    """

    scenario: ScenarioConfig
    trace: Trace
    readings: BatteryReadings | None = None   # sampled when not given

    _keyed: KeyedRows | None = None
    _sums: dict[int, np.ndarray] = field(default_factory=dict)

    def __post_init__(self):
        if self.readings is None:
            sc = self.scenario
            if sc.experiment == ADAPTATION:
                self.readings = sample_interface(self.trace, sc.battery,
                                                 sc.battery_seed())
            else:
                self.readings = sample_truth(self.trace, sc.battery,
                                             sc.battery_seed(), self.truth)

    @property
    def fine_rate_hz(self) -> float:
        return max(self.scenario.rate_grid)

    @property
    def _truth_alone(self) -> bool:
        """Whether the run reads truths alone: an error-vs-rate run."""
        return self.scenario.experiment == ERROR_VS_RATE

    def keyed(self) -> KeyedRows:
        """The finest rate's design and truth as keyed rows, built on the
        first call and held from then on; the truth alone in a run that
        reads truths alone."""
        if self._keyed is None:
            specs = () if self._truth_alone else self.scenario.predictors
            self._keyed = collect_keyed(self.trace, specs, self.fine_rate_hz)
        return self._keyed

    def base_rows(self) -> DesignMatrix | KeyedRows:
        """The rows that `stretch` trains on: the keyed rows when the base
        rate is the finest rate, else `design` at the base rate."""
        base = self.scenario.base_rate_hz
        if base == self.fine_rate_hz and not self._truth_alone:
            return self.keyed()
        return self.design(base)

    def design(self, rate_hz: float) -> DesignMatrix:
        if rate_hz == self.fine_rate_hz and not self._truth_alone:
            return self.keyed().design()
        return collect(self.trace, self.scenario.predictors, rate_hz)

    def _fine_multiple(self, rate_hz: float) -> int | None:
        """r when `rate_hz`'s interval is a whole number r > 1 of the
        finest rate's, else None."""
        tick = self.trace.tick_s
        k = _ratio_as_int(1.0 / rate_hz, tick, "interval")
        r, rest = divmod(k, _ratio_as_int(1.0 / self.fine_rate_hz, tick,
                                          "interval"))
        return r if r > 1 and not rest else None

    def truth(self, rate_hz: float) -> np.ndarray:
        if rate_hz == self.fine_rate_hz:
            return self.keyed().truth()
        r = self._fine_multiple(rate_hz)
        if r is None:
            return true_energy(self.trace, 1.0 / rate_hz)
        if r not in self._sums:
            # the fine truth is gathered once, in blocks, for every such
            # rate of the grid and of the battery
            rates = (*self.scenario.rate_grid,
                     truth_rate(self.scenario.battery))
            windows = sorted({r, *filter(None, map(self._fine_multiple,
                                                   rates))})
            self._sums = dict(zip(windows, self.keyed().truth_sums(windows)))
        return self._sums[r]


def simulate(sc: ScenarioConfig) -> RunArtifacts:
    """Generate the trace and the battery readings; the predictors are
    read off the trace when a design matrix is collected."""
    return RunArtifacts(sc, gen_trace(sc.system, sc.workload, sc.duration_s,
                                      sc.tick_s, sc.seed))


def _interface_rms(arts: RunArtifacts, rate_hz: float) -> float | None:
    """Raw-interface RMS error against `arts`' truth at `rate_hz`, or None
    when its interval is not a whole number of reading periods; the truth
    is built, or gathered through the key, only when the readings reach
    that rate."""
    readings = arts.readings
    try:
        _ratio_as_int(1.0 / rate_hz, readings.period_s, "interval")
    except AlignmentError:
        return None
    return rms_relative_error(aggregate_response(readings, 1.0 / rate_hz),
                              arts.truth(rate_hz))


# Rows per chunk of the scoring pass, sized to a core's 2 MB L2 cache. A
# chunk's weighted design and residuals take (n + 1 + estimators) * 8
# bytes a row, and its slices of x and y (n + 1) * 8 more: about 1.1 MB
# at 2^13 rows with 5 predictors and 4 estimators, so a chunk is read
# back from L2 by the sums that follow its writes, and scoring adds
# nothing row-length to a 100 Hz run's peak memory. Over t61like's 7
# rates (one thread, median of 25, interleaved) the pass took 6.9 ms at
# 2^13 rows, against 7.4-7.5 ms at 2^12, 7.0 ms at 2^14 and 11.7-12.0 ms
# at 2^15; numpy's per-call cost stays small at 37 chunks for 300,000
# rows.
_CHUNK_ROWS = 1 << 13


def _weighted_chunks(x: np.ndarray, y: np.ndarray, coefs: np.ndarray,
                     counts: np.ndarray | None = None):
    """For each chunk of `_CHUNK_ROWS` rows, (B, c): B = [A^T; R^T] over
    its rows with y > 0, one (1 + n + k, rows) array, and c those rows'
    `counts` (None without counts). B's first 1 + n rows are A^T = ([1
    X] / y)^T, whose first row is w = 1 / y, and its last k rows are R^T
    = C^T A^T - 1, each column of `coefs` C (1 + n, k)'s relative
    errors. Chunks with no such row are skipped.

    Every chunk is a view of one buffer that the call allocates once and
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
    buf = np.empty((n1 + k) * size)
    seen = False
    for start in range(0, len(y), _CHUNK_ROWS):
        xc, yc = x[start:start + _CHUNK_ROWS], y[start:start + _CHUNK_ROWS]
        cc = None if counts is None else counts[start:start + _CHUNK_ROWS]
        ok = yc > 0
        if not ok.all():
            ok = np.flatnonzero(ok)
            xc, yc = xc[ok], yc[ok]
            cc = None if cc is None else cc[ok]
        rows = len(yc)
        if not rows:
            continue
        seen = True
        b = buf[:(n1 + k) * rows].reshape(n1 + k, rows)
        np.divide(1.0, yc, out=b[0])
        np.multiply(xc.T, b[0], out=b[1:n1])
        np.matmul(coefs.T, b[:n1], out=b[n1:])
        b[n1:] -= 1.0
        yield b, cc
    if not seen:
        raise ConfigurationError("no positive truth values to compare against")


def _chunk_sums(x: np.ndarray, y: np.ndarray, coefs: np.ndarray,
                oracle: bool, counts: np.ndarray | None = None):
    """One pass over `_weighted_chunks`: the scored row count m, each
    column's sum of squared relative errors SSE, and, only in a pass
    with `oracle` sums (else all 0), G = A^T A and H = A^T R. Each chunk
    adds B A, a GEMM, into one (1 + n + k, 1 + n) sum whose top block is
    G and whose bottom block is H^T; G and H are views of it. With
    `counts`, row i stands for `counts[i]` rows: m = sum c, SSE = sum c
    r^2 and B A becomes B diag(c) A."""
    n1, k = coefs.shape
    m, sse, gh = 0, np.zeros(k), np.zeros((n1 + k, n1))
    for b, c in _weighted_chunks(x, y, coefs, counts):
        m += b.shape[1] if c is None else int(c.sum())
        if oracle:
            gh += (b if c is None else b * c) @ b[:n1].T
        # squared in place, after the GEMM has read R
        rt = b[n1:]
        rt *= rt
        sse += rt.sum(axis=1) if c is None else rt @ c
    return m, sse, gh[:n1], gh[n1:].T


# Solving the normal equations loses about cond * eps of the solution's
# relative accuracy, cond being that of G scaled to a unit diagonal,
# which takes out the rate columns' spread of scales (1 to about 1e3):
# below 1e8, at most about 2e-8; the built-ins read at most about 4e3.
# The oracle solves for its step from a start, so the loss is relative
# to the step, not to the coefficients. The residual is stationary at
# the optimum, so an RMS error well above that moves by about its
# square, relative; an exact fit keeps an RMS of roundoff size, as
# lstsq's is.
_ORACLE_COND_BOUND = 1e8


def _fit_oracle(x: np.ndarray, y: np.ndarray, sums=None, start=None,
                counts: np.ndarray | None = None) -> np.ndarray:
    """Per-rate linear baseline minimizing the RMS *relative* error.

    Weighted least squares with 1/y weights over the rows with y > 0: the
    best tradeoff any affine model of these predictors can reach at this
    rate, so every molded variant is dominated by it in-sample. `start`
    holds candidate coefficients, one column each of a (1 + n, k) array
    or one vector (default: zeros), and `sums` a `_chunk_sums` pass with
    the oracle's sums over them, or else the call makes its own. From
    c_j, the column of least SSE, one Newton step (one step of iterative
    refinement) gives c_j - G^-1 H_j, with G = A^T A, A = [1 X] / y, and
    H_j = A^T (A c_j - 1): from zeros, H = -A^T 1 and the step solves
    G c = A^T 1. With d = sqrt(diag(G)), the step is solved scaled by d
    on both sides while the scaled matrix's condition number is below
    `_ORACLE_COND_BOUND`, so G's rounding costs about cond eps of the
    step, not of c. At or above the bound, and when d holds a zero, the
    coefficients are `np.linalg.lstsq(A, 1)` over the whole A, stacked
    from copies of `_weighted_chunks`' reused chunks. With `counts`, row
    i stands for `counts[i]` rows, as in `_chunk_sums`, and lstsq weighs
    each row of A and of 1 by the root of its count.
    """
    n1 = 1 + x.shape[1]
    start = np.reshape(np.zeros(n1) if start is None else start, (n1, -1))
    _, sse, g, h = sums or _chunk_sums(x, y, start, True, counts)
    j = int(np.argmin(sse))
    d = np.sqrt(np.diag(g))
    if d.all():
        gs = g / d / d[:, None]
        if np.linalg.cond(gs) < _ORACLE_COND_BOUND:
            return start[:, j] - np.linalg.solve(gs, h[:, j] / d) / d
    no_columns = np.empty((n1, 0))
    chunks = [(b.copy(), c)
              for b, c in _weighted_chunks(x, y, no_columns, counts)]
    a = np.hstack([b for b, _ in chunks]).T
    ones = np.ones(len(a))
    if counts is not None:
        root = np.sqrt(np.concatenate([c for _, c in chunks]))
        a *= root[:, None]
        ones = root
    coef, *_ = np.linalg.lstsq(a, ones, rcond=None)
    return coef


def _affine_rms(x: np.ndarray, y: np.ndarray, coefs: np.ndarray,
                oracle: bool = False,
                counts: np.ndarray | None = None) -> np.ndarray:
    """RMS relative error of each affine estimate c0 + x @ c[1:] against
    y over the rows with y > 0, for each column c of `coefs` (1 + n, k),
    and with `oracle` one more, the per-rate oracle's (`_fit_oracle`,
    stepped from these columns), all from one `_chunk_sums` pass; it
    raises `_weighted_chunks`' typed errors. With `counts`, row i stands
    for `counts[i]` rows, as keyed rows' do.

    Row i's relative error is a_i @ c - 1, a_i being row i of the
    oracle's weighted design. With j the column of least SSE and
    delta = c - c_j, the oracle's SSE is SSE_j + 2 delta^T H_j
    + delta^T G delta, exact for any c. Shifted to an estimate close to
    the oracle's (Chan, Golub and LeVeque's shifted data), the form
    cancels only small terms; an exact fit may round it below 0, read
    as 0.
    """
    sums = _chunk_sums(x, y, coefs, oracle, counts)
    m, sse, g, h = sums
    if oracle:
        j = int(np.argmin(sse))
        delta = _fit_oracle(x, y, sums, coefs, counts) - coefs[:, j]
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
        report.add(rate, BATTERY_ESTIMATOR, _interface_rms(arts, rate))
    _write_outputs(sc, report, out_dir)
    return report


def train_molded_variants(sc: ScenarioConfig,
                          arts: RunArtifacts) -> dict[str, EnergyModel]:
    """Stretch once, then fit the four molded variants on the same rows,
    from one prepared training set and one PCA SVD."""
    ts = TrainingSet(stretch(arts.base_rows(), arts.readings, sc.t_low_s))
    models = {
        "molded_no_pca": ts.fit(sc.fit_method, use_pca=False),
        "molded_all_pcs": ts.fit(sc.fit_method),
    }
    models["molded_l2"] = ts.fit(sc.fit_method, l=min(2, len(ts.kept)))
    models["molded_l1"] = ts.fit(sc.fit_method, l=1)
    return models


def _scored_rows(arts: RunArtifacts, rate_hz: float):
    """(x, y, counts) that a runner scores at `rate_hz`: the keyed rows
    at the finest rate, else the design and truth with no counts."""
    if rate_hz == arts.fine_rate_hz:
        keyed = arts.keyed()
        return keyed.x, keyed.y, keyed.counts
    return arts.design(rate_hz).x, arts.truth(rate_hz), None


def run_molding(sc: ScenarioConfig,
                out_dir: str | None = None) -> ErrorReport:
    """Molded-model variants vs raw interface vs the per-rate oracle.

    The run keys its finest rate first (`RunArtifacts.keyed`) and holds
    those keyed rows across the rates; it trains on them and scores them
    with their counts. Each other rate's design and truth are held only
    while that rate is scored.
    """
    arts = _simulate_as(sc, MOLDING)
    arts.keyed()
    models = train_molded_variants(sc, arts)
    report = ErrorReport(sc.name, sc.seed)
    for rate in sc.rate_grid:
        x, truth, counts = _scored_rows(arts, rate)
        report.add(rate, BATTERY_ESTIMATOR, _interface_rms(arts, rate))
        coefs = np.column_stack([models[name].coefficients(1.0 / rate)
                                 for name in MOLDED_VARIANTS])
        rms = _affine_rms(x, truth, coefs, oracle=True, counts=counts)
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
    `run_molding` holds across the rates, and at the finest rate it fits
    and scores the keyed rows with their counts.
    """
    arts = _simulate_as(sc, REGRESSOGRAM)
    ts = TrainingSet(stretch(arts.base_rows(), arts.readings, sc.t_low_s))
    linear = ts.fit(sc.fit_method, l=min(sc.pca_l, len(ts.kept)))
    columns = tuple(spec.id for spec in sc.predictors)
    report = ErrorReport(sc.name, sc.seed)
    for rate in sc.rate_grid:
        x, truth, counts = _scored_rows(arts, rate)
        coef = linear.coefficients(1.0 / rate)[:, None]
        report.add(rate, "linear_molded",
                   float(_affine_rms(x, truth, coef, counts=counts)[0]))
        reg = fit_regressogram(x, truth, k=sc.regressogram_k,
                               columns=columns, counts=counts)
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
