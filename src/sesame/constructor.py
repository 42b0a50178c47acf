"""Energy model construction: stretching, PCA, TLS/OLS fitting, regressogram.

Models are trained on low-rate aggregates where battery readings are
accurate, then applied unchanged at short intervals. A fitted model is
one affine map on scale-free predictor rates (residency fractions,
counter rates, levels) to energy per training interval, so the only
time-scale factor in a prediction at a shorter interval is the interval
ratio. A PCA fit solves on the top-l principal components of the
standardized rates and folds the solution back into that same map; a
training set is prepared, and its PCA SVD taken, once for every l.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, fields
from itertools import zip_longest

import numpy as np

from .battery import (
    BatteryReadings,
    rms_relative_difference,
    rms_relative_error,
)
from .collector import DesignMatrix, KeyedRows, aggregate_response
from .errors import (
    AlignmentError,
    ArgumentError,
    ConfigurationError,
    DegenerateFitError,
    InsufficientDataError,
    SchemaError,
)
from .tracesim import _ratio_as_int

FIT_METHODS = ("TLS", "OLS")
_ZERO_VAR_TOL = 1e-12
# a kept column is active when the PCA rows a model keeps give it at
# least this much weight (the norm of its column in those rows)
_ACTIVE_WEIGHT_MIN = 0.05
DEFAULT_T_LOW_RANGE = (50.0, 100.0)
# the largest regressogram k: past 2**53 a float bin position is no longer
# exact, and near 2**63 its int64 cast is invalid
REGRESSOGRAM_K_MAX = 2**53


# ---------------------------------------------------------------------------
# Low-level regression solvers
# ---------------------------------------------------------------------------

def _regression(x: np.ndarray, y: np.ndarray, method: str,
                extra_rows: int) -> tuple[np.ndarray, np.ndarray]:
    """`x` as (m, n) floats and `y` as (m,) floats, or ArgumentError when
    the row counts differ or a value is not finite, and
    InsufficientDataError when there are fewer than n + `extra_rows` rows."""
    x = np.atleast_2d(np.asarray(x, dtype=float))
    y = np.asarray(y, dtype=float)
    m, n = x.shape
    if y.shape != (m,):
        raise ArgumentError(f"{method}: {m} predictor rows but a response "
                            f"of shape {y.shape}")
    if not (np.isfinite(x).all() and np.isfinite(y).all()):
        raise ArgumentError(f"{method}: predictors and response must be "
                            "finite")
    if m < n + extra_rows:
        raise InsufficientDataError(
            f"{method} needs >= {n + extra_rows} rows, got {m}")
    return x, y


def fit_tls(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Total least squares via the SVD of the augmented matrix.

    The predictor block is augmented with an intercept column of ones; the
    coefficient vector is the smallest right singular vector of [1 X y]
    normalized on its last entry. Returns (1 + n,) coefficients.
    """
    x, y = _regression(x, y, "TLS", 2)
    a = np.column_stack([np.ones(len(y)), x, y])
    _, _, vt = np.linalg.svd(a, full_matrices=False)
    v = vt[-1]
    if abs(v[-1]) < 1e-12:
        raise DegenerateFitError("smallest singular vector has ~zero response entry")
    return -v[:-1] / v[-1]


def fit_ols(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Ordinary least squares with an intercept; exact on consistent data."""
    x, y = _regression(x, y, "OLS", 1)
    n = x.shape[1]
    a = np.column_stack([np.ones(len(y)), x])
    beta, _, rank, _ = np.linalg.lstsq(a, y, rcond=None)
    if rank < n + 1:
        raise DegenerateFitError(f"rank-deficient design: rank {rank} < {n + 1}")
    return beta


# ---------------------------------------------------------------------------
# PCA
# ---------------------------------------------------------------------------

@dataclass
class PCABasis:
    """Orthonormal predictor transform: the top-l right singular vectors of
    the centered, unit-variance design matrix, as rows."""

    rows: np.ndarray                  # (l, n)
    column_means: np.ndarray          # (n,)
    column_scales: np.ndarray         # (n,)
    columns: tuple[str, ...]

    def inverse_transform(self, z: np.ndarray) -> np.ndarray:
        """Reconstruct raw aggregates; exact when l = n."""
        x = np.asarray(z, dtype=float) @ self.rows
        return x * self.column_scales + self.column_means


def _canonical_signs(rows: np.ndarray) -> np.ndarray:
    """Flip each row so its largest-magnitude entry is positive."""
    out = rows.copy()
    for i in range(out.shape[0]):
        j = int(np.argmax(np.abs(out[i])))
        if out[i, j] < 0:
            out[i] = -out[i]
    return out


def _prepare(x: np.ndarray, columns: tuple[str, ...]
             ) -> tuple[PCABasis, np.ndarray]:
    """Drop the constant columns of `x` with a warning, standardize the
    rest and take all their principal axes, as sign-canonical rows.

    Returns the basis over the kept columns and the standardized matrix.
    A column is constant when its spread is at round-off.
    """
    floor = _ZERO_VAR_TOL * np.maximum(1.0, np.abs(x).max(axis=0))
    keep = x.std(axis=0) > floor
    if not keep.all():
        dropped = [c for c, kf in zip(columns, keep) if not kf]
        warnings.warn(f"dropping constant predictors: {dropped}")
    xk = x[:, keep]
    means = xk.mean(axis=0)
    scales = xk.std(axis=0)
    xcs = (xk - means) / scales
    _, _, vt = np.linalg.svd(xcs, full_matrices=False)
    basis = PCABasis(rows=_canonical_signs(vt), column_means=means,
                     column_scales=scales,
                     columns=tuple(c for c, kf in zip(columns, keep) if kf))
    return basis, xcs


def pca_transform(x: np.ndarray,
                  columns: tuple[str, ...] | None = None
                  ) -> tuple[PCABasis, np.ndarray]:
    """Full-rank predictor transformation of a design matrix.

    Columns are mean-centered and scaled to unit standard deviation (both
    stored in the basis); zero-variance columns are dropped with a warning.
    Returns the l = n basis and the transformed matrix Z.
    """
    x = np.atleast_2d(np.asarray(x, dtype=float))
    m, n_all = x.shape
    if columns is None:
        columns = tuple(f"x{i}" for i in range(n_all))
    if len(columns) != n_all:
        raise SchemaError("column label count does not match the matrix")
    basis, xcs = _prepare(x, columns)
    n = len(basis.columns)
    if n < 1:
        raise InsufficientDataError("no non-constant columns to transform")
    if m < n:
        raise InsufficientDataError(f"PCA needs m >= n ({m} < {n})")
    return basis, xcs @ basis.rows.T


# ---------------------------------------------------------------------------
# Energy model
# ---------------------------------------------------------------------------

@dataclass
class EnergyModel:
    """Affine energy predictor: yhat(t) = (t / T) * (b0 + x(t) . w).

    beta = (b0, b) is in joules per training interval T, with one weight
    in b per kept column. x(t) is one interval's full row from the
    collector, whose columns are scale-free rates already, and w is b
    spread to the full input width, with 0 for each dropped column; the
    interval ratio is the only time dependence. A model persists beta in
    its kept-length form, through `errors.to_document`, and is read back
    by `errors.from_document`, which requires every field.
    A PCA fit solves on the top-l components of the standardized rates and
    folds its solution into this same form, so the model stores no basis:
    `l` is the number of components the fit kept (None for a fit without
    PCA) and `active_columns` the kept columns those components weigh.
    """

    beta: np.ndarray
    columns: tuple[str, ...]          # full input order, including dropped
    training_interval_s: float
    fit_method: str                   # "TLS" or "OLS"
    training_error: float
    l: int | None
    kept: tuple[str, ...]             # the columns not dropped, in order
    dropped: tuple[str, ...]
    below_target: bool
    active_columns: tuple[str, ...]

    def __post_init__(self):
        twice = {c for c in self.columns if self.columns.count(c) > 1}
        if twice:
            raise SchemaError(f"model repeats columns {sorted(twice)}")
        absent = set(self.kept + self.dropped + self.active_columns)
        absent -= set(self.columns)
        if absent:
            raise SchemaError(f"model names columns it lacks: {sorted(absent)}")
        want = tuple(c for c in self.columns if c not in self.dropped)
        if self.kept != want:
            k, w = next(p for p in zip_longest(self.kept, want) if p[0] != p[1])
            raise SchemaError(
                f"kept columns {list(self.kept)} are not the columns not "
                f"dropped, in column order, {list(want)}: first at "
                f"{k if k is not None else w!r}")
        rest = iter(self.kept)
        # `in` consumes `rest` up to the match, so a repeat or a step back
        # fails as a column outside the kept ones does
        for c in self.active_columns:
            if c not in rest:
                raise SchemaError(
                    f"active columns {list(self.active_columns)} are not "
                    f"distinct kept columns in column order: first at {c!r}")
        if not 0.0 < self.training_interval_s < math.inf:
            raise SchemaError(f"training interval {self.training_interval_s} "
                              "s must be finite and > 0")
        if len(self.beta) != 1 + len(self.kept):
            raise SchemaError(
                f"beta length {len(self.beta)} != {1 + len(self.kept)}")
        if self.l is not None and not 1 <= self.l <= len(self.kept):
            raise SchemaError(
                f"l = {self.l} outside [1, {len(self.kept)}] kept columns")

    def _scale(self, interval_s: float) -> float:
        """t / T, for a finite and positive interval t."""
        if not 0.0 < interval_s < math.inf:
            raise ArgumentError(f"interval {interval_s} s must be finite "
                                "and > 0")
        return interval_s / self.training_interval_s

    def _weights(self) -> np.ndarray:
        """w: b spread to the full input width, with 0 for each dropped
        column, so that b0 + x @ w is the energy per T of a full row x."""
        by_name = dict(zip(self.kept, self.beta[1:]))
        return np.array([by_name.get(c, 0.0) for c in self.columns])

    def coefficients(self, interval_s: float) -> np.ndarray:
        """[b0, w] * t / T: the affine map of a full row x to joules per
        interval t, as the constant and then one weight per column."""
        return np.concatenate(([self.beta[0]], self._weights())) * (
            self._scale(interval_s))

    def predict_rows(self, x: np.ndarray, interval_s: float) -> np.ndarray:
        """Predicted joules per interval t for aggregate rows (m,
        n_columns): (b0 + x @ w) * t / T, the map `coefficients` gives."""
        scale = self._scale(interval_s)
        x = np.atleast_2d(np.asarray(x, dtype=float))
        if x.shape[1] != len(self.columns):
            raise SchemaError(
                f"expected {len(self.columns)} predictors, got {x.shape[1]}")
        return (self.beta[0] + x @ self._weights()) * scale

    def __eq__(self, other) -> bool:
        if not isinstance(other, EnergyModel):
            return NotImplemented
        return all(np.array_equal(getattr(self, f.name), getattr(other, f.name))
                   for f in fields(self))


# ---------------------------------------------------------------------------
# Stretching and fitting pipeline
# ---------------------------------------------------------------------------

def stretch(dm: DesignMatrix | KeyedRows, readings: BatteryReadings,
            t_low_s: float) -> DesignMatrix:
    """Re-aggregate a base-rate matrix to `t_low_s` rows with a response.

    Every column averages, as each holds a rate or a level; the response
    comes from aggregating the battery readings over the same windows.
    The base rows may be keyed (`KeyedRows`): each column is then
    gathered through the key in blocks of whole windows and averaged as
    the design's own column would be, to the same bits
    (`KeyedRows.window_means`). The windows start at
    the design's first start time; keyed rows, like every collected
    design, start at 0.
    """
    lo, hi = DEFAULT_T_LOW_RANGE
    if not lo <= t_low_s <= hi:
        raise ArgumentError(
            f"t_low {t_low_s} s outside the configured range {DEFAULT_T_LOW_RANGE}")
    try:
        k = _ratio_as_int(t_low_s, dm.interval_s, "t_low vs base interval")
    except AlignmentError as exc:
        raise ArgumentError(str(exc)) from None
    y = aggregate_response(readings, t_low_s)
    t0 = dm.t_start_s[0] if isinstance(dm, DesignMatrix) else 0.0
    m = min(dm.m // k, len(y))
    if m < dm.n + 2:
        raise InsufficientDataError(
            f"stretching yields {m} rows for {dm.n} predictors (need {dm.n + 2})")
    if isinstance(dm, KeyedRows):
        x = dm.window_means(k, m)
    else:
        x = np.column_stack([dm.x[: m * k, i].reshape(m, k).mean(axis=1)
                             for i in range(dm.n)])
    return DesignMatrix(
        interval_s=t_low_s,
        columns=dm.columns,
        kinds=dm.kinds,
        x=x,
        t_start_s=t0 + np.arange(m) * t_low_s,
        y=y[:m],
    )


def _solve(feats: np.ndarray, yc: np.ndarray, method: str) -> tuple[np.ndarray, str]:
    """Solve on unit-variance response. TLS trades off residuals in the
    predictors against residuals in the response, so the response must sit
    on the same scale as the standardized predictor columns; otherwise the
    augmented SVD's smallest direction ignores it entirely."""
    ys = float(yc.std())
    if ys <= 0.0:
        ys = 1.0
    if method == "TLS":
        try:
            return fit_tls(feats, yc / ys) * ys, "TLS"
        except DegenerateFitError:
            return fit_ols(feats, yc), "OLS"
    return fit_ols(feats, yc), "OLS"


class TrainingSet:
    """A design matrix with a response, prepared once to fit models at any l.

    Preparation drops constant columns with a warning, standardizes the
    kept ones and takes their PCA SVD; every l slices its transformed
    matrix.
    """

    def __init__(self, dm: DesignMatrix):
        if dm.y is None:
            raise InsufficientDataError("design matrix has no response vector")
        self.basis, self.xcs = _prepare(dm.x, dm.columns)
        self.kept = self.basis.columns
        self.dropped = tuple(c for c in dm.columns if c not in self.kept)
        n = len(self.kept)
        if n and dm.m < n + 2:
            raise InsufficientDataError(
                f"{dm.m} rows for {n} predictors (need {n + 2})")
        self.dm = dm
        self.y = np.asarray(dm.y, dtype=float)
        self.y_mean = float(self.y.mean())
        self.z = self.xcs @ self.basis.rows.T

    def fit(self, method: str = "TLS", use_pca: bool = True,
            l: int | None = None) -> EnergyModel:
        """Standardize, rotate, solve, fold: the model on the kept rates.

        The rotation is the top-l principal axes (all of them when l is
        None), or the identity when `use_pca` is False. An unknown method,
        a non-integer l, and an l without PCA raise ArgumentError.
        """
        if method not in FIT_METHODS:
            raise ArgumentError(f"fit method {method!r} is not one of "
                                f"{FIT_METHODS}")
        if l is not None and (isinstance(l, bool)
                              or not isinstance(l, (int, np.integer))):
            raise ArgumentError(f"l must be an integer, got {l!r:.40}")
        if l is not None and not use_pca:
            raise ArgumentError(f"l = {l} needs a PCA fit; use_pca is False")
        n = len(self.kept)
        if n == 0:
            beta, tag, l, active = np.array([self.y_mean]), "OLS", None, ()
        else:
            if use_pca:
                l = n if l is None else l
                if not 1 <= l <= n:
                    raise ArgumentError(f"l must be in [1, {n}], got {l}")
                rows, feats = self.basis.rows[:l], self.z[:, :l]
            else:
                l, rows, feats = None, np.eye(n), self.xcs
            coef, tag = _solve(feats, self.y - self.y_mean, method)
            w = rows.T @ coef[1:] / self.basis.column_scales
            b0 = self.y_mean + coef[0] - float(w @ self.basis.column_means)
            beta = np.concatenate([[b0], w])
            weights = np.linalg.norm(rows, axis=0)
            active = tuple(c for c, wt in zip(self.kept, weights)
                           if wt > _ACTIVE_WEIGHT_MIN)
        dm = self.dm
        model = EnergyModel(
            beta=beta, columns=dm.columns,
            training_interval_s=dm.interval_s, fit_method=tag,
            training_error=0.0, l=l, kept=self.kept, dropped=self.dropped,
            below_target=False, active_columns=active,
        )
        model.training_error = rms_relative_error(
            model.predict_rows(dm.x, dm.interval_s), self.y)
        return model


def build_model(dm: DesignMatrix, method: str = "TLS", use_pca: bool = True,
                l: int | None = None) -> EnergyModel:
    """Fit an energy model on a stretched design matrix with a response."""
    return TrainingSet(dm).fit(method, use_pca, l)


def iterate_construction(dm: DesignMatrix, accuracy_target: float,
                         method: str = "TLS") -> EnergyModel:
    """Fit l = 1, 2, ... n and return the first model whose training
    accuracy (1 - RMS relative error) meets the target.

    That is the smallest such l: training accuracy need not rise with l,
    as TLS on near-collinear axes shows. If no l meets the target, the
    l = n model is returned flagged `below_target`; with no kept column,
    the mean model. Every l is fitted from one prepared training set.
    """
    if not 0.0 <= accuracy_target < 1.0:
        raise ArgumentError("accuracy target must be in [0, 1)")
    ts = TrainingSet(dm)
    if not ts.kept:
        return ts.fit(method)
    for l in range(1, len(ts.kept) + 1):
        model = ts.fit(method, l=l)
        if 1.0 - model.training_error >= accuracy_target:
            return model
    model.below_target = True
    return model


# ---------------------------------------------------------------------------
# Regressogram
# ---------------------------------------------------------------------------

@dataclass
class RegressogramModel:
    """Histogram regression: per-cell mean response over binned predictors.

    Each predictor's observed range splits into k equal-width bins, so a
    column needs only its (lo, hi); the model holds O(columns + cells)
    numbers whatever k is. `training_error` is the in-sample RMS relative
    error: each training row is predicted by its cell's mean, exactly as
    `predict_regressogram_rows` would predict it, and that function
    serves rows outside the training set.
    """

    edges: np.ndarray                 # (columns, 2): each predictor's lo, hi
    cells: np.ndarray                 # populated cells' bins, lexicographic
    means: np.ndarray                 # each cell's mean response
    fallback: float                   # global mean response
    k: int
    columns: tuple[str, ...]
    training_error: float | None      # None when no response is positive


def _finite_ranges(x: np.ndarray, columns: tuple[str, ...]) -> np.ndarray:
    """Each column's (min, max) over the rows `x`, at least one, as a
    (columns, 2) array. A column holds a NaN or an infinity exactly when
    its min or max is not finite; ArgumentError then names the first
    such predictor, one of `columns`, which a vectorised bin cast would
    hide."""
    ranges = np.column_stack([x.min(axis=0), x.max(axis=0)])
    bad = np.flatnonzero(~np.isfinite(ranges).all(axis=1))
    if len(bad):
        raise ArgumentError(f"regressogram predictor {columns[bad[0]]!r} "
                            "has non-finite values")
    return ranges


def _bin_rows(x: np.ndarray, edges: np.ndarray, k: int, ranges: np.ndarray,
              pos: np.ndarray | None = None
              ) -> tuple[np.ndarray, np.ndarray | None]:
    """Per-column bins of every row, int((v - lo) / (hi - lo) * k) up to
    k - 1, and the mask of rows inside the `edges` in every column, or
    None when each column's `ranges` (`_finite_ranges`) lie inside its
    edges. Each position is computed in `pos`, a float buffer of one per
    row that the call overwrites, or else one it allocates."""
    bins = np.zeros(x.shape, dtype=np.int64)
    inside = None
    if pos is None:
        pos = np.empty(x.shape[0])
    for j, ((lo, hi), (v_min, v_max)) in enumerate(zip(edges, ranges)):
        v = x[:, j]
        # a column within its edges, as every training column is, builds
        # no mask
        if not lo <= v_min <= v_max <= hi:
            ok = (v >= lo) & (v <= hi)
            if inside is None:
                inside = ok
            else:
                inside &= ok
            # out-of-range rows are binned as lo so the cast stays in range
            v = np.where(ok, v, lo)
        if hi != lo:
            np.subtract(v, lo, out=pos)
            pos /= hi - lo
            # the product is cast to the bins as it is written
            col = bins[:, j]
            np.multiply(pos, k, out=col, casting="unsafe")
            np.minimum(col, k - 1, out=col)
    return bins, inside


def _cell_keys(bins: np.ndarray, k: int) -> tuple[np.ndarray, int]:
    """One int64 per row, ordered as the rows' cells are lexicographically,
    and the size of the key space, at most min(k**columns, rows): every
    key is below it.

    The key is the row-major cell index while that stays within the row
    count. A column that would take it past the row count is joined by
    renumbering the distinct (key, bin) pairs densely, the one sort, so no
    array is ever sized by k and no key can overflow. The key may be a
    view of `bins`.
    """
    rows = bins.shape[0]
    key, span = None, 1
    for col in bins.T:
        if span * k > rows:
            pairs = col if key is None else np.column_stack([key, col])
            uniq, key = np.unique(pairs, axis=0, return_inverse=True)
            span = len(uniq)
        elif key is None:
            key, span = col, k
        else:
            key = key * k
            key += col
            span *= k
    if key is None:         # no columns: one cell
        key = np.zeros(rows, dtype=np.int64)
    return key, span


# Rows per block of a regressogram fit's pass that finds one row of each
# cell: each block's row indices are the only index array the fit
# allocates.
_BLOCK_ROWS = 1 << 13


def fit_regressogram(x: np.ndarray, y: np.ndarray, k: int = 10,
                     columns: tuple[str, ...] = (),
                     counts: np.ndarray | None = None) -> RegressogramModel:
    """Equal-width bins over each predictor's observed range; each
    populated cell stores the mean of its rows' responses.

    `columns` names the predictors, one per column of `x` (default x0,
    x1, ...). With `counts`, row i of `x` and `y` stands for `counts[i]`
    equal rows, as keyed rows (`KeyedRows`) do: each cell's mean, the
    in-sample error and the fallback weigh the rows by their counts.

    Each column's min and max, read once, are its edges; they also show
    that the column is finite and that every row is inside the edges.
    Counts are a bincount over the cell keys, and the cell sums a
    weighted bincount, which adds each cell's rows in row order. So the
    fit is linear in the rows, with no sort when k**columns is at most
    the row count, for any k, an integer in [1, 2**53]. Beyond its inputs
    it holds the bins, the keys (a view of the bins for one column) and
    one float per row, which takes in turn the bin positions, each row's
    fitted mean and its squared relative error, plus O(cells +
    `_BLOCK_ROWS`).
    """
    x = np.atleast_2d(np.asarray(x, dtype=float))
    y = np.asarray(y, dtype=float)
    if x.shape[0] == 0:
        raise ArgumentError("empty training set")
    if (isinstance(k, bool) or not isinstance(k, (int, np.integer))
            or not 1 <= k <= REGRESSOGRAM_K_MAX):
        raise ArgumentError(f"k must be an integer in [1, 2**53], "
                            f"got {k!r:.40}")
    if y.shape != (x.shape[0],):
        raise ArgumentError(f"{x.shape[0]} training rows but responses of "
                            f"shape {y.shape}")
    if counts is not None and np.shape(counts) != y.shape:
        raise ArgumentError(f"{x.shape[0]} training rows but counts of "
                            f"shape {np.shape(counts)}")
    columns = tuple(columns) or tuple(f"x{i}" for i in range(x.shape[1]))
    if len(columns) != x.shape[1]:
        raise ArgumentError(f"{len(columns)} column names for "
                            f"{x.shape[1]} predictor columns")
    edges = _finite_ranges(x, columns)
    if not np.isfinite(y).all():
        raise ArgumentError("regressogram response has non-finite values")
    fitted = np.empty(len(y))
    bins, _ = _bin_rows(x, edges, k, edges, pos=fitted)
    key, span = _cell_keys(bins, k)
    if counts is None:
        cell_counts = np.bincount(key, minlength=span)
        # in row order: each cell sum is the running sum of its rows
        sums = np.bincount(key, weights=y, minlength=span)
    else:
        cell_counts = np.bincount(key, weights=counts, minlength=span)
        sums = np.bincount(key, weights=y * counts, minlength=span)
    populated = np.flatnonzero(cell_counts)
    row_of = np.empty(span, dtype=np.int64)
    for start in range(0, len(key), _BLOCK_ROWS):
        # every row of a cell has the cell's bins, so any one row gives them
        block = key[start:start + _BLOCK_ROWS]
        row_of[block] = np.arange(start, start + len(block))
    means = sums[populated] / cell_counts[populated]
    cells = bins[row_of[populated]]
    del bins, row_of
    # each training row is inside the edges and its cell is populated, so
    # its prediction is its cell's mean
    table = np.empty(span)
    table[populated] = means
    # every key is below span; the default mode="raise" would buffer
    # `out` through a temporary of one float per row
    np.take(table, key, out=fitted, mode="clip")
    fitted -= y
    try:
        training_error = rms_relative_difference(fitted, y, counts)
    except ConfigurationError:      # no response is positive
        training_error = None
    if counts is None:
        # a sequential sum like the cells', not numpy's pairwise np.sum
        fallback = float(np.cumsum(y, out=fitted)[-1]) / len(y)
    else:
        fallback = float(y @ counts) / float(counts.sum())
    return RegressogramModel(edges=edges, cells=cells, means=means,
                             fallback=fallback, k=k, columns=columns,
                             training_error=training_error)


def predict_regressogram(model: RegressogramModel, x: np.ndarray) -> float:
    """`predict_regressogram_rows` of the one row `x`."""
    return float(predict_regressogram_rows(model, np.ravel(x))[0])


def predict_regressogram_rows(model: RegressogramModel, x: np.ndarray) -> np.ndarray:
    """Mean of each row's cell, as one table lookup; the global mean when
    the row is out of the training range or its cell is empty.

    The cells and the rows are keyed together, so the table has one entry
    per key and the lookup is O(cells + rows), with no search.
    """
    x = np.atleast_2d(np.asarray(x, dtype=float))
    n_cols = len(model.edges)
    if x.shape[1] != n_cols:
        raise SchemaError(f"expected {n_cols} predictors, got {x.shape[1]}")
    ranges = (_finite_ranges(x, model.columns) if len(x)
              else model.edges)     # no row is outside any edges
    bins, inside = _bin_rows(x, model.edges, model.k, ranges)
    keys, span = _cell_keys(np.vstack([model.cells, bins]), model.k)
    n_cells = len(model.means)
    table = np.full(span, model.fallback)
    table[keys[:n_cells]] = model.means
    out = table[keys[n_cells:]]
    if inside is not None:
        out[np.flatnonzero(~inside)] = model.fallback
    return out
