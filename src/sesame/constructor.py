"""Energy model construction: stretching, PCA, TLS/OLS fitting, compression.

Models are trained on low-rate aggregates where battery readings are
accurate, then applied unchanged at short intervals. Internally the fit
works on scale-free predictor aggregates (residency fractions, counter
rates, levels) against energy per training interval, so the only
time-scale factor in a compressed prediction is the interval ratio.
"""

from __future__ import annotations

import json
import warnings
from dataclasses import dataclass

import numpy as np

from .battery import BatteryReadings, rms_relative_error
from .collector import DesignMatrix, aggregate_response
from .errors import (
    DegenerateFitError,
    InsufficientDataError,
    ParseError,
    SchemaError,
)
from .tracesim import COUNTER

_ZERO_VAR_TOL = 1e-12
DEFAULT_T_LOW_RANGE = (50.0, 100.0)


# ---------------------------------------------------------------------------
# Low-level regression solvers
# ---------------------------------------------------------------------------

def fit_tls(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Total least squares via the SVD of the augmented matrix.

    The predictor block is augmented with an intercept column of ones; the
    coefficient vector is the smallest right singular vector of [1 X y]
    normalized on its last entry. Returns (1 + n,) coefficients.
    """
    x = np.atleast_2d(np.asarray(x, dtype=float))
    y = np.asarray(y, dtype=float)
    m, n = x.shape
    if m < n + 2:
        raise InsufficientDataError(f"TLS needs >= {n + 2} rows, got {m}")
    a = np.column_stack([np.ones(m), x, y])
    _, _, vt = np.linalg.svd(a, full_matrices=False)
    v = vt[-1]
    if abs(v[-1]) < 1e-12:
        raise DegenerateFitError("smallest singular vector has ~zero response entry")
    return -v[:-1] / v[-1]


def fit_ols(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Ordinary least squares with an intercept; exact on consistent data."""
    x = np.atleast_2d(np.asarray(x, dtype=float))
    y = np.asarray(y, dtype=float)
    m, n = x.shape
    if m < n + 1:
        raise InsufficientDataError(f"OLS needs >= {n + 1} rows, got {m}")
    a = np.column_stack([np.ones(m), x])
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
    singular_values: np.ndarray       # (l,) non-increasing
    column_means: np.ndarray          # (n,)
    column_scales: np.ndarray         # (n,)
    columns: tuple[str, ...]

    @property
    def l(self) -> int:
        return self.rows.shape[0]

    @property
    def n(self) -> int:
        return self.rows.shape[1]

    def transform(self, x: np.ndarray) -> np.ndarray:
        """Map raw aggregates (..., n) to transformed predictors (..., l)."""
        z = (np.asarray(x, dtype=float) - self.column_means) / self.column_scales
        return z @ self.rows.T

    def inverse_transform(self, z: np.ndarray) -> np.ndarray:
        """Reconstruct raw aggregates; exact when l = n."""
        x = np.asarray(z, dtype=float) @ self.rows
        return x * self.column_scales + self.column_means

    def __eq__(self, other) -> bool:
        if not isinstance(other, PCABasis):
            return NotImplemented
        return (self.columns == other.columns
                and np.array_equal(self.rows, other.rows)
                and np.array_equal(self.singular_values, other.singular_values)
                and np.array_equal(self.column_means, other.column_means)
                and np.array_equal(self.column_scales, other.column_scales))


def _canonical_signs(rows: np.ndarray) -> np.ndarray:
    """Flip each row so its largest-magnitude entry is positive."""
    out = rows.copy()
    for i in range(out.shape[0]):
        j = int(np.argmax(np.abs(out[i])))
        if out[i, j] < 0:
            out[i] = -out[i]
    return out


def pca_transform(x: np.ndarray,
                  columns: tuple[str, ...] | None = None
                  ) -> tuple[PCABasis, np.ndarray]:
    """Full-rank predictor transformation of a design matrix.

    Columns are mean-centered and scaled to unit standard deviation (both
    stored in the basis); zero-variance columns are dropped with a warning
    before the SVD. Returns the l = n basis and the transformed matrix Z.
    """
    x = np.atleast_2d(np.asarray(x, dtype=float))
    m, n_all = x.shape
    if columns is None:
        columns = tuple(f"x{i}" for i in range(n_all))
    if len(columns) != n_all:
        raise SchemaError("column label count does not match the matrix")
    std = x.std(axis=0)
    keep = std > _ZERO_VAR_TOL * np.maximum(1.0, np.abs(x).max(axis=0))
    if not keep.all():
        dropped = [columns[i] for i in range(n_all) if not keep[i]]
        warnings.warn(f"dropping zero-variance columns before SVD: {dropped}")
    xk = x[:, keep]
    kept_cols = tuple(c for c, k in zip(columns, keep) if k)
    n = xk.shape[1]
    if n < 1:
        raise InsufficientDataError("no non-constant columns to transform")
    if m < n:
        raise InsufficientDataError(f"PCA needs m >= n ({m} < {n})")
    means = xk.mean(axis=0)
    scales = xk.std(axis=0)
    xcs = (xk - means) / scales
    _, sing, vt = np.linalg.svd(xcs, full_matrices=False)
    rows = _canonical_signs(vt)
    basis = PCABasis(rows=rows, singular_values=sing, column_means=means,
                     column_scales=scales, columns=kept_cols)
    return basis, xcs @ rows.T


def select_components(basis: PCABasis, l: int) -> PCABasis:
    """Keep the top-l transform rows and singular values."""
    if not 1 <= l <= basis.n:
        raise ValueError(f"l must be in [1, {basis.n}], got {l}")
    return PCABasis(
        rows=basis.rows[:l].copy(),
        singular_values=basis.singular_values[:l].copy(),
        column_means=basis.column_means,
        column_scales=basis.column_scales,
        columns=basis.columns,
    )


# ---------------------------------------------------------------------------
# Energy model
# ---------------------------------------------------------------------------

@dataclass
class EnergyModel:
    """Affine energy predictor: yhat(t) = (t / T) * ((1, z(t)) . beta).

    beta is in joules per training interval. For PCA models, z is the
    basis transform of the kept predictor aggregates; otherwise beta acts
    on the kept aggregates directly. Counter columns are converted to
    per-second rates before use, so every input is scale-free and the
    interval ratio is the only time dependence.
    """

    beta: np.ndarray
    columns: tuple[str, ...]          # full input order, including dropped
    kinds: tuple[str, ...]
    training_interval_s: float
    fit_method: str                   # "TLS" or "OLS"
    training_error: float
    basis: PCABasis | None = None
    kept: tuple[str, ...] = ()
    dropped: tuple[str, ...] = ()
    column_means: np.ndarray | None = None   # no-PCA bookkeeping (fit units)
    below_target: bool = False
    active_columns: tuple[str, ...] = ()

    def __post_init__(self):
        if not self.kept:
            self.kept = tuple(c for c in self.columns if c not in self.dropped)
        expect = 1 + (self.basis.l if self.basis is not None else len(self.kept))
        if len(self.beta) != expect:
            raise SchemaError(f"beta length {len(self.beta)} != {expect}")

    @property
    def l(self) -> int | None:
        return self.basis.l if self.basis is not None else None

    def _kept_idx(self) -> list[int]:
        by_name = {c: i for i, c in enumerate(self.columns)}
        return [by_name[c] for c in self.kept]

    def predict_rows(self, x: np.ndarray, interval_s: float) -> np.ndarray:
        """Predicted joules per interval for aggregate rows (m, n_columns)."""
        if interval_s <= 0:
            raise ValueError("interval must be > 0")
        x = np.atleast_2d(np.asarray(x, dtype=float))
        if x.shape[1] != len(self.columns):
            raise SchemaError(
                f"expected {len(self.columns)} predictors, got {x.shape[1]}")
        rates = x.copy()
        for i, kind in enumerate(self.kinds):
            if kind == COUNTER:
                rates[:, i] = rates[:, i] / interval_s
        xk = rates[:, self._kept_idx()]
        if self.basis is not None:
            feats = self.basis.transform(xk)
        else:
            feats = xk
        per_t = self.beta[0] + feats @ self.beta[1:]
        return per_t * (interval_s / self.training_interval_s)

    def __eq__(self, other) -> bool:
        if not isinstance(other, EnergyModel):
            return NotImplemented
        return (np.array_equal(self.beta, other.beta)
                and self.columns == other.columns
                and self.kinds == other.kinds
                and self.training_interval_s == other.training_interval_s
                and self.fit_method == other.fit_method
                and self.training_error == other.training_error
                and self.basis == other.basis
                and self.kept == other.kept
                and self.dropped == other.dropped
                and self.below_target == other.below_target
                and self.active_columns == other.active_columns)


def compress(model: EnergyModel, x: np.ndarray, interval_s: float,
             columns: tuple[str, ...] | None = None) -> float:
    """Apply the trained coefficients to one interval of length `interval_s`.

    `x` must be aggregated with the same per-kind rules as training and
    ordered like the model's predictors; pass `columns` to have the order
    checked. Valid for intervals up to the training interval.
    """
    if columns is not None and tuple(columns) != model.columns:
        raise SchemaError(
            f"predictor order {tuple(columns)} != model order {model.columns}")
    if interval_s > model.training_interval_s + 1e-9:
        raise ValueError("compression interval exceeds the training interval")
    return float(model.predict_rows(np.asarray(x, dtype=float)[None, :],
                                    interval_s)[0])


# ---------------------------------------------------------------------------
# Stretching and fitting pipeline
# ---------------------------------------------------------------------------

def stretch(dm: DesignMatrix, readings: BatteryReadings, t_low_s: float,
            voltage_v: float | None = None,
            allowed_range: tuple[float, float] = DEFAULT_T_LOW_RANGE
            ) -> DesignMatrix:
    """Re-aggregate a base-rate matrix to `t_low_s` rows with a response.

    Residency and level columns average, counter columns sum; the response
    comes from aggregating the battery readings over the same windows.
    """
    lo, hi = allowed_range
    if not lo <= t_low_s <= hi:
        raise ValueError(f"t_low {t_low_s} s outside the configured range {allowed_range}")
    k = int(round(t_low_s / dm.interval_s))
    if abs(t_low_s / dm.interval_s - k) > 1e-9 or k < 1:
        raise ValueError("t_low must be an integral multiple of the base interval")
    y = aggregate_response(readings, t_low_s, voltage_v)
    m = min(dm.m // k, len(y))
    if m < dm.n + 2:
        raise InsufficientDataError(
            f"stretching yields {m} rows for {dm.n} predictors (need {dm.n + 2})")
    cols = []
    for i, kind in enumerate(dm.kinds):
        chunk = dm.x[: m * k, i].reshape(m, k)
        cols.append(chunk.sum(axis=1) if kind == COUNTER else chunk.mean(axis=1))
    return DesignMatrix(
        interval_s=t_low_s,
        columns=dm.columns,
        kinds=dm.kinds,
        x=np.column_stack(cols),
        t_start_s=dm.t_start_s[0] + np.arange(m) * t_low_s,
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
    if method.upper() == "TLS":
        try:
            return fit_tls(feats, yc / ys) * ys, "TLS"
        except DegenerateFitError:
            return fit_ols(feats, yc), "OLS"
    return fit_ols(feats, yc), "OLS"


def build_model(dm: DesignMatrix, method: str = "TLS", use_pca: bool = True,
                l: int | None = None,
                weight_threshold: float = 0.05) -> EnergyModel:
    """Fit an energy model on a stretched design matrix with a response."""
    if dm.y is None:
        raise InsufficientDataError("design matrix has no response vector")
    x = dm.x.copy()
    for i, kind in enumerate(dm.kinds):
        if kind == COUNTER:
            x[:, i] = x[:, i] / dm.interval_s
    std = x.std(axis=0)
    keep = std > _ZERO_VAR_TOL * np.maximum(1.0, np.abs(x).max(axis=0))
    kept_cols = tuple(c for c, kf in zip(dm.columns, keep) if kf)
    dropped = tuple(c for c, kf in zip(dm.columns, keep) if not kf)
    if dropped:
        warnings.warn(f"dropping constant predictors: {list(dropped)}")
    xk = x[:, keep]
    y = np.asarray(dm.y, dtype=float)
    y_mean = float(y.mean())
    yc = y - y_mean

    if xk.shape[1] == 0:
        model = EnergyModel(
            beta=np.array([y_mean]),
            columns=dm.columns, kinds=dm.kinds,
            training_interval_s=dm.interval_s,
            fit_method="OLS", training_error=0.0,
            kept=(), dropped=dropped,
        )
        model.training_error = rms_relative_error(
            model.predict_rows(dm.x, dm.interval_s), y)
        return model

    if dm.m < xk.shape[1] + 2:
        raise InsufficientDataError(
            f"{dm.m} rows for {xk.shape[1]} predictors (need {xk.shape[1] + 2})")

    if use_pca:
        basis, z = pca_transform(xk, kept_cols)
        if l is not None:
            basis = select_components(basis, l)
            z = z[:, : basis.l]
        coef, tag = _solve(z, yc, method)
        beta = np.concatenate([[y_mean + coef[0]], coef[1:]])
        weights = np.linalg.norm(basis.rows, axis=0)
        active = tuple(c for c, w in zip(kept_cols, weights)
                       if w > weight_threshold)
        model = EnergyModel(
            beta=beta, columns=dm.columns, kinds=dm.kinds,
            training_interval_s=dm.interval_s,
            fit_method=tag, training_error=0.0,
            basis=basis, kept=kept_cols, dropped=dropped,
            active_columns=active,
        )
    else:
        means = xk.mean(axis=0)
        scales = xk.std(axis=0)
        xcs = (xk - means) / scales
        coef, tag = _solve(xcs, yc, method)
        b = coef[1:] / scales
        b0 = y_mean + coef[0] - float(b @ means)
        model = EnergyModel(
            beta=np.concatenate([[b0], b]),
            columns=dm.columns, kinds=dm.kinds,
            training_interval_s=dm.interval_s,
            fit_method=tag, training_error=0.0,
            kept=kept_cols, dropped=dropped,
            column_means=means,
            active_columns=tuple(kept_cols),
        )
    model.training_error = rms_relative_error(
        model.predict_rows(dm.x, dm.interval_s), y)
    return model


def iterate_construction(dm: DesignMatrix, accuracy_target: float,
                         method: str = "TLS") -> EnergyModel:
    """Fit at l = n, then shrink l while training accuracy stays at target.

    Returns the model with the smallest l whose training accuracy
    (1 - RMS relative error) still meets the target; if even l = n misses,
    that model is returned flagged `below_target`.
    """
    if not 0.0 <= accuracy_target < 1.0:
        raise ValueError("accuracy target must be in [0, 1)")
    best = build_model(dm, method=method, use_pca=True)
    if best.basis is None:
        return best
    if 1.0 - best.training_error < accuracy_target:
        best.below_target = True
        return best
    for l in range(best.basis.l - 1, 0, -1):
        candidate = build_model(dm, method=method, use_pca=True, l=l)
        if 1.0 - candidate.training_error < accuracy_target:
            break
        best = candidate
    return best


# ---------------------------------------------------------------------------
# Regressogram
# ---------------------------------------------------------------------------

@dataclass
class RegressogramModel:
    """Histogram regression: per-cell mean response over binned predictors."""

    edges: tuple[np.ndarray, ...]     # per predictor, k+1 edges
    cells: dict[tuple[int, ...], tuple[int, float]]   # cell -> (count, sum)
    fallback: float                   # global mean response
    k: int
    columns: tuple[str, ...] = ()

    def cell_mean(self, cell: tuple[int, ...]) -> float:
        count, total = self.cells[cell]
        return total / count


def _bin_index(value: float, edges: np.ndarray, k: int) -> int | None:
    """Bin of `value`, or None when outside the training range."""
    lo, hi = edges[0], edges[-1]
    if value < lo or value > hi:
        return None
    if hi == lo:
        return 0
    idx = int((value - lo) / (hi - lo) * k)
    return min(idx, k - 1)


def _reject_non_finite(x: np.ndarray, columns: tuple[str, ...],
                       y: np.ndarray | None = None) -> None:
    """Raise ValueError naming the first predictor (or the response) that
    holds a NaN or an infinity; a vectorised bin cast would hide it."""
    for j in range(x.shape[1]):
        if not np.isfinite(x[:, j]).all():
            name = columns[j] if j < len(columns) else f"x{j}"
            raise ValueError(f"regressogram predictor {name!r} has non-finite values")
    if y is not None and not np.isfinite(y).all():
        raise ValueError("regressogram response has non-finite values")


def _bin_rows(x: np.ndarray, edges: tuple[np.ndarray, ...],
              k: int) -> tuple[np.ndarray, np.ndarray]:
    """Per-column bins of every row, by the float expression of
    `_bin_index`, and the mask of rows inside the range in every column."""
    bins = np.zeros(x.shape, dtype=np.int64)
    inside = np.ones(x.shape[0], dtype=bool)
    for j, e in enumerate(edges):
        lo, hi = e[0], e[-1]
        v = x[:, j]
        ok = (v >= lo) & (v <= hi)
        inside &= ok
        if hi != lo:
            # out-of-range rows are binned as lo so the cast stays in range
            idx = ((np.where(ok, v, lo) - lo) / (hi - lo) * k).astype(np.int64)
            bins[:, j] = np.minimum(idx, k - 1)
    return bins, inside


def _cell_keys(bins: np.ndarray, k: int) -> np.ndarray:
    """One int64 per row, equal exactly when the rows' cells are equal.

    This is the row-major cell index while k**columns fits; before a
    column would overflow it, the partial key is renumbered densely.
    """
    key = np.zeros(bins.shape[0], dtype=np.int64)
    span = 1
    for col in bins.T:
        if span * k > 2**62:
            uniq, key = np.unique(key, return_inverse=True)
            span = len(uniq)
        key = key * k + col
        span *= k
    return key


def fit_regressogram(x: np.ndarray, y: np.ndarray, k: int = 10,
                     columns: tuple[str, ...] = ()) -> RegressogramModel:
    """Equal-width bins over each predictor's observed range; populated
    cells store count and running sum of the response."""
    x = np.atleast_2d(np.asarray(x, dtype=float))
    y = np.asarray(y, dtype=float)
    if x.shape[0] == 0:
        raise ValueError("empty training set")
    if k < 1:
        raise ValueError("k must be >= 1")
    if y.shape != (x.shape[0],):
        raise ValueError(f"{x.shape[0]} training rows but responses of "
                         f"shape {y.shape}")
    columns = columns or tuple(f"x{i}" for i in range(x.shape[1]))
    _reject_non_finite(x, columns, y)
    edges = tuple(np.linspace(x[:, j].min(), x[:, j].max(), k + 1)
                  for j in range(x.shape[1]))
    bins, _ = _bin_rows(x, edges, k)
    _, first, cell_of_row = np.unique(_cell_keys(bins, k), return_index=True,
                                      return_inverse=True)
    # bincount adds in row order, so each cell sum is the running sum
    counts = np.bincount(cell_of_row)
    sums = np.bincount(cell_of_row, weights=y)
    order = np.argsort(first)       # cells in order of first appearance
    cells = {tuple(cell): (count, total) for cell, count, total in zip(
        bins[first[order]].tolist(), counts[order].tolist(),
        sums[order].tolist())}
    # a sequential sum like the cells', not numpy's pairwise np.sum
    fallback = float(np.cumsum(y)[-1]) / len(y)
    return RegressogramModel(edges=edges, cells=cells, fallback=fallback,
                             k=k, columns=columns)


def predict_regressogram(model: RegressogramModel, x: np.ndarray) -> float:
    """Mean of the matching cell; global mean when out of range or empty."""
    x = np.asarray(x, dtype=float).ravel()
    if len(x) != len(model.edges):
        raise SchemaError(
            f"expected {len(model.edges)} predictors, got {len(x)}")
    cell = []
    for j, v in enumerate(x):
        idx = _bin_index(float(v), model.edges[j], model.k)
        if idx is None:
            return model.fallback
        cell.append(idx)
    key = tuple(cell)
    if key not in model.cells:
        return model.fallback
    return model.cell_mean(key)


def predict_regressogram_rows(model: RegressogramModel, x: np.ndarray) -> np.ndarray:
    """`predict_regressogram` of every row of `x`, as one table lookup."""
    x = np.atleast_2d(np.asarray(x, dtype=float))
    n_cols = len(model.edges)
    if x.shape[1] != n_cols:
        raise SchemaError(f"expected {n_cols} predictors, got {x.shape[1]}")
    _reject_non_finite(x, model.columns)
    out = np.full(x.shape[0], model.fallback)
    if not model.cells:
        return out
    bins, inside = _bin_rows(x, model.edges, model.k)
    cell_bins = np.array(list(model.cells), dtype=np.int64).reshape(-1, n_cols)
    means = np.array([model.cell_mean(cell) for cell in model.cells])
    keys = _cell_keys(np.vstack([cell_bins, bins]), model.k)
    cell_keys, row_keys = keys[:len(means)], keys[len(means):]
    order = np.argsort(cell_keys)
    pos = np.searchsorted(cell_keys, row_keys, sorter=order)
    slot = order[np.minimum(pos, len(order) - 1)]
    hit = inside & (cell_keys[slot] == row_keys)
    out[hit] = means[slot[hit]]
    return out


# ---------------------------------------------------------------------------
# Model persistence
# ---------------------------------------------------------------------------

def model_to_dict(model: EnergyModel) -> dict:
    doc = {
        "beta": [float(b) for b in model.beta],
        "columns": list(model.columns),
        "kinds": list(model.kinds),
        "training_interval_s": model.training_interval_s,
        "fit_method": model.fit_method,
        "training_error": model.training_error,
        "kept": list(model.kept),
        "dropped": list(model.dropped),
        "below_target": model.below_target,
        "active_columns": list(model.active_columns),
    }
    if model.basis is not None:
        b = model.basis
        doc["pca"] = {
            "rows": [[float(v) for v in row] for row in b.rows],
            "singular_values": [float(v) for v in b.singular_values],
            "column_means": [float(v) for v in b.column_means],
            "column_scales": [float(v) for v in b.column_scales],
            "columns": list(b.columns),
        }
    if model.column_means is not None:
        doc["column_means"] = [float(v) for v in model.column_means]
    return doc


def model_from_dict(doc: dict) -> EnergyModel:
    try:
        basis = None
        if "pca" in doc:
            p = doc["pca"]
            basis = PCABasis(
                rows=np.array(p["rows"], dtype=float),
                singular_values=np.array(p["singular_values"], dtype=float),
                column_means=np.array(p["column_means"], dtype=float),
                column_scales=np.array(p["column_scales"], dtype=float),
                columns=tuple(p["columns"]),
            )
        means = None
        if "column_means" in doc:
            means = np.array(doc["column_means"], dtype=float)
        return EnergyModel(
            beta=np.array(doc["beta"], dtype=float),
            columns=tuple(doc["columns"]),
            kinds=tuple(doc["kinds"]),
            training_interval_s=float(doc["training_interval_s"]),
            fit_method=str(doc["fit_method"]),
            training_error=float(doc["training_error"]),
            basis=basis,
            kept=tuple(doc["kept"]),
            dropped=tuple(doc["dropped"]),
            column_means=means,
            below_target=bool(doc["below_target"]),
            active_columns=tuple(doc["active_columns"]),
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise ParseError(f"malformed model document: {exc}") from exc


def save_model(model: EnergyModel, path: str) -> None:
    with open(path, "w") as fh:
        json.dump(model_to_dict(model), fh, indent=1)


def load_model(path: str) -> EnergyModel:
    try:
        with open(path) as fh:
            doc = json.load(fh)
    except json.JSONDecodeError as exc:
        raise ParseError(f"{path}:{exc.lineno}: {exc.msg}") from exc
    return model_from_dict(doc)
