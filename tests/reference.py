"""Reference formulas that the tests use as oracles.

The pipeline reads the run-length trace at queried ticks only; these
expand it to one value per tick, and give the exact coefficients of a
system whose predictors are its own state residencies. `ArrayQuery` is
a query given as an array of ticks, searched and differenced, against
which the closed-form grid is pinned, and `tiled_times_spans` the grid's
span product through one tiled pattern array, against which its
in-place product is pinned; the reference collector builds
each delayed update grid as such an array, and the loops walk a Markov
chain one step at a time and fit a regressogram one row at a time, as
the closed-form grid and the vectorised code must match bit for bit.
The scoring
formulas gather the kept columns, mask the truths and stack the oracle's
design for every call, as the per-rate scoring must match bit for bit.
The smallest l that meets a target is found by fitting every l on its
own training set.
"""

import math

import numpy as np

import sesame as ss
from sesame import collector, tracesim
from sesame.errors import ArgumentError


def tick_states(trace: ss.Trace) -> np.ndarray:
    """(n_components, n_ticks) int16 state per tick."""
    return np.vstack([tracesim._expand_runs(starts, states, len(trace))
                      for starts, states in trace.runs])


def tick_power(trace: ss.Trace) -> np.ndarray:
    """(n_ticks,) system power per tick, in watts."""
    power = np.full(len(trace), trace.model.base_power_w)
    for comp, states in zip(trace.model.components, tick_states(trace)):
        power += np.asarray(comp.state_powers)[states]
    return power


def fixed(state: int) -> ss.Schedule:
    """A component pinned to `state`: a one-step schedule."""
    return ss.Schedule(((1.0, state),))


def duty(period_s: float, fraction_hi: float, state_hi: int,
         state_lo: int) -> ss.Schedule:
    """A square wave, `fraction_hi` of each period in `state_hi` and the
    rest in `state_lo`, as a schedule; a part of zero length is left out."""
    steps = ((fraction_hi * period_s, state_hi),
             ((1.0 - fraction_hi) * period_s, state_lo))
    return ss.Schedule(tuple(step for step in steps if step[0] != 0))


def residency_predictors(model: ss.ComponentStateModel,
                         update_rate_hz: float = 1000.0
                         ) -> list[ss.PredictorSpec]:
    """One unit-weight residency spec per non-baseline state.

    State 0 of each component is the omitted baseline, which keeps the
    design matrix clear of the all-states-sum-to-one collinearity. Ids
    are `component:state`, by state name where the component has names.
    """
    specs = []
    for comp in model.components:
        names = comp.state_names or range(comp.n_states)
        specs.extend(ss.PredictorSpec(id=f"{comp.name}:{names[j]}",
                                      component=comp.name, kind="residency",
                                      weights={j: 1.0},
                                      update_rate_hz=update_rate_hz)
                     for j in range(1, comp.n_states))
    return specs


def residency_beta_true(model: ss.ComponentStateModel, interval_s: float,
                        specs: list[ss.PredictorSpec]) -> np.ndarray:
    """Exact energy-per-interval coefficients of `residency_predictors`.

    The intercept collects the base power plus every component's state-0
    power; each coefficient is its state's power above state 0. All of it
    is scaled by the interval.
    """
    coefs = []
    for spec in specs:
        (j, w), = spec.weights.items()
        assert spec.kind == "residency" and w == 1.0, spec
        powers = model.components[model.component_index(spec.component)
                                  ].state_powers
        coefs.append(powers[j] - powers[0])
    base = model.base_power_w + sum(c.state_powers[0] for c in model.components)
    return np.array([base] + coefs) * interval_s


class ArrayQuery:
    """Query ticks given as a non-decreasing 1-D array, searched and
    differenced: the interface of `tracesim._Grid`, which answers the
    same in closed form. It is never taken as uniform, so a lookup on it
    always takes the general path: `first_at`, `times_spans` and the
    crossings.
    """

    uniform = False

    def __init__(self, ticks: np.ndarray):
        q = np.asarray(ticks, dtype=np.int64)
        if q.ndim != 1 or bool(np.any(q[:-1] > q[1:])):
            raise ArgumentError("query ticks must be a non-decreasing "
                                "1-D array")
        self.ticks = q
        self.size = q.size

    def ticks_at(self, j):
        """The query ticks at the indices `j`."""
        return self.ticks[j]

    def first_at(self, ticks: np.ndarray) -> np.ndarray:
        """Index of the first query at or after each of `ticks` (each
        >= 0), or `size` past the last query."""
        return np.searchsorted(self.ticks, ticks, side="left")

    def times_spans(self, values: np.ndarray) -> None:
        """Multiply each `values[j]` in place by the ticks in the
        interval [ticks[j], ticks[j+1]), j < size - 1."""
        np.multiply(values, np.diff(self.ticks), out=values)


def tiled_times_spans(grid: tracesim._Grid, values: np.ndarray) -> None:
    """`_Grid.times_spans` with the span pattern laid end to end: each
    `values[j]` times the ticks in [ticks[j], ticks[j+1]), in place, past
    the head through one tiled array as long as `values`."""
    k = grid.step
    head = min(-(-grid.delay // k), grid.size - 1)
    if head:
        values[:head - 1] *= 0
        values[head - 1] *= grid.ticks_at(head)
    rest = values[head:]
    repeat = min(grid.period // math.gcd(k, grid.period), len(rest))
    pattern = np.diff(grid.ticks_at(
        np.arange(head, head + repeat + 1, dtype=np.int64)))
    if repeat == 1:
        rest *= pattern[0]
    elif repeat:
        rest *= np.tile(pattern.astype(float),
                        -(-len(rest) // repeat))[:len(rest)]


def locate(trace: ss.Trace, c_idx: int,
           ticks: np.ndarray) -> tracesim.RunLookup:
    """The runs of component `c_idx` located at the query `ticks`, given
    as an array."""
    return tracesim.RunLookup(trace, c_idx, ArrayQuery(ticks))


def interval_truth(trace: ss.Trace, spec: ss.PredictorSpec,
                   interval_s: float) -> np.ndarray:
    """Exact per-interval aggregate: fraction, count delta, or mean level."""
    k = tracesim._ratio_as_int(interval_s, trace.tick_s, "interval")
    c_idx, w = trace.model.weight_vector(spec)
    sums = locate(trace, c_idx, np.arange(len(trace) // k + 1) * k).sums(w)
    if spec.kind == tracesim.COUNTER:
        return sums * trace.tick_s
    return sums / k


def array_grid_collect(trace: ss.Trace, specs: list[ss.PredictorSpec],
                       rate_hz: float) -> np.ndarray:
    """`collect`'s design matrix x, with each spec's delayed update grid
    built as an array of ticks and located by a search of that array.

    The value visible at tick b was current at (b - delay) // period *
    period, and at 0 before the trace start. A held column (polled-slow,
    its period longer than the interval) reads, at each interval start
    b, the rate over the update period that ends (b // period - ceil(
    delay / period)) periods in, and 0 before the trace start.
    """
    interval = 1.0 / rate_hz
    k = tracesim._ratio_as_int(interval, trace.tick_s, "interval")
    boundaries = np.arange(len(trace) // k + 1) * k
    x = np.empty((len(boundaries) - 1, len(specs)), order="F")
    for i, spec in enumerate(specs):
        delay, period = collector._spec_ticks(spec, trace.tick_s)
        c_idx, w = trace.model.weight_vector(spec)
        held = (spec.kind != tracesim.LEVEL
                and spec.policy == tracesim.POLLED_SLOW and period > k)
        if held:
            polls = boundaries[:-1] // period
            shift = -delay // period
            grid = np.arange(shift - 1, polls[-1] + shift + 1) * period
        else:
            grid = (boundaries - delay) // period * period
        lookup = locate(trace, c_idx, np.maximum(grid, 0))
        if spec.kind == tracesim.LEVEL:
            x[:, i] = lookup.at(w)[:-1]
        elif held:
            x[:, i] = lookup.sums(w)[polls] * trace.tick_s / (
                1.0 / spec.update_rate_hz)
        else:
            x[:, i] = lookup.sums(w) * trace.tick_s / interval
    return x


def read_grid(trace: ss.Trace, rate_hz: float) -> np.ndarray:
    """Tick indices of the read instants 0, 1/rate_hz, ... up to the end
    of the trace."""
    k = tracesim._ratio_as_int(1.0 / rate_hz, trace.tick_s, "read period")
    return np.arange(len(trace) // k + 1) * k


def loop_markov_states(proc: ss.MarkovChain, n_ticks: int, tick_s: float,
                       rng_key: tuple[int, ...]) -> np.ndarray:
    """(n_ticks,) int16 state per tick, one searchsorted per Markov step."""
    k = len(proc.transition)
    ticks_per_step = int(round(proc.step_s / tick_s))
    n_steps = -(-n_ticks // ticks_per_step)
    rng = np.random.default_rng(rng_key)
    cum = np.cumsum(np.asarray(proc.transition, dtype=float), axis=1)
    draws = rng.random(n_steps)
    states = np.empty(n_steps, dtype=np.int16)
    s = proc.initial_state
    for i in range(n_steps):
        states[i] = s
        s = int(np.searchsorted(cum[s], draws[i], side="right"))
        s = min(s, k - 1)
    return np.repeat(states, ticks_per_step)[:n_ticks]


def bin_index(value: float, edges: np.ndarray, k: int) -> int | None:
    """Bin of `value` among equal-width `edges`, or None outside them."""
    lo, hi = edges[0], edges[-1]
    if value < lo or value > hi:
        return None
    if hi == lo:
        return 0
    idx = int((value - lo) / (hi - lo) * k)
    return min(idx, k - 1)


def loop_fit_regressogram(x: np.ndarray, y: np.ndarray, k: int):
    """Regressogram fit row by row: the edges, {cell: (count, running
    sum)} in order of first appearance, and the running-sum mean."""
    edges = tuple(np.linspace(x[:, j].min(), x[:, j].max(), k + 1)
                  for j in range(x.shape[1]))
    cells = {}
    for i in range(x.shape[0]):
        cell = tuple(bin_index(x[i, j], edges[j], k)
                     for j in range(x.shape[1]))
        count, total = cells.get(cell, (0, 0.0))
        cells[cell] = (count + 1, total + float(y[i]))
    total = 0.0
    for v in y:
        total += float(v)
    return edges, cells, total / len(y)


def loop_predict_regressogram(edges, cells, fallback: float, k: int,
                              row: np.ndarray) -> float:
    """The mean of `row`'s cell in a `loop_fit_regressogram` fit; the
    fallback when a value is outside its edges or the cell is empty."""
    cell = tuple(bin_index(float(v), e, k) for v, e in zip(row, edges))
    if None in cell or cell not in cells:
        return fallback
    count, total = cells[cell]
    return total / count


def gather_predict_rows(model: ss.EnergyModel, x: np.ndarray,
                        interval_s: float) -> np.ndarray:
    """`EnergyModel.predict_rows`, gathering the kept columns by index
    whichever columns the model keeps."""
    x = np.atleast_2d(np.asarray(x, dtype=float))
    by_name = {c: i for i, c in enumerate(model.columns)}
    idx = [by_name[c] for c in model.kept]
    rates = x[:, idx]
    per_t = model.beta[0] + rates @ model.beta[1:]
    return per_t * (interval_s / model.training_interval_s)


def masked_rms_relative_error(estimates: np.ndarray,
                              truth: np.ndarray) -> float:
    """`rms_relative_error`, masking both arrays on every call."""
    est = np.asarray(estimates, dtype=float)
    tru = np.asarray(truth, dtype=float)
    assert est.shape == tru.shape
    ok = tru > 0
    assert ok.any()
    rel = (est[ok] - tru[ok]) / tru[ok]
    return float(np.sqrt(np.mean(rel * rel)))


def stacked_fit_oracle(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """The per-rate oracle's coefficients, from the design [1 X] stacked
    over the positive-truth rows and then weighted by 1 / y."""
    ok = y > 0
    a = np.column_stack([np.ones(int(ok.sum())), x[ok]])
    w = 1.0 / y[ok]
    coef, *_ = np.linalg.lstsq(a * w[:, None], np.ones(len(w)), rcond=None)
    return coef


def oracle_rms(x: np.ndarray, y: np.ndarray, coef: np.ndarray) -> float:
    """The oracle's objective: the RMS relative error of the affine
    estimate `coef` over the positive-truth rows."""
    ok = y > 0
    rel = (coef[0] + x[ok] @ coef[1:]) / y[ok] - 1.0
    return float(np.sqrt(np.mean(rel * rel)))


def scaled_cond(g: np.ndarray) -> float:
    """Condition number of `g` scaled to a unit diagonal, the oracle's
    test for solving its normal equations; infinite when the diagonal
    holds a zero."""
    d = np.sqrt(np.diag(g))
    return float(np.linalg.cond(g / d / d[:, None])) if d.all() else np.inf


def smallest_l_meeting(dm, target: float, method: str = "TLS") -> int | None:
    """The smallest l whose PCA fit, built from scratch, has a training
    accuracy (1 - RMS relative error) of at least `target`; None when no
    l in 1..n does."""
    n = ss.build_model(dm, method).l
    meets = [l for l in range(1, n + 1)
             if 1.0 - ss.build_model(dm, method, l=l).training_error >= target]
    return min(meets, default=None)
