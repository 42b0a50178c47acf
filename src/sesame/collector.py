"""Assemble aligned (X, y) training data from the trace's runs, read as
the OS exposes the predictors: refreshed on their update grid, delayed.

Polling policies follow the predictors' update behavior: fast predictors
are summed exactly between the delayed update-grid ticks of the
target-interval boundaries, slow predictors hold their last completed
per-update rate, and an event-driven level changes at every delayed state
change. The sums come from the truth's own interval-sum kernel
(`RunLookup.sums`), on a delayed grid that is located by division
(`tracesim._Grid`), so no array of grid ticks is built. Every cumulative
column is written as a rate, so this module is the one place that knows
predictor units.

`collect_keyed` gives the same design and its true energies as keyed
rows (`KeyedRows`): each row's key, built from the runs and never from
the row values, into the distinct rows, each computed once. Only a run
that scores designs at its finest rate keys it (a molding or
regressogram run); every other design is `collect`'s.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .battery import CAPACITY, BatteryReadings
from .errors import ConfigurationError, RateError
from .tracesim import (
    EVENT_DRIVEN,
    LEVEL,
    POLLED_SLOW,
    PredictorSpec,
    RunLookup,
    Trace,
    _energy,
    _Grid,
    _ratio_as_int,
)


@dataclass
class DesignMatrix:
    """Per-interval predictor rates, with an optional response vector.

    Residency columns hold interval fractions, counter columns hold events
    per second, level columns hold the level at the interval start; no
    column depends on the interval's length. `y`, when present, is joules
    per interval.
    """

    interval_s: float
    columns: tuple[str, ...]
    kinds: tuple[str, ...]
    x: np.ndarray                      # (m, n)
    t_start_s: np.ndarray              # (m,)
    y: np.ndarray | None = None

    def __post_init__(self):
        self.x = np.asarray(self.x, dtype=float)
        if self.x.ndim != 2 or self.x.shape[0] < 1:
            raise ConfigurationError("design matrix needs at least one row")
        if self.x.shape[1] != len(self.columns) or len(self.kinds) != len(self.columns):
            raise ConfigurationError("column/kind count mismatch")
        if self.y is not None and len(self.y) != self.x.shape[0]:
            raise ConfigurationError("response length mismatch")

    @property
    def m(self) -> int:
        return self.x.shape[0]

    @property
    def n(self) -> int:
        return self.x.shape[1]


# rows per block of a walk through the key: two block buffers, its keys
# as intp and a gathered float column, take 512 KB
_BLOCK_ROWS = 1 << 15


@dataclass
class KeyedRows:
    """A design at one rate and its true energies, held as distinct rows.

    Row j of the design is `x[key[j]]` and its truth `y[key[j]]`, bit for
    bit `collect`'s and `true_energy`'s at that rate; `counts[u]` rows
    have key u. `collect_keyed` builds it without building the design,
    and nothing gathers either whole: the runners score and fit the
    distinct rows with their counts, and `window_means` and `truth_sums`
    walk the key in blocks.
    """

    interval_s: float
    columns: tuple[str, ...]
    kinds: tuple[str, ...]
    key: np.ndarray                    # (m,) unsigned, as narrow as the keys
    x: np.ndarray                      # (keys, n), column-major
    y: np.ndarray                      # (keys,) joules per interval
    counts: np.ndarray                 # (keys,) rows per key

    @property
    def m(self) -> int:
        return len(self.key)

    @property
    def n(self) -> int:
        return self.x.shape[1]

    def _blocks(self, window: int, rows: int):
        """Walk the first `rows` rows in blocks of whole `window`-row
        windows, about `_BLOCK_ROWS` rows each, the last one maybe
        shorter: yield (lo, key, buf), lo the block's first row, key its
        rows' keys as numpy's index type and buf a float buffer as long.
        Both are reused from block to block, so each block's key is cast
        once, whatever is gathered through it, and nothing row-length is
        built."""
        step = max(1, _BLOCK_ROWS // window) * window
        key = np.empty(min(step, rows), dtype=np.intp)
        buf = np.empty(len(key))
        for lo in range(0, rows, step):
            n = min(step, rows - lo)
            key[:n] = self.key[lo:lo + n]
            yield lo, key[:n], buf[:n]

    def window_means(self, window: int, count: int) -> np.ndarray:
        """(count, n): each column's mean over each of the first `count`
        windows of `window` rows, `x[key, i][:count * window].reshape(
        count, window).mean(axis=1)` bit for bit, as each window's mean
        reads its own rows alone."""
        x = np.empty((count, self.n))
        for lo, key, buf in self._blocks(window, count * window):
            at = slice(lo // window, (lo + len(key)) // window)
            for i in range(self.n):
                np.take(self.x[:, i], key, out=buf, mode="clip")
                x[at, i] = buf.reshape(-1, window).mean(axis=1)
        return x

    def truth_sums(self, windows: Sequence[int]) -> list[np.ndarray]:
        """The truth summed over each whole window of r rows, for each r
        of `windows`: `y[key][:c * r].reshape(c, r).sum(axis=1)` bit for
        bit, c = m // r, from one gather of the truth in blocks of whole
        windows of every r."""
        step = math.lcm(*windows)
        sums = [np.empty(self.m // r) for r in windows]
        for lo, key, buf in self._blocks(step, self.m):
            np.take(self.y, key, out=buf, mode="clip")
            for r, out in zip(windows, sums):
                c = len(buf) // r
                out[lo // r:lo // r + c] = buf[:c * r].reshape(c, r).sum(axis=1)
        return sums


def _spec_ticks(spec: PredictorSpec, tick_s: float) -> tuple[int, int]:
    """(delay, update period) of `spec` in ticks of `tick_s`; an
    event-driven level changes at every delayed state change (period 1)."""
    delay = _ratio_as_int(spec.delay_s, tick_s, f"{spec.id} delay", least=0)
    if spec.policy == EVENT_DRIVEN:
        return delay, 1
    return delay, _ratio_as_int(1.0 / spec.update_rate_hz, tick_s,
                                f"{spec.id} update period")


def _shape(trace: Trace, target_rate_hz: float) -> tuple[float, int, int]:
    """(interval, k, m) of a design at `target_rate_hz`: its interval in
    seconds and in whole ticks, and its number of rows."""
    if target_rate_hz <= 0:
        raise ConfigurationError("target rate must be > 0")
    interval = 1.0 / target_rate_hz
    k = _ratio_as_int(interval, trace.tick_s,
                      f"target rate {target_rate_hz:g} Hz interval")
    m = len(trace) // k
    if m < 1:
        raise ConfigurationError("trace shorter than one interval")
    return interval, k, m


def _groups(trace: Trace, specs: Sequence[PredictorSpec],
            k: int) -> dict[tuple[int, int, int, bool], list[int]]:
    """The specs' columns by their delayed grid, (component, delay,
    update period, held), for intervals of `k` ticks."""
    groups: dict[tuple[int, int, int, bool], list[int]] = {}
    for i, spec in enumerate(specs):
        delay, period = _spec_ticks(spec, trace.tick_s)
        held = (spec.kind != LEVEL and spec.policy == POLLED_SLOW
                and period > k)
        key = (trace.model.component_index(spec.component), delay, period,
               held)
        groups.setdefault(key, []).append(i)
    return groups


def _group_lookup(trace: Trace, group: tuple[int, int, int, bool], m: int,
                  k: int) -> RunLookup:
    """The lookup of `group`'s delayed grid for `m` intervals of `k`
    ticks. A held group's grid has one interval per poll: a row whose
    last update instant is p (in periods) holds sum p, the period ending
    where a poll at p reads, at (p - lag + 1) * period, where lag is the
    delay in whole periods, rounded up, plus one. Its spans are all one
    period past its head (L = 1)."""
    c_idx, delay, period, held = group
    if held:
        lag = 1 + -(-delay // period)
        grid = _Grid((m - 1) * k // period + 1, period, lag * period, period)
    else:
        grid = _Grid(m, k, delay, period)
    return RunLookup(trace, c_idx, grid)


def _write_group(trace: Trace, specs: Sequence[PredictorSpec],
                 group: tuple[int, int, int, bool], columns: list[int],
                 lookup: RunLookup, k: int, interval: float, x: np.ndarray,
                 rows: np.ndarray | None = None) -> None:
    """Write the `columns` of `x` whose specs share `group`'s delayed
    grid, as `collect` says, from its `lookup`. With `rows`, x has one
    row per entry of `rows` and holds those rows of the design, bit for
    bit, each computed alone; else every row. A held group's sums are
    taken over every poll, which are fewer than the rows, and each row
    reads its own poll's."""
    period, held = group[2], group[3]
    if held:
        # the poll that each row reads
        polls = (np.arange(len(x)) if rows is None else rows) * k
        polls //= period
    for i in columns:
        spec = specs[i]
        weights = trace.model.weight_vector(spec)[1]
        if spec.kind == LEVEL:
            x[:, i] = (lookup.at(weights)[:-1] if rows is None
                       else weights[lookup.states_at(rows)])
            continue
        if rows is None or held:
            sums = lookup.sums(weights)
        else:
            sums = lookup.sums_at(weights, rows)
        sums *= trace.tick_s
        if held:
            sums /= 1.0 / spec.update_rate_hz
            x[:, i] = sums[polls]
        else:
            np.divide(sums, interval, out=x[:, i])


def collect(trace: Trace, specs: Sequence[PredictorSpec],
            target_rate_hz: float) -> DesignMatrix:
    """Build the X-only design matrix at `target_rate_hz`, one row per
    whole interval of the trace; the interval must be whole ticks.

    The OS refreshes a predictor every update period and reflects the
    state `delay` ticks back, so the value visible at tick b was current
    at (b - delay) // period * period, and at 0 before the trace start.
    Specs of one component with the same delay and update period share
    one such delayed grid, a `_Grid` answered by division, and its
    `RunLookup`, which is freed before the next group's is built. A
    level reads its weight at each interval start's grid tick. A
    cumulative column (residency or counter) is the exact sum over its
    grid interval, divided by the target interval: a fraction or events
    per second. A polled-slow one whose period exceeds the interval
    holds instead the sum over the last update period completed before
    each interval start, on the delayed period grid, divided by the
    period.
    """
    if not specs:
        raise ConfigurationError("no predictors to collect")
    interval, k, m = _shape(trace, target_rate_hz)
    # column-major: each column is written, and later read, whole
    x = np.empty((m, len(specs)), order="F")
    for group, columns in _groups(trace, specs, k).items():
        _write_group(trace, specs, group, columns,
                     _group_lookup(trace, group, m, k), k, interval, x)
    return DesignMatrix(
        interval_s=interval,
        columns=tuple(s.id for s in specs),
        kinds=tuple(s.kind for s in specs),
        x=x,
        t_start_s=np.arange(m) * interval,
    )


def _dense(code: np.ndarray, space: int) -> np.ndarray:
    """The dense number of each code below `space` that occurs, in code
    order, indexed by code; one bincount."""
    lut = np.cumsum(np.bincount(code, minlength=space) > 0)
    lut -= 1
    return lut


def _segment_states(starts: np.ndarray, cuts: np.ndarray,
                    states: np.ndarray, m: int) -> np.ndarray:
    """The state at each of the increasing `starts`: `states[i]` holds
    from `cuts[i]` on, the cuts increasing, each one of the starts and
    below `m`, and the first of both 0."""
    marks = np.zeros(m, dtype=bool)
    marks[cuts] = True
    index = np.cumsum(marks[starts])
    index -= 1
    return states[index]


def _codes(starts: np.ndarray, changes, radices, m: int,
           code: np.ndarray | None = None, space: int = 1
           ) -> tuple[np.ndarray, int]:
    """(code, space): at each of `starts`, `code` (default 0, every code
    below `space`) extended by one digit per lookup of `changes`, its
    state there, in the radix of its number of states. After each digit
    the codes are renumbered densely, in code order, so that `space` is
    the number of distinct codes and no bincount is longer than the
    starts times a radix."""
    if code is None:
        code = np.zeros(len(starts), dtype=np.int64)
    for (cuts, states), radix in zip(changes, radices):
        code *= radix
        code += _segment_states(starts, cuts, states, m)
        lut = _dense(code, space * radix)
        code, space = lut[code], int(lut[-1]) + 1
    return code, space


def _row_keys(m: int, k: int, parts) -> tuple[np.ndarray, np.ndarray,
                                              np.ndarray]:
    """(key, counts, rows) of `m` rows of `k` ticks: each row's dense
    key, the rows per key and one row of each key.

    Each of `parts`, (lookup, n_states, spans, period), is a lookup whose
    values fix part of a row: its state at the row, and, when `spans`,
    its span, fixed by the row's phase past the grid's head except in the
    rows below the head and the rows that cross a run start, which are
    singular. A held group's lookup (`period` given) has one grid
    interval per poll, and a row reads its own poll's.

    The rows are cut into segments where any lookup's state may change
    and around each singular row or poll, so that each segment holds one
    state per lookup. A segment's code is a mixed radix of those states,
    renumbered densely with a bincount (`_codes`). The lookup with the
    most changes is cut in last: the others' digits are built on the
    coarse segments of their own cuts, and only its digit on every
    segment. At 100 Hz that lookup is the truth's of a component that no
    predictor reads, t61like's and quadratic_cpu's `bridge`, whose
    50,029 and 59,640 changes outnumber every other lookup's by some 200
    and 500 times; cutting every digit on every segment took 11.5 and 4.9
    ms there against 8.1 and 3.5 ms (median of 60). A row's key is its
    segment's code and its phase j mod L, L the least common multiple of
    the groups' span periods, which fixes every group's phase; the keys
    that occur are numbered densely in code order, and each singular
    segment's rows are keyed apart. The key is held in the narrowest
    unsigned type that holds the key count (uint8 for quadratic_cpu's 28
    keys at 100 Hz, uint16 for t61like's 1,013), so no row-length array
    is wider than it.
    """
    changes, singular, repeat = [], [], 1
    for lookup, _, spans, period in parts:
        cuts, states = lookup.changes()
        odd = np.empty(0, dtype=np.int64)
        if spans:
            odd = np.concatenate([np.arange(lookup.query.head),
                                  lookup.crossing_rows()])
        if period is None:
            if spans:
                repeat = math.lcm(repeat, lookup.query.repeat)
        else:
            # poll q's first row is ceil(q * period / k); each row of a
            # singular poll is singular
            cuts, lo, hi = (-(-(q * period) // k) for q in (cuts, odd, odd + 1))
            odd = np.repeat(lo - np.cumsum(hi - lo) + (hi - lo), hi - lo)
            odd += np.arange(len(odd))
        below = np.searchsorted(cuts, m)
        changes.append((cuts[:below], states[:below]))
        singular.append(odd)
    radices = [n_states for _, n_states, _, _ in parts]
    big = max(range(len(parts)), key=lambda i: len(changes[i][0]))
    rest = [i for i in range(len(parts)) if i != big]
    singular = np.unique(np.concatenate(singular))
    singular = singular[:np.searchsorted(singular, m)]
    # a singular row is a segment of its own
    coarse = np.unique(np.concatenate(
        [changes[i][0] for i in rest] + [singular, singular + 1, [0]]))
    coarse = coarse[:np.searchsorted(coarse, m)]
    code, space = _codes(coarse, [changes[i] for i in rest],
                         [radices[i] for i in rest], m)
    breaks = np.zeros(m, dtype=bool)
    breaks[coarse] = breaks[changes[big][0]] = True
    starts = np.flatnonzero(breaks)
    del breaks
    code = np.repeat(code, np.diff(np.searchsorted(starts, coarse),
                                   append=len(starts)))
    seg, space = _codes(starts, [changes[big]], [radices[big]], m, code,
                        space)
    del code
    single = np.searchsorted(starts, singular)
    seg[single] = space             # one code past every other
    # the singular rows, one segment each, share the last code, and are
    # keyed alone at the end; a code that only they held has no rows
    n_seg = int(seg.max()) + 1
    lengths = np.diff(starts, append=m)
    # a segment's first `repeat` rows hold each phase that it holds: one
    # segment of each code, as long as that, gives a row of each phase,
    # and the segments shorter than that give the rest. They are found
    # before the key is built, so their temporaries and it never meet.
    rows = np.empty(n_seg * repeat, dtype=np.int64)
    short = lengths < repeat
    whole = np.full(n_seg, -1)
    whole[seg[~short]] = np.flatnonzero(~short)
    has = np.flatnonzero(whole >= 0)
    first = starts[whole[has]]
    for ph in range(repeat):
        rows[has * repeat + (first + ph) % repeat] = first + ph
    for offset in range(1, repeat):
        ok = np.flatnonzero(short)
        row = starts[ok] + offset - 1
        rows[seg[ok] * repeat + row % repeat] = row
        short &= lengths > offset
    # a row's key is c * L + ph, its segment's code c and its phase ph,
    # until the keys that occur are renumbered; it is built in a type that
    # holds both numberings, and each pass over it casts one block to intp
    key = (seg * repeat).astype(
        np.min_scalar_type(n_seg * repeat + len(singular)))
    key = np.repeat(key, lengths)
    for ph in range(1, repeat):
        key[ph::repeat] += ph
    if repeat == 1:
        counts = np.bincount(seg, weights=lengths).astype(np.int64)
    else:
        counts = np.zeros(n_seg * repeat, dtype=np.int64)
        for lo in range(0, m, _BLOCK_ROWS):
            counts += np.bincount(key[lo:lo + _BLOCK_ROWS],
                                  minlength=len(counts))
    if len(single):
        counts[-repeat:] = 0
    present = counts > 0
    n = int(present.sum())
    if not present[:n].all():
        # the dense number of each present key; a key that no row holds
        # gets its successor's
        lut = (np.cumsum(present) - present).astype(key.dtype)
        for lo in range(0, m, _BLOCK_ROWS):
            block = key[lo:lo + _BLOCK_ROWS]
            np.take(lut, block, out=block, mode="clip")
    key[singular] = np.arange(n, n + len(singular))
    # the narrowest type that holds the key count
    key = key.astype(np.min_scalar_type(n + len(singular)), copy=False)
    return (key,
            np.concatenate([counts[present],
                            np.ones(len(singular), dtype=np.int64)]),
            np.concatenate([rows[present], singular]))


def collect_keyed(trace: Trace, specs: Sequence[PredictorSpec],
                  target_rate_hz: float) -> "KeyedRows":
    """`collect` and `true_energy` at `target_rate_hz`, as keyed rows.

    A row's key is built from the trace's runs, not from its values: a
    mixed-radix code with one digit for each component's true state, and
    for each collector group its grid's state at the row and, past the
    grid's head, the row's span phase. Rows below a group's head, and
    rows that cross a run start on any grid the truth or a group sums,
    are keyed alone. Rows with one key then hold one design row and one
    true energy, bit for bit, which are computed once, at one of their
    rows, with `collect`'s and `true_energy`'s operations in their order.

    A molding or regressogram run holds its finest rate this way
    (`experiments.RunArtifacts.keyed`), as it scores and fits that rate's
    distinct rows with their counts, and sums its coarser truths and its
    battery energies from them. It pays only where rows repeat, as they
    do at 100 Hz; `collect` stays the path for a design as such. On
    t61like, `collect` takes 0.9, 1.2 and 5.3 ms at 1, 10 and 100 Hz, and
    this with the design gathered through the key 6.2, 24.5 and 12.5 ms,
    as 3,000 of 3,000 and 26,178 of 30,000 rows are distinct at 1 and 10
    Hz; on dvs_flip's 45 adaptation windows they take 0.20 and 0.67 ms.
    """
    interval, k, m = _shape(trace, target_rate_hz)
    components = trace.model.components
    query = _Grid(m, k)
    truth = [RunLookup(trace, c_idx, query) for c_idx in range(len(components))]
    parts = [(lookup, comp.n_states, True, None)
             for lookup, comp in zip(truth, components)]
    groups = []
    for group, columns in _groups(trace, specs, k).items():
        lookup = _group_lookup(trace, group, m, k)
        parts.append((lookup, components[group[0]].n_states,
                      any(specs[i].kind != LEVEL for i in columns),
                      group[2] if group[3] else None))
        groups.append((group, columns, lookup))
    key, counts, rows = _row_keys(m, k, parts)
    x = np.empty((len(rows), len(specs)), order="F")
    for group, columns, lookup in groups:
        _write_group(trace, specs, group, columns, lookup, k, interval, x,
                     rows)
    return KeyedRows(
        interval_s=interval,
        columns=tuple(s.id for s in specs),
        kinds=tuple(s.kind for s in specs),
        key=key, x=x, y=_energy(trace, k, truth, rows), counts=counts)


def aggregate_response(readings: BatteryReadings,
                       interval_s: float) -> np.ndarray:
    """Joules per `interval_s` window derived from battery readings.

    Current kinds sum reading x voltage x reading-period; the capacity kind
    differences the boundary readings and multiplies by voltage.
    """
    v = readings.model.supply_voltage_v
    period = readings.period_s
    if interval_s < period:
        raise RateError(
            f"interval {interval_s} s is shorter than the reading period {period} s")
    k = _ratio_as_int(interval_s, period, "response interval")
    if readings.kind == CAPACITY:
        # values[0] is the t=0 reading; boundaries sit every k readings
        m = (len(readings.values) - 1) // k
        if m < 1:
            raise RateError("not enough capacity readings for one interval")
        levels = readings.values[: m * k + 1: k]
        return -np.diff(levels) * v
    m = len(readings.values) // k
    if m < 1:
        raise RateError("not enough readings for one interval")
    grouped = readings.values[: m * k].reshape(m, k).sum(axis=1)
    return grouped * v * period
