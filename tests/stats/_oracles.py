"""Frozen pre-columnar implementations: the stats differential oracles.

What ``repro.stats`` computed before the miss path was rebuilt around
shared-storage columns, one-sort summaries and single-pass scoring, kept
**verbatim** (modulo turning methods into functions) so the replacements
can be held to the bit:

* :class:`RingBuffer` + :class:`RingSeries` — the ring-buffer series model
  ``TimeSeries`` used to be (O(S) list-comprehension window scans, an
  O(capacity) ``frozen_clone``);
* :func:`percentile_summary` / :func:`percentile_accuracy` — the
  ``np.percentile`` summary and its second pass in ``sample_accuracy``;
* :func:`three_function_score` — ``Backtester._score`` computing loss and
  coverage twice through ``pinball_loss``/``band_coverage``/``score_accuracy``
  (frozen here as they were; the public ones must still agree);
* :func:`pairwise_theil_sen` — the pure-Python pairwise-slope median;
* :class:`Backtester` (with :func:`score_prediction`, ``_Pending`` and
  ``_Cell``) — the per-cell backtester that filed each prediction under its
  ``(series, predictor, horizon)`` cell and, on every settle, walked every
  outstanding prediction of the series, reading and sorting the realized
  window once per matured prediction.  Its one known bug is kept with it:
  ``record`` dedupes only against the cell's latest prediction, so an
  origin re-filed behind a later one is held (and scored) twice.

Do not fix or optimise this module — its value is being frozen.
"""

from __future__ import annotations

import math
import threading
from collections.abc import Iterator
from typing import Generic, Hashable, Iterable, TypeVar

import numpy as np

from repro.stats.forecast import MIN_SETTLED, QUANTILE_LEVELS
from repro.stats.quartiles import StatMeasure
from repro.util.errors import ConfigurationError

T = TypeVar("T")


class RingBuffer(Generic[T]):
    """A bounded FIFO with O(1) append and oldest-first iteration."""

    __slots__ = ("_items", "_capacity", "_start", "_count")

    def __init__(self, capacity: int):
        if capacity <= 0:
            raise ConfigurationError(f"ring buffer capacity must be positive, got {capacity}")
        self._capacity = int(capacity)
        self._items: list[T | None] = [None] * self._capacity
        self._start = 0
        self._count = 0

    @property
    def capacity(self) -> int:
        """Maximum number of items retained."""
        return self._capacity

    def __len__(self) -> int:
        return self._count

    def __bool__(self) -> bool:
        return self._count > 0

    @property
    def full(self) -> bool:
        """True once appends start evicting the oldest item."""
        return self._count == self._capacity

    def append(self, item: T) -> None:
        """Add *item*, evicting the oldest item if the buffer is full."""
        end = (self._start + self._count) % self._capacity
        self._items[end] = item
        if self._count == self._capacity:
            self._start = (self._start + 1) % self._capacity
        else:
            self._count += 1

    def extend(self, items) -> None:
        """Append every element of *items* in order."""
        for item in items:
            self.append(item)

    def __getitem__(self, index: int) -> T:
        """Item at *index*, where 0 is the oldest retained item."""
        if index < 0:
            index += self._count
        if not 0 <= index < self._count:
            raise IndexError(f"ring buffer index {index} out of range (len={self._count})")
        return self._items[(self._start + index) % self._capacity]  # type: ignore[return-value]

    def __iter__(self) -> Iterator[T]:
        for i in range(self._count):
            yield self._items[(self._start + i) % self._capacity]  # type: ignore[misc]

    def newest(self) -> T:
        """Most recently appended item."""
        if self._count == 0:
            raise IndexError("ring buffer is empty")
        return self[self._count - 1]

    def oldest(self) -> T:
        """Oldest retained item."""
        if self._count == 0:
            raise IndexError("ring buffer is empty")
        return self[0]

    def copy(self) -> "RingBuffer[T]":
        """A shallow copy (same items, independent storage)."""
        clone: RingBuffer[T] = RingBuffer(self._capacity)
        clone._items = list(self._items)
        clone._start = self._start
        clone._count = self._count
        return clone

    def clear(self) -> None:
        """Drop every item."""
        self._items = [None] * self._capacity
        self._start = 0
        self._count = 0

    def to_list(self) -> list[T]:
        """Items oldest-first as a plain list."""
        return list(self)


class RingSeries:
    """The pre-columnar ``TimeSeries``: ``RingBuffer[(time, value)]`` scans."""

    def __init__(self, capacity: int = 4096, name: str = ""):
        self.name = name
        self._buffer: RingBuffer[tuple[float, float]] = RingBuffer(capacity)
        self._last_time = -float("inf")
        self._version = 0
        self._frozen = False

    def __len__(self) -> int:
        return len(self._buffer)

    @property
    def version(self) -> int:
        return self._version

    @property
    def empty(self) -> bool:
        return len(self._buffer) == 0

    def frozen_clone(self) -> "RingSeries":
        clone = RingSeries.__new__(RingSeries)
        clone.name = self.name
        clone._buffer = self._buffer.copy()
        clone._last_time = self._last_time
        clone._version = self._version
        clone._frozen = True
        return clone

    def add(self, time: float, value: float) -> None:
        if self._frozen:
            raise ConfigurationError(f"series {self.name!r} is frozen")
        if time < self._last_time:
            raise ConfigurationError(
                f"series {self.name!r}: sample time {time} precedes {self._last_time}"
            )
        self._last_time = time
        self._version += 1
        self._buffer.append((time, float(value)))

    def latest(self) -> tuple[float, float]:
        if self.empty:
            raise ConfigurationError(f"series {self.name!r} is empty")
        return self._buffer.newest()

    def latest_value(self) -> float:
        return self.latest()[1]

    def window(self, since: float, until: float = float("inf")):
        return np.array([v for t, v in self._buffer if since <= t <= until], dtype=float)

    def times(self, since: float = -float("inf"), until: float = float("inf")):
        return np.array([t for t, _ in self._buffer if since <= t <= until], dtype=float)

    def values(self):
        return np.array([v for _, v in self._buffer], dtype=float)

    def has_sample_in(self, since: float, before: float) -> bool:
        for t, _ in self._buffer:
            if t >= before:
                return False
            if t >= since:
                return True
        return False

    def span(self) -> float:
        if len(self._buffer) < 2:
            return 0.0
        return self._buffer.newest()[0] - self._buffer.oldest()[0]


def percentile_accuracy(values) -> float:
    """Pre-rebuild ``sample_accuracy``: its own ``np.percentile`` pass."""
    values = np.asarray(values, dtype=float)
    n = values.size
    if n == 0:
        return 0.0
    count_term = 1.0 - np.exp(-n / 10.0)
    if n == 1:
        return float(0.5 * count_term)
    q1, median, q3 = np.percentile(values, [25, 50, 75])
    scale = max(abs(median), 1e-12)
    dispersion = (q3 - q1) / scale
    dispersion_term = 1.0 / (1.0 + dispersion)
    return min(1.0, max(0.0, float(count_term * dispersion_term)))


def percentile_summary(values) -> dict:
    """Pre-rebuild ``StatMeasure.from_samples`` as ``to_dict()`` fields."""
    data = np.asarray(list(values), dtype=float)
    quartiles = np.percentile(data, [0, 25, 50, 75, 100])
    return {
        "min": float(quartiles[0]),
        "q1": float(quartiles[1]),
        "median": float(quartiles[2]),
        "q3": float(quartiles[3]),
        "max": float(quartiles[4]),
        "mean": float(data.mean()),
        "n_samples": int(data.size),
        "accuracy": float(percentile_accuracy(data)),
    }


def pinball_loss(measure, realized) -> float:
    values = [float(v) for v in realized]
    if not values:
        raise ValueError("pinball loss needs at least one realized sample")
    total = 0.0
    for y in values:
        for level, attr in QUANTILE_LEVELS:
            diff = y - getattr(measure, attr)
            total += max(level * diff, (level - 1.0) * diff)
    return total / (len(values) * len(QUANTILE_LEVELS))


def band_coverage(measure, realized) -> float:
    values = [float(v) for v in realized]
    if not values:
        raise ValueError("band coverage needs at least one realized sample")
    hits = sum(1 for y in values if measure.q1 <= y <= measure.q3)
    return hits / len(values)


def score_accuracy(measure, realized) -> float:
    values = sorted(float(v) for v in realized)
    loss = pinball_loss(measure, values)
    coverage = band_coverage(measure, values)
    mid = values[len(values) // 2]
    scale = max(abs(mid), max(abs(values[0]), abs(values[-1])) * 0.1, 1e-12)
    loss_term = 1.0 / (1.0 + loss / scale)
    coverage_term = min(1.0, coverage / 0.5)
    return max(0.0, min(1.0, loss_term * coverage_term))


def three_function_score(measure, realized) -> tuple[float, float, float]:
    """Pre-rebuild ``Backtester._score``: ``(normalized loss, coverage, accuracy)``."""
    values = sorted(float(v) for v in realized)
    loss = pinball_loss(measure, values)
    coverage = band_coverage(measure, values)
    accuracy = score_accuracy(measure, values)
    mid = values[len(values) // 2]
    scale = max(abs(mid), max(abs(values[0]), abs(values[-1])) * 0.1, 1e-12)
    return loss / scale, coverage, accuracy


def pairwise_theil_sen(fit_t, fit_v) -> float:
    """Pre-rebuild Theil–Sen: median of the pure-Python pairwise slopes."""
    slopes = [
        (fit_v[j] - fit_v[i]) / (fit_t[j] - fit_t[i])
        for i in range(len(fit_v))
        for j in range(i + 1, len(fit_v))
        if fit_t[j] > fit_t[i]
    ]
    if not slopes:
        return 0.0
    slopes.sort()
    mid = len(slopes) // 2
    return slopes[mid] if len(slopes) % 2 else 0.5 * (slopes[mid - 1] + slopes[mid])


def score_prediction(
    measure: StatMeasure, realized: Iterable[float]
) -> tuple[float, float, float]:
    """``(normalized pinball loss, band coverage, accuracy)`` of one settled
    prediction, in a single pass over the realized samples.

    What the :class:`Backtester` folds into a cell; loss and coverage are
    :func:`pinball_loss` and :func:`band_coverage` to the bit (same
    arithmetic, same order), the loss divided by the realized scale so
    links of very different capacities score comparably.  The accuracy
    multiplies a loss term by a coverage term that only penalizes
    *under*-coverage: a [q1, q3] band catching fewer than its nominal 50%
    of outcomes is overconfident, while a band that catches more is
    already paying for its width through the pinball loss.
    """
    values = sorted(float(v) for v in realized)
    if not values:
        raise ValueError("scoring needs at least one realized sample")
    levels = [
        (level, level - 1.0, getattr(measure, attr)) for level, attr in QUANTILE_LEVELS
    ]
    q1, q3 = measure.q1, measure.q3
    total = 0.0
    hits = 0
    for y in values:
        for level, below, predicted in levels:
            diff = y - predicted
            total += max(level * diff, below * diff)
        if q1 <= y <= q3:
            hits += 1
    coverage = hits / len(values)
    mid = values[len(values) // 2]
    scale = max(abs(mid), max(abs(values[0]), abs(values[-1])) * 0.1, 1e-12)
    nloss = total / (len(values) * len(QUANTILE_LEVELS)) / scale
    accuracy = (1.0 / (1.0 + nloss)) * min(1.0, coverage / 0.5)
    return nloss, coverage, max(0.0, min(1.0, accuracy))


class _Pending:
    """One outstanding prediction awaiting its horizon."""

    __slots__ = ("made_at", "horizon", "measure")

    def __init__(self, made_at: float, horizon: float, measure: StatMeasure):
        self.made_at = made_at
        self.horizon = horizon
        self.measure = measure


class _Cell:
    """Scores for one (series, predictor, horizon) combination."""

    __slots__ = ("pending", "settled", "loss_ewma", "coverage_ewma", "accuracy_ewma")

    def __init__(self):
        self.pending: list[_Pending] = []
        self.settled = 0
        self.loss_ewma: float | None = None  # normalized (scale-free)
        self.coverage_ewma: float | None = None
        self.accuracy_ewma: float | None = None


class Backtester:
    """Scores past predictions as their horizons mature.

    One instance is shared across every snapshot epoch of a facade (the
    Modeler passes it through :meth:`~repro.core.modeler.Modeler.fork`
    exactly like its :class:`~repro.core.cachestats.CacheStats`), so the
    accuracy record survives sweeps.  All methods are thread-safe.

    Parameters
    ----------
    alpha:
        EWMA weight for folding each newly settled score into the cell.
    min_settled:
        Settled predictions a cell needs before :meth:`accuracy` /
        :meth:`best` report it (fewer would let one lucky score dominate).
    max_pending:
        Outstanding predictions kept per cell; recording beyond it drops
        the oldest (bounded memory under pathological horizons).
    max_cells:
        Total cells kept; new cells beyond it are not tracked (bounded
        memory under adversarial query mixes).
    """

    def __init__(
        self,
        alpha: float = 0.3,
        min_settled: int = MIN_SETTLED,
        max_pending: int = 64,
        max_cells: int = 65536,
    ):
        self._alpha = alpha
        self._min_settled = min_settled
        self._max_pending = max_pending
        self._max_cells = max_cells
        self._cells: dict[tuple, _Cell] = {}
        self._by_series: dict[Hashable, set[tuple]] = {}
        self._lock = threading.Lock()
        self.recorded = 0
        self.settled = 0
        self.expired = 0

    @staticmethod
    def _horizon_bucket(horizon: float) -> float:
        """The scoring key a horizon falls in (exact, rounding float noise)."""
        return round(float(horizon), 6)

    def _cell(self, series_key: Hashable, predictor: str, horizon: float) -> _Cell | None:
        key = (series_key, predictor, self._horizon_bucket(horizon))
        cell = self._cells.get(key)
        if cell is None:
            if len(self._cells) >= self._max_cells:
                return None
            cell = self._cells[key] = _Cell()
            self._by_series.setdefault(series_key, set()).add(key)
        return cell

    def record(
        self,
        series_key: Hashable,
        predictor: str,
        horizon: float,
        made_at: float,
        measure: StatMeasure,
    ) -> None:
        """Remember a just-issued prediction for later scoring."""
        with self._lock:
            cell = self._cell(series_key, predictor, horizon)
            if cell is None:
                return
            if cell.pending and cell.pending[-1].made_at == made_at:
                return  # same epoch, same cell: already on file
            cell.pending.append(_Pending(made_at, horizon, measure))
            if len(cell.pending) > self._max_pending:
                del cell.pending[0]
            self.recorded += 1

    def settle(self, series_key: Hashable, series, now: float) -> int:
        """Score every matured prediction for *series_key* against *series*.

        *series* is any object exposing ``window(since, until)`` returning
        the realized samples (a :class:`~repro.stats.series.TimeSeries`).
        Matured predictions whose interval retained no samples are dropped
        (counted in :attr:`expired`) — there is nothing to score them on.
        Returns the number of predictions settled.
        """
        with self._lock:
            keys = self._by_series.get(series_key)
            if not keys:
                return 0
            settled = 0
            for key in keys:
                cell = self._cells[key]
                if not cell.pending:
                    continue
                remaining: list[_Pending] = []
                for pending in cell.pending:
                    if pending.made_at + pending.horizon > now:
                        remaining.append(pending)
                        continue
                    realized = series.window(
                        pending.made_at, pending.made_at + pending.horizon
                    )
                    if realized.size == 0:
                        self.expired += 1
                        continue
                    self._score(cell, pending.measure, realized)
                    settled += 1
                cell.pending = remaining
            self.settled += settled
            return settled

    def _score(self, cell: _Cell, measure: StatMeasure, realized) -> None:
        scores = score_prediction(measure, realized)
        if cell.settled:
            alpha = self._alpha
            previous = (cell.loss_ewma, cell.coverage_ewma, cell.accuracy_ewma)
            scores = [alpha * new + (1 - alpha) * old for new, old in zip(scores, previous)]
        cell.loss_ewma, cell.coverage_ewma, cell.accuracy_ewma = scores
        cell.settled += 1

    def accuracy(
        self, series_key: Hashable, predictor: str, horizon: float
    ) -> float | None:
        """Measured accuracy for the cell, or None before enough evidence."""
        with self._lock:
            key = (series_key, predictor, self._horizon_bucket(horizon))
            cell = self._cells.get(key)
            if cell is None or cell.settled < self._min_settled:
                return None
            return cell.accuracy_ewma

    def best(
        self, series_key: Hashable, horizon: float, candidates: Iterable[str]
    ) -> str | None:
        """The candidate with the lowest measured pinball loss, if any.

        Only candidates with at least ``min_settled`` settled predictions
        for this (series, horizon) compete; None when none qualify yet —
        the caller falls back to its default predictor.
        """
        with self._lock:
            bucket = self._horizon_bucket(horizon)
            winner: str | None = None
            winner_loss = math.inf
            for name in candidates:
                cell = self._cells.get((series_key, name, bucket))
                if cell is None or cell.settled < self._min_settled:
                    continue
                if cell.loss_ewma is not None and cell.loss_ewma < winner_loss:
                    winner_loss = cell.loss_ewma
                    winner = name
            return winner

    def cell_report(
        self, series_key: Hashable, predictor: str, horizon: float
    ) -> dict | None:
        """One cell's scores as plain data (telemetry / tests)."""
        with self._lock:
            key = (series_key, predictor, self._horizon_bucket(horizon))
            cell = self._cells.get(key)
            if cell is None:
                return None
            return {
                "settled": cell.settled,
                "pending": len(cell.pending),
                "loss_ewma": cell.loss_ewma,
                "coverage_ewma": cell.coverage_ewma,
                "accuracy_ewma": cell.accuracy_ewma,
            }

    def to_dict(self) -> dict:
        """Aggregate counters for the telemetry report."""
        with self._lock:
            pending = sum(len(c.pending) for c in self._cells.values())
            scored = [
                c.accuracy_ewma
                for c in self._cells.values()
                if c.settled >= self._min_settled and c.accuracy_ewma is not None
            ]
            return {
                "cells": len(self._cells),
                "recorded": self.recorded,
                "settled": self.settled,
                "expired": self.expired,
                "pending": pending,
                "measured_cells": len(scored),
                "mean_measured_accuracy": (
                    sum(scored) / len(scored) if scored else None
                ),
            }
