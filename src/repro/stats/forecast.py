"""Online backtesting: honest, measured accuracy for predictions.

The paper requires "a measure of estimation accuracy" on every dynamic
value (§4.4).  For FUTURE answers the original implementation attached a
fixed discount (``PREDICTION_DISCOUNT = 0.8``) — a prior, not a
measurement.  This module makes the accuracy *earned*: every prediction a
predictor makes is remembered, and once its horizon has elapsed it is
scored against the samples that actually landed in the predicted interval.

Two standard proper scores are used:

* **pinball (quantile) loss** — the canonical score for quantile
  forecasts, evaluated at the three inner quartile levels (0.25 → q1,
  0.5 → median, 0.75 → q3) and averaged over the realized samples;
* **quartile-band coverage** — the fraction of realized samples that fell
  inside the predicted [q1, q3] band (nominally 0.5; a band that covers
  much *less* is overconfident).

Scores are folded into per-``(series, predictor, horizon)`` exponential
moving averages by the :class:`Backtester`, which then answers two
questions for the evaluation layer:

* :meth:`Backtester.accuracy` — the measured accuracy to stamp on the next
  FUTURE answer from that cell (replacing the fixed discount once enough
  predictions have been settled);
* :meth:`Backtester.best` — which registered predictor currently scores
  the lowest normalized pinball loss for a cell, backing the ``"auto"``
  predictor.

Everything here is pure Python (no numpy dependency) and thread-safe: the
service's reader threads settle and record concurrently under one lock.
"""

from __future__ import annotations

import bisect
import math
import threading
from typing import Hashable, Iterable, Sequence

from repro.stats.quartiles import StatMeasure

#: Inner quartile levels a StatMeasure commits to, with their attributes.
QUANTILE_LEVELS: tuple[tuple[float, str], ...] = (
    (0.25, "q1"),
    (0.50, "median"),
    (0.75, "q3"),
)

#: Settled predictions required before a cell's measured accuracy is
#: trusted over the predictor's built-in prior discount.
MIN_SETTLED = 3


def pinball_loss(measure: StatMeasure, realized: Iterable[float]) -> float:
    """Mean pinball loss of *measure*'s inner quartiles over *realized*.

    For quantile level ``q`` and prediction ``z`` the loss on outcome
    ``y`` is ``max(q * (y - z), (q - 1) * (y - z))`` — the piecewise
    linear score minimized in expectation by the true ``q``-quantile.
    Lower is better; 0 means every sample matched every quartile exactly.
    """
    values = [float(v) for v in realized]
    if not values:
        raise ValueError("pinball loss needs at least one realized sample")
    total = 0.0
    for y in values:
        for level, attr in QUANTILE_LEVELS:
            diff = y - getattr(measure, attr)
            total += max(level * diff, (level - 1.0) * diff)
    return total / (len(values) * len(QUANTILE_LEVELS))


def band_coverage(measure: StatMeasure, realized: Iterable[float]) -> float:
    """Fraction of *realized* samples inside the predicted [q1, q3] band."""
    values = [float(v) for v in realized]
    if not values:
        raise ValueError("band coverage needs at least one realized sample")
    hits = sum(1 for y in values if measure.q1 <= y <= measure.q3)
    return hits / len(values)


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
    return score_candidates(values, (measure,))[0]


def score_candidates(
    values: "list[float]", measures: Iterable[StatMeasure]
) -> "list[tuple[float, float, float]]":
    """:func:`score_prediction` of every measure in *measures* against one
    realized window, given as *values*: sorted, non-empty Python floats.

    The backtester scores a forecast origin's candidates together with
    this — their window is read and sorted once, and its scale taken once.
    Each candidate's triple is :func:`score_prediction`'s to the bit: the
    loss is summed in the same order from ``0.0``, and each term keeps
    ``max(a, b)``'s rule (``a`` unless ``b > a``, NaN included).
    """
    n = len(values)
    mid = values[n // 2]
    scale = max(abs(mid), max(abs(values[0]), abs(values[-1])) * 0.1, 1e-12)
    terms = n * len(QUANTILE_LEVELS)
    scores = []
    for measure in measures:
        q1, median, q3 = measure.q1, measure.median, measure.q3
        total = 0.0
        hits = 0
        for y in values:
            # QUANTILE_LEVELS unrolled: max(level * diff, (level - 1) * diff).
            diff = y - q1
            first, second = 0.25 * diff, -0.75 * diff
            total += second if second > first else first
            diff = y - median
            first, second = 0.5 * diff, -0.5 * diff
            total += second if second > first else first
            diff = y - q3
            first, second = 0.75 * diff, -0.25 * diff
            total += second if second > first else first
            if q1 <= y <= q3:
                hits += 1
        coverage = hits / n
        nloss = total / terms / scale
        accuracy = (1.0 / (1.0 + nloss)) * min(1.0, coverage / 0.5)
        scores.append((nloss, coverage, max(0.0, min(1.0, accuracy))))
    return scores


def score_accuracy(measure: StatMeasure, realized: Sequence[float]) -> float:
    """One settled prediction's accuracy in [0, 1] (see :func:`score_prediction`)."""
    return score_prediction(measure, realized)[2]


class _Cell:
    """Scores for one (series, predictor, horizon) combination."""

    __slots__ = ("pending", "settled", "loss_ewma", "coverage_ewma", "accuracy_ewma")

    def __init__(self):
        self.pending = 0  # predictions on file, across the lane's origins
        self.settled = 0
        self.loss_ewma: float | None = None  # normalized (scale-free)
        self.coverage_ewma: float | None = None
        self.accuracy_ewma: float | None = None


class _Origin:
    """Every candidate's prediction made at one instant for one lane.

    ``filed`` maps each cell to ``(sequence, measure)``: the sequence
    number orders filings across the whole backtester, so a cell's scores
    fold in the order its predictions were filed.  An origin keeps the
    horizon it was first filed with.
    """

    __slots__ = ("made_at", "due", "filed")

    def __init__(self, made_at: float, horizon: float):
        self.made_at = made_at
        self.due = made_at + horizon
        self.filed: dict[_Cell, tuple[int, StatMeasure]] = {}


class _Lane:
    """The origins of one (series, horizon bucket), in maturity order."""

    __slots__ = ("origins", "by_made_at")

    def __init__(self):
        self.origins: list[_Origin] = []
        self.by_made_at: dict[float, _Origin] = {}


def _due(origin: _Origin) -> float:
    return origin.due


class Backtester:
    """Scores past predictions as their horizons mature.

    One instance is shared across every snapshot epoch of a facade (the
    Modeler passes it through :meth:`~repro.core.modeler.Modeler.fork`
    exactly like its :class:`~repro.core.cachestats.CacheStats`), so the
    accuracy record survives sweeps.  All methods are thread-safe.

    Predictions are filed by *origin*: every candidate's measure made at
    one ``made_at`` for one ``(series, horizon)`` sits in one
    :class:`_Origin`, and a series' origins are kept in maturity order.
    Settling pops only the matured origins, reads and sorts each one's
    realized window once and scores all of its candidates together
    (:func:`score_candidates`); scores fold into per-``(series,
    predictor, horizon)`` cells, which hold the EWMAs and the pending
    count.  An origin is filed at most once per cell.

    Parameters
    ----------
    alpha:
        EWMA weight for folding each newly settled score into the cell.
    min_settled:
        Settled predictions a cell needs before :meth:`accuracy` /
        :meth:`best` report it (fewer would let one lucky score dominate).
    max_pending:
        Outstanding predictions kept per cell; recording beyond it drops
        the cell's earliest-filed one (bounded memory under pathological
        horizons).
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
        self._lanes: dict[Hashable, dict[float, _Lane]] = {}
        self._lock = threading.Lock()
        self._filings = 0  # sequence numbers for _Origin.filed
        self.recorded = 0
        self.settled = 0
        self.expired = 0

    @staticmethod
    def _horizon_bucket(horizon: float) -> float:
        """The scoring key a horizon falls in (exact, rounding float noise)."""
        return round(float(horizon), 6)

    # -- filing ---------------------------------------------------------------------

    def record(
        self,
        series_key: Hashable,
        predictor: str,
        horizon: float,
        made_at: float,
        measure: StatMeasure,
    ) -> None:
        """Remember a just-issued prediction for later scoring."""
        self.record_origin(series_key, horizon, made_at, ((predictor, measure),))

    def record_origin(
        self,
        series_key: Hashable,
        horizon: float,
        made_at: float,
        filings: Iterable[tuple[str, StatMeasure]],
        answering: str | None = None,
    ) -> float | None:
        """:meth:`record` each ``(predictor, measure)`` of *filings* in order,
        then return :meth:`accuracy` of the *answering* predictor's cell —
        under one lock acquisition.  None when *answering* is None."""
        bucket = self._horizon_bucket(horizon)
        with self._lock:
            origin = None
            for predictor, measure in filings:
                cell = self._cell((series_key, predictor, bucket))
                if cell is None:
                    continue
                if origin is None:
                    lane = self._lane(series_key, bucket)
                    origin = self._origin(lane, made_at, horizon)
                if cell in origin.filed:
                    continue  # same origin, same cell: already on file
                self._filings += 1
                origin.filed[cell] = (self._filings, measure)
                cell.pending += 1
                if cell.pending > self._max_pending:
                    self._drop_oldest(lane, cell)
                self.recorded += 1
            if answering is None:
                return None
            return self._accuracy((series_key, answering, bucket))

    def _cell(self, key: tuple) -> _Cell | None:
        cell = self._cells.get(key)
        if cell is None:
            if len(self._cells) >= self._max_cells:
                return None
            cell = self._cells[key] = _Cell()
        return cell

    def _lane(self, series_key: Hashable, bucket: float) -> _Lane:
        lanes = self._lanes.get(series_key)
        if lanes is None:
            lanes = self._lanes[series_key] = {}
        lane = lanes.get(bucket)
        if lane is None:
            lane = lanes[bucket] = _Lane()
        return lane

    @staticmethod
    def _origin(lane: _Lane, made_at: float, horizon: float) -> _Origin:
        origin = lane.by_made_at.get(made_at)
        if origin is None:
            origin = lane.by_made_at[made_at] = _Origin(made_at, horizon)
            # In maturity order: a reader pinned to an older epoch files
            # behind a newer origin, and its origin goes where it matures.
            bisect.insort(lane.origins, origin, key=_due)
        return origin

    @staticmethod
    def _drop_oldest(lane: _Lane, cell: _Cell) -> None:
        """Forget *cell*'s earliest-filed prediction (``max_pending``)."""
        oldest = min(
            (origin for origin in lane.origins if cell in origin.filed),
            key=lambda origin: origin.filed[cell][0],
        )
        del oldest.filed[cell]
        cell.pending -= 1
        if not oldest.filed:
            lane.origins.remove(oldest)
            del lane.by_made_at[oldest.made_at]

    # -- settling -------------------------------------------------------------------

    def settle(self, series_key: Hashable, series, now: float) -> int:
        """Score every matured prediction for *series_key* against *series*.

        *series* is any object exposing ``window(since, until)`` returning
        the realized samples (a :class:`~repro.stats.series.TimeSeries`).
        Matured predictions whose interval retained no samples are dropped
        (counted in :attr:`expired`) — there is nothing to score them on.
        Returns the number of predictions settled.
        """
        with self._lock:
            return self._settle(series_key, series, now)

    def settle_best(
        self,
        series_key: Hashable,
        series,
        now: float,
        horizon: float,
        candidates: Iterable[str],
    ) -> str | None:
        """:meth:`settle` then :meth:`best`, under one lock acquisition."""
        with self._lock:
            self._settle(series_key, series, now)
            return self._best(series_key, horizon, candidates)

    def _settle(self, series_key: Hashable, series, now: float) -> int:
        lanes = self._lanes.get(series_key)
        if not lanes:
            return 0
        scored: list[tuple[int, _Cell, tuple[float, float, float]]] = []
        for lane in lanes.values():
            origins = lane.origins
            count = 0  # matured origins are a prefix: look no further than one past it
            for origin in origins:
                if origin.due > now:
                    break
                count += 1
            if not count:
                continue
            matured = origins[:count]
            del origins[:count]
            for origin in matured:
                del lane.by_made_at[origin.made_at]
                filed = origin.filed
                realized = series.window(origin.made_at, origin.due)
                if realized.size == 0:
                    self.expired += len(filed)
                    for cell in filed:
                        cell.pending -= 1
                    continue
                values = sorted(float(v) for v in realized)
                entries = filed.values()
                scores = score_candidates(values, [measure for _, measure in entries])
                for cell, (sequence, _), score in zip(filed, entries, scores):
                    scored.append((sequence, cell, score))
        # Fold in filing order (sequence numbers are unique, so the sort
        # never compares cells): an EWMA depends on the order it is fed.
        scored.sort()
        alpha = self._alpha
        keep = 1 - alpha
        for _, cell, (loss, coverage, accuracy) in scored:
            cell.pending -= 1
            if cell.settled:
                loss = alpha * loss + keep * cell.loss_ewma
                coverage = alpha * coverage + keep * cell.coverage_ewma
                accuracy = alpha * accuracy + keep * cell.accuracy_ewma
            cell.loss_ewma, cell.coverage_ewma, cell.accuracy_ewma = loss, coverage, accuracy
            cell.settled += 1
        self.settled += len(scored)
        return len(scored)

    # -- reading --------------------------------------------------------------------

    def accuracy(
        self, series_key: Hashable, predictor: str, horizon: float
    ) -> float | None:
        """Measured accuracy for the cell, or None before enough evidence."""
        with self._lock:
            return self._accuracy((series_key, predictor, self._horizon_bucket(horizon)))

    def _accuracy(self, key: tuple) -> float | None:
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
            return self._best(series_key, horizon, candidates)

    def _best(
        self, series_key: Hashable, horizon: float, candidates: Iterable[str]
    ) -> str | None:
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
                "pending": cell.pending,
                "loss_ewma": cell.loss_ewma,
                "coverage_ewma": cell.coverage_ewma,
                "accuracy_ewma": cell.accuracy_ewma,
            }

    def to_dict(self) -> dict:
        """Aggregate counters for the telemetry report."""
        with self._lock:
            pending = sum(c.pending for c in self._cells.values())
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
