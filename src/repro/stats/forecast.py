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


def score_accuracy(measure: StatMeasure, realized: Sequence[float]) -> float:
    """One settled prediction's accuracy in [0, 1] (see :func:`score_prediction`)."""
    return score_prediction(measure, realized)[2]


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
