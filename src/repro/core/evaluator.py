"""Shared timeframe evaluation: one ladder for every dynamic series.

Before this module, ``Modeler._compute_used_bandwidth`` and
``Modeler._compute_cpu_load`` each carried their own copy of the
``TimeframeKind`` branch ladder, with subtly divergent CURRENT-accuracy
rules and a fresh predictor instantiated on every FUTURE call.  The
:class:`TimeframeEvaluator` owns that logic once:

* **STATIC / CURRENT / HISTORY** answers are bit-identical to the
  pre-refactor ladders (``tests/core/test_timeframe_differential.py``
  checks against the frozen oracle), except that CURRENT now applies
  *one* accuracy rule to every series — the sample-derived rule the
  bandwidth path always used — instead of the CPU path's hard-coded
  ``.degraded(0.9)``;
* **FUTURE** answers flow through the forecaster registry with a
  per-epoch predictor memo, the ``"auto"`` predictor resolved per series
  from measured backtest skill, and the fixed ``PREDICTION_DISCOUNT``
  prior replaced by the :class:`~repro.stats.forecast.Backtester`'s
  measured accuracy once enough past predictions have been scored.

One evaluator per :class:`~repro.core.modeler.Modeler` epoch (the memo is
per-epoch state); the backtester inside is shared across epochs through
:meth:`fork`, exactly like the modeler's cache-stats counters, so the
accuracy record survives sweeps and snapshot publication.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Hashable

from repro.core.timeframe import Timeframe, TimeframeKind
from repro.stats import StatMeasure, make_predictor
from repro.stats.forecast import Backtester
from repro.stats.predictors import AutoPredictor, HistoryWindow, last_known
from repro.util.errors import ConfigurationError

# Accuracy attached to availability claims about series nobody has
# measured (assumed idle): low, but not zero — the topology is known.
UNMEASURED_ACCURACY = 0.25


def _floored(measure: StatMeasure) -> StatMeasure:
    """*measure* with no quantile below zero: *used* bandwidth and CPU load
    never are, and a forecast that says otherwise (history's spread carried
    around a low centre) would let ``complement_of`` grant more than the
    link holds."""
    if not measure.minimum < 0.0:
        return measure
    levels = ("minimum", "q1", "median", "q3", "maximum", "mean")
    return replace(measure, **{name: max(0.0, getattr(measure, name)) for name in levels})


def current_window_width(series) -> float:
    """The trailing window CURRENT derives its accuracy from.

    Ten average sample spacings (at least ten seconds): wide enough to
    judge how stable the latest reading is, narrow enough to stay
    "current".  Shared with the cache-validation fast path
    (``Modeler._window_unmoved``), which must agree on the width to prove
    a CURRENT entry's window did not move.
    """
    return 10 * max(1.0, series.span() / max(1, len(series)))


class TimeframeEvaluator:
    """Evaluates one series under one timeframe; owned by a Modeler epoch.

    Thread contract: reader threads of a published snapshot share one
    evaluator.  The predictor memo is a benign-race dict fill (predictors
    are stateless and interchangeable); the backtester serialises its own
    mutations internally.
    """

    def __init__(self, backtester: Backtester | None = None):
        self.backtester = backtester if backtester is not None else Backtester()
        # Per-epoch memo: (name, window) -> predictor instance.  FUTURE
        # answers are also cached above us per (resource, timeframe), so
        # this mostly saves construction across *distinct* resources.
        self._predictors: dict[tuple[str, float], object] = {}

    def fork(self) -> "TimeframeEvaluator":
        """A successor for the next epoch: fresh memo, shared backtester."""
        return TimeframeEvaluator(backtester=self.backtester)

    # -- the ladder ---------------------------------------------------------------

    def evaluate(
        self,
        series_key: Hashable,
        series,
        timeframe: Timeframe,
        now: float | None,
    ) -> StatMeasure:
        """The measure for *series* under *timeframe* evaluated at *now*.

        *series* is None (or empty) for resources nobody has measured;
        *series_key* is the stable identity the backtester files FUTURE
        predictions under — ``(link_name, from_node)`` for both bandwidth
        and CPU series (CPU rides the pseudo-link convention).
        """
        if timeframe.kind is TimeframeKind.STATIC:
            return StatMeasure.constant(0.0)
        if series is None or series.empty:
            return StatMeasure.constant(0.0).degraded(UNMEASURED_ACCURACY)
        if now is None:
            now = series.latest()[0]
        if timeframe.kind is TimeframeKind.CURRENT:
            return self._evaluate_current(series, now)
        if timeframe.kind is TimeframeKind.HISTORY:
            return self._evaluate_history(series, timeframe, now)
        return self._evaluate_future(series_key, series, timeframe, now)

    @staticmethod
    def _evaluate_current(series, now: float) -> StatMeasure:
        """Latest value, trusted as far as its recent stability earns.

        The one CURRENT rule for every series: quartiles collapse onto
        the latest sample; accuracy is derived from the trailing window's
        sample count and dispersion (``sample_accuracy``), falling back
        to 0.5 when the window is empty.  (The CPU path used to hard-code
        ``.degraded(0.9)`` here — same quartiles, blind accuracy.)
        """
        recent = series.window(now - current_window_width(series), now)
        latest = series.latest_value()
        accuracy = StatMeasure.from_samples(recent).accuracy if recent.size else 0.5
        return StatMeasure.constant(latest).degraded(min(1.0, accuracy))

    @staticmethod
    def _evaluate_history(series, timeframe: Timeframe, now: float) -> StatMeasure:
        window = series.window(now - timeframe.window, now)
        if window.size == 0:
            return StatMeasure.constant(series.latest_value()).degraded(0.5)
        return StatMeasure.from_samples(window)

    # -- FUTURE -------------------------------------------------------------------

    def _predictor(self, name: str, window: float):
        key = (name, window)
        predictor = self._predictors.get(key)
        if predictor is None:
            predictor = make_predictor(name, history_window=window)
            self._predictors[key] = predictor
        return predictor

    def resolve_predictor(self, series_key: Hashable, timeframe: Timeframe) -> str:
        """The concrete model a FUTURE query will use for *series_key*.

        ``"auto"`` resolves to the candidate with the best measured
        pinball loss for this (series, horizon), or the registry default
        before any candidate has earned a record.
        """
        if timeframe.predictor != "auto":
            return timeframe.predictor
        best = self.backtester.best(
            series_key, timeframe.horizon, AutoPredictor.CANDIDATES
        )
        return best if best is not None else AutoPredictor.DEFAULT

    def _evaluate_future(
        self, series_key: Hashable, series, timeframe: Timeframe, now: float
    ) -> StatMeasure:
        backtester = self.backtester
        horizon = timeframe.horizon
        # Settle first: any prediction whose horizon has elapsed is scored
        # against the samples that actually landed, so the accuracy stamped
        # below reflects everything known at evaluation time.
        backtester.settle(series_key, series, now)
        resolved = self.resolve_predictor(series_key, timeframe)
        # One window lookup (and one base summary inside it) serves the
        # answering model and every shadow candidate alike.
        history = HistoryWindow(series, now - timeframe.window, now)

        def forecast(name: str) -> StatMeasure:
            # Floored here and nowhere else, answering and shadow measures
            # alike, so the backtester scores exactly what is served.
            model = self._predictor(name, timeframe.window)
            return _floored(model.forecast(history, now, horizon))

        try:
            measure = forecast(resolved)
        except ConfigurationError:
            # The evaluation clock ran past this series: its prediction
            # window retains no samples.  Degrade to the last known value
            # (matching the predictors' own too-few-samples fallback)
            # instead of failing the whole query.
            measure = last_known(series.latest_value())
        if timeframe.predictor == "auto":
            # Shadow-record every candidate so "auto" accumulates the
            # comparative evidence it arbitrates on; without this only the
            # answering model would ever build a record.
            for name in AutoPredictor.CANDIDATES:
                if name == resolved:
                    continue
                try:
                    shadow = forecast(name)
                except Exception:
                    continue  # a model that cannot fit this series scores nothing
                backtester.record(series_key, name, horizon, now, shadow)
        backtester.record(series_key, resolved, horizon, now, measure)
        measured = backtester.accuracy(series_key, resolved, horizon)
        if measured is not None:
            # Earned accuracy replaces the predictor's fixed prior.
            measure = replace(measure, accuracy=min(1.0, max(0.0, measured)))
        return measure
