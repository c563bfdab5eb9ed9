"""Future-timeframe predictors.

"Initial implementations may only support historical performance, or use a
simplistic model to predict future performance from current and historical
data" (§4.4).  These are exactly such simplistic models: each turns a
historical :class:`~repro.stats.series.TimeSeries` into a
:class:`~repro.stats.quartiles.StatMeasure` describing expected behaviour
over the next *horizon* seconds, with accuracy degraded to reflect that it
is a prediction.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Protocol

try:  # numpy is the optional ``repro[fast]`` accelerator
    import numpy as np
except ImportError:  # pragma: no cover - exercised by the no-numpy smoke test
    np = None

from repro.stats.quartiles import StatMeasure, percentiles
from repro.stats.series import TimeSeries
from repro.util.errors import ConfigurationError

# Predictions are inherently less trustworthy than measurements of the same
# window; every predictor multiplies its accuracy by this.
PREDICTION_DISCOUNT = 0.8


def last_known(value: float) -> StatMeasure:
    """The too-little-history forecast: *value* held constant, at low trust."""
    return StatMeasure.constant(value).degraded(0.5 * PREDICTION_DISCOUNT)


class HistoryWindow:
    """The samples of one series in ``[since, until]``, extracted once.

    Every model fitted to the same window shares one instance — the
    evaluator hands a single window to all ``"auto"`` candidates — so the
    window lookup and its quartile summary ``base`` (None for an empty
    window) are paid once per evaluation, not once per model.
    ``times``/``values`` are plain float lists, oldest first; ``last`` is
    the series' latest value (None for an empty series).
    """

    __slots__ = ("times", "values", "last", "base")

    def __init__(self, series: TimeSeries, since: float, until: float):
        self.times, self.values = series._columns(since, until)
        self.last = None if series.empty else series.latest_value()
        self.base = StatMeasure.from_samples(self.values) if self.values else None


class Predictor(Protocol):
    """Turns history into an expectation of the next *horizon* seconds."""

    def predict(self, series: TimeSeries, now: float, horizon: float) -> StatMeasure:
        """Expected behaviour over [now, now + horizon]."""
        ...  # pragma: no cover

    def forecast(self, history: HistoryWindow, now: float, horizon: float) -> StatMeasure:
        """:meth:`predict` over an already-extracted history window."""
        ...  # pragma: no cover


class _HistoryPredictor:
    """``predict`` = ``forecast`` over the model's own ``history_window``."""

    history_window: float

    def predict(self, series: TimeSeries, now: float, horizon: float) -> StatMeasure:
        history = HistoryWindow(series, now - self.history_window, now)
        return self.forecast(history, now, horizon)


def _carried(base: StatMeasure, shift: float) -> StatMeasure:
    """*base*'s spread moved by *shift*, discounted as a prediction."""
    return base.shifted(shift).degraded(PREDICTION_DISCOUNT)


class LastValuePredictor(_HistoryPredictor):
    """Naive persistence: the future looks like the latest sample.

    Variability is borrowed from recent history so the quartiles are not
    falsely tight.
    """

    def __init__(self, history_window: float = 60.0):
        self.history_window = history_window

    def forecast(self, history: HistoryWindow, now: float, horizon: float) -> StatMeasure:
        if history.last is None:
            raise ConfigurationError("cannot predict from an empty series")
        if len(history.values) >= 2:
            return _carried(history.base, history.last - history.base.median)
        return last_known(history.last)


class SlidingMeanPredictor(_HistoryPredictor):
    """The future behaves like the quartiles of the recent window."""

    def __init__(self, history_window: float = 60.0):
        if history_window <= 0:
            raise ConfigurationError("history window must be positive")
        self.history_window = history_window

    def forecast(self, history: HistoryWindow, now: float, horizon: float) -> StatMeasure:
        if not history.values:
            raise ConfigurationError("no samples in prediction history window")
        return history.base.degraded(PREDICTION_DISCOUNT)


class EWMAPredictor(_HistoryPredictor):
    """Exponentially-weighted mean as the centre, historical spread around it.

    ``alpha`` is the per-sample smoothing factor (higher = more reactive).
    """

    def __init__(self, alpha: float = 0.3, history_window: float = 120.0):
        if not 0.0 < alpha <= 1.0:
            raise ConfigurationError(f"alpha must be in (0,1], got {alpha}")
        self.alpha = alpha
        self.history_window = history_window

    def forecast(self, history: HistoryWindow, now: float, horizon: float) -> StatMeasure:
        values = history.values
        if not values:
            raise ConfigurationError("no samples in prediction history window")
        alpha, decay = self.alpha, 1 - self.alpha
        smoothed = values[0]
        for value in values[1:]:
            smoothed = alpha * value + decay * smoothed
        return _carried(history.base, smoothed - history.base.median)


class HoltWintersPredictor(_HistoryPredictor):
    """Holt's linear smoothing: level + trend, projected over the horizon.

    The one model in the registry that can *extrapolate*: a steadily
    rising (or falling) series keeps rising in its forecast instead of
    snapping back to the recent mean.  ``alpha`` smooths the level,
    ``beta`` the trend; both are per-sample factors, and the trend is
    tracked per second of sample spacing so irregular polling does not
    skew the projection.  The historical spread is carried around the
    projected level (floored so no quartile goes negative — the predicted
    quantities are rates and utilizations).
    """

    def __init__(
        self, alpha: float = 0.5, beta: float = 0.3, history_window: float = 120.0
    ):
        if not 0.0 < alpha <= 1.0:
            raise ConfigurationError(f"alpha must be in (0,1], got {alpha}")
        if not 0.0 < beta <= 1.0:
            raise ConfigurationError(f"beta must be in (0,1], got {beta}")
        self.alpha = alpha
        self.beta = beta
        self.history_window = history_window

    def forecast(self, history: HistoryWindow, now: float, horizon: float) -> StatMeasure:
        times, values = history.times, history.values
        if not values:
            raise ConfigurationError("no samples in prediction history window")
        if len(values) < 3:
            return last_known(values[-1])
        level = values[0]
        trend = 0.0  # per second
        previous_t = times[0]
        for t, value in zip(times[1:], values[1:]):
            dt = max(t - previous_t, 1e-9)
            previous_t = t
            forecast = level + trend * dt
            new_level = self.alpha * value + (1 - self.alpha) * forecast
            new_trend = (
                self.beta * ((new_level - level) / dt) + (1 - self.beta) * trend
            )
            level, trend = new_level, new_trend
        # Centre the forecast on the middle of the predicted interval, so
        # the measure describes [now, now + horizon] rather than its edge.
        projected = level + trend * (now - previous_t + horizon / 2.0)
        base = history.base
        # Rates never fall below zero: cap the downward shift at the minimum.
        return _carried(base, max(projected - base.median, -base.minimum))


@lru_cache(maxsize=64)
def _pair_indices(count: int):
    """Index arrays ``(i, j)`` of every pair ``i < j`` among *count* samples."""
    return np.triu_indices(count, 1)


def _theil_sen(fit_t: "list[float]", fit_v: "list[float]") -> float:
    """Median of the pairwise slopes (pairs at equal times carry none)."""
    if np is not None:
        first, second = _pair_indices(len(fit_t))
        t, v = np.array(fit_t), np.array(fit_v)
        dt = t[second] - t[first]
        spaced = dt > 0
        slopes = np.sort((v[second] - v[first])[spaced] / dt[spaced])
    else:
        slopes = sorted(
            (fit_v[j] - fit_v[i]) / (fit_t[j] - fit_t[i])
            for i in range(len(fit_v))
            for j in range(i + 1, len(fit_v))
            if fit_t[j] > fit_t[i]
        )
    if len(slopes) == 0:
        return 0.0
    mid = len(slopes) // 2
    return float(slopes[mid] if len(slopes) % 2 else 0.5 * (slopes[mid - 1] + slopes[mid]))


class QuantileRegressionPredictor(_HistoryPredictor):
    """Robust linear quantile forecast over the quartile series.

    Fits one robust slope (Theil–Sen: the median of pairwise sample
    slopes) and projects the *residual* quantiles along it — each
    predicted quartile is the corresponding residual quantile translated
    to the middle of the forecast interval, a cheap stand-in for five
    independent pinball-loss fits that keeps the quartile ordering by
    construction.  The pairwise-slope set stays small at any window size
    (capped by ``max_fit_samples`` subsampling) and is taken in one
    vectorised pair-difference when numpy is present.
    """

    def __init__(self, history_window: float = 120.0, max_fit_samples: int = 40):
        if history_window <= 0:
            raise ConfigurationError("history window must be positive")
        if max_fit_samples < 3:
            raise ConfigurationError("max_fit_samples must be at least 3")
        self.history_window = history_window
        self.max_fit_samples = max_fit_samples

    def forecast(self, history: HistoryWindow, now: float, horizon: float) -> StatMeasure:
        times, values = history.times, history.values
        if not values:
            raise ConfigurationError("no samples in prediction history window")
        if len(values) < 3:
            return last_known(values[-1])
        if len(values) > self.max_fit_samples:
            step = len(values) / self.max_fit_samples
            picks = [int(i * step) for i in range(self.max_fit_samples)]
            slope = _theil_sen([times[i] for i in picks], [values[i] for i in picks])
        else:
            slope = _theil_sen(times, values)
        target = now + horizon / 2.0  # centre of the forecast interval
        residuals = sorted(v - slope * t for t, v in zip(times, values))
        quartiles = [
            max(0.0, r + slope * target)
            for r in percentiles(residuals, [0, 25, 50, 75, 100])
        ]
        mean = max(0.0, sum(residuals) / len(residuals) + slope * target)
        mean = min(max(mean, quartiles[0]), quartiles[4])
        accuracy = history.base.accuracy * PREDICTION_DISCOUNT
        return StatMeasure.presorted(quartiles, mean, len(values), accuracy)


class AutoPredictor(_HistoryPredictor):
    """The ``"auto"`` registry entry: defer model choice to measured skill.

    The evaluation layer resolves ``"auto"`` per series through the
    :class:`~repro.stats.forecast.Backtester` (best measured pinball loss
    wins) before ever constructing a predictor; standalone users without a
    backtest record get the registry default's behaviour.
    """

    #: Models "auto" arbitrates between (each must be in the registry).
    CANDIDATES: tuple[str, ...] = ("last", "mean", "ewma", "holt", "quantile")

    #: The model used before any candidate has a measured record.
    DEFAULT = "ewma"

    def __init__(self, history_window: float = 120.0):
        self.history_window = history_window

    def forecast(self, history: HistoryWindow, now: float, horizon: float) -> StatMeasure:
        fallback = make_predictor(self.DEFAULT, history_window=self.history_window)
        return fallback.forecast(history, now, horizon)


_PREDICTORS = {
    "last": LastValuePredictor,
    "mean": SlidingMeanPredictor,
    "ewma": EWMAPredictor,
    "holt": HoltWintersPredictor,
    "quantile": QuantileRegressionPredictor,
    "auto": AutoPredictor,
}


def known_predictors() -> frozenset:
    """Registered predictor names, for parse-time Timeframe validation."""
    return frozenset(_PREDICTORS)


def make_predictor(name: str = "ewma", **kwargs) -> Predictor:
    """Factory over the registry: ``"last"``, ``"mean"``, ``"ewma"``,
    ``"holt"``, ``"quantile"`` or ``"auto"``."""
    try:
        factory = _PREDICTORS[name]
    except KeyError:
        raise ConfigurationError(
            f"unknown predictor {name!r}; expected one of {sorted(_PREDICTORS)}"
        ) from None
    return factory(**kwargs)
