"""FUTURE answers are never optimistic past physics.

A forecast of *used* bandwidth (or CPU load) below zero would turn, through
``StatMeasure.complement_of``, into more available bandwidth than the link
has — 101.5-101.9 Mbps on a 100 Mbps access link was observed end to end.
``TimeframeEvaluator._evaluate_future`` floors every forecast at zero;
this holds it to that for every registry predictor, over growing series so
``"auto"`` gets to settle records and resolve to each candidate.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.core import Timeframe
from repro.core.evaluator import TimeframeEvaluator
from repro.stats import TimeSeries
from repro.stats.predictors import known_predictors
from repro.util import mbps

CAPACITY = mbps(100)


@pytest.mark.parametrize("predictor", sorted(known_predictors()))
@settings(max_examples=40, deadline=None)
@given(
    loads=st.lists(st.floats(min_value=0.0, max_value=1.0), min_size=2, max_size=50),
    horizon=st.sampled_from([1.0, 5.0, 10.0]),
    window=st.sampled_from([5.0, 30.0, 120.0]),
)
def test_future_availability_never_exceeds_capacity(predictor, loads, horizon, window):
    assert len(known_predictors()) == 6
    series = TimeSeries(name="link:a->")
    evaluator = TimeframeEvaluator()
    timeframe = Timeframe.future(horizon, predictor=predictor, window=window)
    for step, load in enumerate(loads):
        series.add(float(step), load * CAPACITY)
        used = evaluator.evaluate(("link", "a"), series, timeframe, float(step))
        available = used.complement_of(CAPACITY)
        assert used.minimum >= 0.0 and used.mean >= 0.0
        assert 0.0 <= available.minimum <= available.maximum <= CAPACITY
        assert available.mean <= CAPACITY


def test_floor_reaches_what_the_backtester_scores():
    """Shadow and answering measures are floored alike: no cell ever holds a
    negative prediction, so scores describe what was (or would be) served."""
    series = TimeSeries(name="near-idle")
    evaluator = TimeframeEvaluator()
    timeframe = Timeframe.future(5.0, predictor="auto", window=30.0)
    # High plateau then a drop to ~0: history's spread around a low centre.
    for step in range(40):
        series.add(float(step), mbps(60) if step < 30 else mbps(0.1) * (step % 2))
        evaluator.evaluate(("link", "a"), series, timeframe, float(step))
    pending = [
        p.measure
        for cell in evaluator.backtester._cells.values()
        for p in cell.pending
    ]
    assert pending and all(m.minimum >= 0.0 for m in pending)
