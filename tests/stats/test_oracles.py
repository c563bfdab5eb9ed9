"""The rebuilt miss path against the implementations it replaced, to the bit.

``StatMeasure.from_samples`` / ``sample_accuracy`` versus the
``np.percentile`` summary, single-pass prediction scoring versus the
three-function scoring, the vectorised Theil–Sen slope versus the
pure-Python pairwise one.  The frozen sides live in ``_oracles.py``.
"""

import struct

import numpy as np
import pytest
from hypothesis import given, strategies as st

from repro.stats import StatMeasure, sample_accuracy
from repro.stats import forecast
from repro.stats.predictors import _theil_sen
from tests.stats import _oracles

SIZES = (1, 2, 3, 4, 5, 7, 10, 11, 13, 40, 120, 121, 500)


def bits(value: float) -> bytes:
    return struct.pack("<d", float(value))


def samples(kind: str, n: int) -> np.ndarray:
    rng = np.random.default_rng(n * 7919 + len(kind))
    if kind == "uniform":
        return rng.uniform(0.0, 1e8, n)
    if kind == "tied":
        return rng.integers(0, 4, n).astype(float) * 2.5e6
    if kind == "heavy_tailed":
        return rng.pareto(1.1, n) * 1e6
    return 5e7 + rng.normal(0.0, 1e-6, n)  # near-constant


@pytest.mark.parametrize("kind", ["uniform", "tied", "heavy_tailed", "near_constant"])
@pytest.mark.parametrize("n", SIZES)
def test_summary_is_bit_identical_to_np_percentile(kind, n):
    data = samples(kind, n)
    expected = _oracles.percentile_summary(data)
    for source in (data, data.tolist(), iter(data.tolist())):
        got = StatMeasure.from_samples(source).to_dict()
        assert {k: bits(v) for k, v in got.items()} == {k: bits(v) for k, v in expected.items()}
    assert bits(sample_accuracy(data)) == bits(_oracles.percentile_accuracy(data))


@given(st.lists(st.floats(min_value=-1e150, max_value=1e150, allow_nan=False), min_size=1, max_size=60))
def test_summary_matches_np_percentile_on_arbitrary_floats(values):
    expected = _oracles.percentile_summary(values)
    got = StatMeasure.from_samples(values, accuracy=expected["accuracy"]).to_dict()
    assert {k: bits(v) for k, v in got.items()} == {k: bits(v) for k, v in expected.items()}


def test_summary_edge_cases_follow_numpy():
    for values in ([-0.0], [-0.0, -0.0], [0.0, -0.0, 0.0], [float("nan"), 1.0, 2.0]):
        expected = _oracles.percentile_summary(values)
        got = StatMeasure.from_samples(values, accuracy=0.5).to_dict()
        for key in ("min", "q1", "median", "q3", "max", "mean"):
            assert bits(got[key]) == bits(expected[key]), (values, key)
    assert sample_accuracy([]) == 0.0


MEASURES = st.lists(
    st.floats(min_value=-1e9, max_value=1e9, allow_nan=False), min_size=5, max_size=5
).map(sorted)
REALIZED = st.lists(
    st.floats(min_value=-1e9, max_value=1e9, allow_nan=False), min_size=1, max_size=40
)


@given(MEASURES, REALIZED)
def test_single_pass_scoring_matches_three_function_scoring(quartiles, realized):
    measure = StatMeasure.presorted(quartiles, quartiles[2], 10, 0.8)
    expected = _oracles.three_function_score(measure, realized)
    assert tuple(map(bits, forecast.score_prediction(measure, realized))) == tuple(
        map(bits, expected)
    )
    # The public scoring functions still say the same thing.
    assert bits(forecast.pinball_loss(measure, realized)) == bits(
        _oracles.pinball_loss(measure, realized)
    )
    assert forecast.band_coverage(measure, realized) == expected[1]
    assert bits(forecast.score_accuracy(measure, realized)) == bits(expected[2])


def test_backtester_folds_the_single_pass_scores():
    from repro.stats import TimeSeries

    series = TimeSeries(name="s")
    for t in range(30):
        series.add(float(t), 10.0 + (t * 13) % 7)
    measure = StatMeasure.from_samples([10.0, 12.0, 13.0, 15.0, 16.0])
    backtester = forecast.Backtester()
    backtester.record("s", "ewma", 10.0, 5.0, measure)
    assert backtester.settle("s", series, now=20.0) == 1
    nloss, coverage, accuracy = _oracles.three_function_score(measure, series.window(5.0, 15.0))
    report = backtester.cell_report("s", "ewma", 10.0)
    assert (report["loss_ewma"], report["coverage_ewma"], report["accuracy_ewma"]) == (
        nloss,
        coverage,
        accuracy,
    )


@given(
    st.lists(
        st.tuples(
            st.sampled_from([0.0, 0.5, 1.0, 2.0]),  # time step: ties carry no slope
            st.floats(min_value=-1e9, max_value=1e9, allow_nan=False),
        ),
        min_size=3,
        max_size=40,
    )
)
def test_vectorised_theil_sen_matches_pairwise_slopes(steps):
    times, values, clock = [], [], 100.0
    for step, value in steps:
        clock += step
        times.append(clock)
        values.append(value)
    # Same multiset of slopes, same median; ``==`` because a sort may order
    # a -0.0 slope and a 0.0 slope either way.
    assert _theil_sen(times, values) == _oracles.pairwise_theil_sen(times, values)
