"""Differential suite: the TimeframeEvaluator vs the frozen pre-refactor oracle.

The tentpole refactor's acceptance criterion, executable:

* STATIC / CURRENT / HISTORY bandwidth answers are **bit-identical** to
  the pre-refactor branch ladder (``_oracle_timeframe.py``, frozen);
* CPU answers keep identical quartiles everywhere, and identical accuracy
  except CURRENT — where the refactor deliberately replaced the CPU
  path's hard-coded ``.degraded(0.9)`` with the sample-derived rule the
  bandwidth path always used (one CURRENT rule for every series);
* FUTURE answers keep the oracle's quartiles, with accuracy switching
  from the predictor's fixed prior to the backtester's *measured*
  accuracy once enough past predictions have been scored.
"""

import random
from dataclasses import replace

import pytest

from repro.collector import MetricsStore
from repro.collector.base import NetworkView
from repro.core import Timeframe
from repro.core.evaluator import TimeframeEvaluator, current_window_width
from repro.core.modeler import Modeler
from repro.stats import StatMeasure
from repro.util import mbps

from tests.core._oracle_timeframe import oracle_cpu_load, oracle_used_bandwidth
from tests.core.conftest import line_topology


def noisy_view(seed=7, samples=40, cpu_hosts=("h1", "h3")):
    """Every direction measured with its own noisy level; CPU on two hosts."""
    rng = random.Random(seed)
    topology = line_topology()
    metrics = MetricsStore()
    for direction in topology.iter_directions():
        level = rng.uniform(0.0, mbps(80))
        for i in range(samples):
            metrics.record(
                direction.link.name,
                direction.src,
                float(i),
                max(0.0, level + rng.gauss(0.0, mbps(5))),
            )
    for host in cpu_hosts:
        base = rng.uniform(0.1, 0.7)
        for i in range(samples):
            metrics.record_cpu(host, float(i), base + rng.gauss(0.0, 0.05))
    return NetworkView(topology=topology, metrics=metrics)


def assert_identical(actual: StatMeasure, expected: StatMeasure):
    assert actual.minimum == expected.minimum
    assert actual.q1 == expected.q1
    assert actual.median == expected.median
    assert actual.q3 == expected.q3
    assert actual.maximum == expected.maximum
    assert actual.mean == expected.mean
    assert actual.n_samples == expected.n_samples
    assert actual.accuracy == expected.accuracy


def assert_same_quartiles(actual: StatMeasure, expected: StatMeasure):
    assert actual.minimum == expected.minimum
    assert actual.q1 == expected.q1
    assert actual.median == expected.median
    assert actual.q3 == expected.q3
    assert actual.maximum == expected.maximum
    assert actual.mean == expected.mean


PAST_TIMEFRAMES = [
    Timeframe.static(),
    Timeframe.current(),
    Timeframe.history(5.0),
    Timeframe.history(30.0),
    Timeframe.history(1000.0),
]


class TestBandwidthBitIdentical:
    @pytest.mark.parametrize("timeframe", PAST_TIMEFRAMES, ids=str)
    def test_every_direction_matches_oracle(self, timeframe):
        view = noisy_view()
        modeler = Modeler(view)
        for direction in view.topology.iter_directions():
            assert_identical(
                modeler.used_bandwidth(direction, timeframe),
                oracle_used_bandwidth(view, direction, timeframe),
            )

    @pytest.mark.parametrize("timeframe", PAST_TIMEFRAMES, ids=str)
    def test_unmeasured_direction_matches_oracle(self, timeframe):
        view = NetworkView(topology=line_topology(), metrics=MetricsStore())
        modeler = Modeler(view)
        direction = view.topology.link("t12").direction("r1", "r2")
        assert_identical(
            modeler.used_bandwidth(direction, timeframe),
            oracle_used_bandwidth(view, direction, timeframe),
        )

    def test_history_window_past_samples_matches_oracle(self):
        # HISTORY window that retains nothing falls back to latest @ 0.5.
        view = noisy_view(samples=10)
        modeler = Modeler(view)
        # Advance now far beyond the samples by touching another series.
        view.metrics.record("t12", "r1", 500.0, mbps(1))
        timeframe = Timeframe.history(3.0)
        direction = view.topology.link("t23").direction("r2", "r3")
        assert_identical(
            modeler.used_bandwidth(direction, timeframe),
            oracle_used_bandwidth(view, direction, timeframe),
        )

    def test_future_quartiles_match_oracle(self):
        # The one deliberate difference from the frozen ladder: a forecast of
        # *used* bandwidth is floored at zero (the oracle can say -0.58 Mbps
        # on a near-idle link, i.e. grant 100.58 on a 100 Mbps one).
        view = noisy_view()
        modeler = Modeler(view)
        timeframe = Timeframe.future(10.0, predictor="ewma", window=30.0)
        floored = 0
        for direction in view.topology.iter_directions():
            expected = oracle_used_bandwidth(view, direction, timeframe)
            if expected.minimum < 0.0:
                floored += 1
                levels = ("minimum", "q1", "median", "q3", "maximum", "mean")
                expected = replace(
                    expected, **{name: max(0.0, getattr(expected, name)) for name in levels}
                )
            assert_same_quartiles(modeler.used_bandwidth(direction, timeframe), expected)
        assert floored >= 1  # the seeded view does exercise the floor


class TestCpuUnifiedCurrentRule:
    @pytest.mark.parametrize(
        "timeframe",
        [Timeframe.static(), Timeframe.history(5.0), Timeframe.history(1000.0)],
        ids=str,
    )
    def test_static_history_identical(self, timeframe):
        view = noisy_view()
        modeler = Modeler(view)
        for host in ("h1", "h3", "h4"):  # h4 has no CPU series
            assert_identical(
                modeler.cpu_load(host, timeframe),
                oracle_cpu_load(view, host, timeframe),
            )

    def test_current_same_quartiles_sample_derived_accuracy(self):
        """The lock-in for the unified CURRENT rule.

        Quartiles still collapse onto the latest sample (as the oracle's),
        but accuracy is now derived from the trailing window — the rule the
        bandwidth path always used — not the CPU path's blind 0.9.
        """
        view = noisy_view()
        modeler = Modeler(view)
        for host in ("h1", "h3"):
            actual = modeler.cpu_load(host, Timeframe.current())
            expected = oracle_cpu_load(view, host, Timeframe.current())
            assert_same_quartiles(actual, expected)
            assert expected.accuracy == 0.9  # the old hard-coded rule
            series = view.metrics.cpu_series(host)
            now = view.metrics.latest_timestamp()
            recent = series.window(now - current_window_width(series), now)
            derived = min(1.0, StatMeasure.from_samples(recent).accuracy)
            assert actual.accuracy == derived
            assert actual.accuracy != 0.9

    def test_current_rule_shared_with_bandwidth(self):
        """Same samples -> same CURRENT answer, whichever path serves them."""
        topology = line_topology()
        metrics = MetricsStore()
        for i in range(30):
            value = 0.3 + 0.01 * (i % 5)
            metrics.record("t12", "r1", float(i), value)
            metrics.record_cpu("h1", float(i), value)
        view = NetworkView(topology=topology, metrics=metrics)
        modeler = Modeler(view)
        bandwidth = modeler.used_bandwidth(
            topology.link("t12").direction("r1", "r2"), Timeframe.current()
        )
        cpu = modeler.cpu_load("h1", Timeframe.current())
        assert_identical(cpu, bandwidth)


class TestFutureMeasuredAccuracy:
    def test_prior_until_enough_settled_then_measured(self):
        """FUTURE accuracy: fixed prior first, earned measurement later."""
        topology = line_topology()
        metrics = MetricsStore()
        direction = topology.link("t12").direction("r1", "r2")
        for i in range(30):
            metrics.record("t12", "r1", float(i), mbps(40))
        view = NetworkView(topology=topology, metrics=metrics)
        evaluator = TimeframeEvaluator()
        timeframe = Timeframe.future(5.0, predictor="ewma", window=60.0)

        modeler = Modeler(view, evaluator=evaluator)
        first = modeler.used_bandwidth(direction, timeframe)
        # Nothing settled yet: the oracle's fixed-prior accuracy verbatim.
        oracle = oracle_used_bandwidth(view, direction, timeframe)
        assert first.accuracy == oracle.accuracy

        # Advance time past several horizons, keeping the series flat; each
        # epoch gets a fresh Modeler sharing the evaluator (as fork() does).
        now = 29.0
        for _ in range(5):
            for step in range(1, 7):
                metrics.record("t12", "r1", now + step, mbps(40))
            now += 6.0
            modeler = Modeler(view, evaluator=evaluator)
            answer = modeler.used_bandwidth(direction, timeframe)

        key = ("t12", "r1")
        measured = evaluator.backtester.accuracy(key, "ewma", 5.0)
        assert measured is not None
        assert answer.accuracy == pytest.approx(min(1.0, measured))
        # A flat series is perfectly predictable: the earned accuracy beats
        # the fixed PREDICTION_DISCOUNT prior.
        assert answer.accuracy > first.accuracy

    def test_auto_builds_shadow_records(self):
        """'auto' queries accrue backtest cells for every candidate."""
        from repro.stats.predictors import AutoPredictor

        topology = line_topology()
        metrics = MetricsStore()
        direction = topology.link("t12").direction("r1", "r2")
        for i in range(30):
            metrics.record("t12", "r1", float(i), mbps(10) + mbps(1) * i)
        view = NetworkView(topology=topology, metrics=metrics)
        evaluator = TimeframeEvaluator()
        timeframe = Timeframe.future(5.0, predictor="auto", window=120.0)

        Modeler(view, evaluator=evaluator).used_bandwidth(direction, timeframe)
        for name in AutoPredictor.CANDIDATES:
            report = evaluator.backtester.cell_report(("t12", "r1"), name, 5.0)
            assert report is not None and report["pending"] >= 1

    def test_fork_shares_backtester(self):
        view = noisy_view()
        modeler = Modeler(view)
        child = modeler.fork(view)
        assert child.evaluator is not modeler.evaluator
        assert child.evaluator.backtester is modeler.evaluator.backtester
