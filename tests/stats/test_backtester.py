"""The origin-keyed ``Backtester`` against the per-cell one it replaced.

A stateful machine files, settles and reads both with the same calls —
several series with one or two horizons each, candidate subsets (a model
that fails to fit skips its cell), origins in and out of order, small
``max_pending`` and ``max_cells``, realized windows empty and not — and
holds every public reading to the frozen oracle's, to the bit, after
every step.  The one place the two differ on purpose is the oracle's
bug: an origin re-filed behind a later one is held and scored twice
(:func:`test_one_origin_filed_twice_is_held_once`), so the machine never
re-files an origin a cell holds except as its latest.
"""

import math

from hypothesis import given, settings, strategies as st
from hypothesis.stateful import RuleBasedStateMachine, initialize, invariant, rule

from repro.core import Timeframe
from repro.core.evaluator import TimeframeEvaluator
from repro.stats import StatMeasure, TimeSeries
from repro.stats.forecast import Backtester, score_candidates, score_prediction
from repro.stats.predictors import AutoPredictor
from tests.stats import _oracles

SERIES = ("s0", "s1")
CANDIDATES = ("last", "mean", "ewma")
HORIZON_SETS = ((2.0,), (3.0,), (1.0, 4.0), (2.0, 5.0))

LEVELS = st.floats(min_value=0.0, max_value=100.0, allow_nan=False)
MEASURES = st.lists(LEVELS, min_size=5, max_size=5).map(sorted).map(
    lambda q: StatMeasure.presorted(q, mean=q[2], n_samples=5, accuracy=0.5)
)


class BacktesterMachine(RuleBasedStateMachine):
    @initialize(
        max_pending=st.sampled_from([1, 2, 3, 64]),
        max_cells=st.sampled_from([2, 5, 9, 65536]),
        min_settled=st.sampled_from([1, 2, 3]),
        alpha=st.sampled_from([0.3, 0.5]),
        horizons=st.lists(st.sampled_from(HORIZON_SETS), min_size=2, max_size=2),
    )
    def setup(self, max_pending, max_cells, min_settled, alpha, horizons):
        params = dict(
            alpha=alpha, min_settled=min_settled, max_pending=max_pending, max_cells=max_cells
        )
        self.backtester = Backtester(**params)
        self.oracle = _oracles.Backtester(**params)
        self.horizons = dict(zip(SERIES, horizons))
        self.series = {key: TimeSeries(name=key) for key in SERIES}
        self.now = 10.0
        for key, series in self.series.items():
            for t in range(11):
                series.add(float(t), 10.0 * t)

    def _held_behind_latest(self, key, predictor, horizon, made_at) -> bool:
        """True when the oracle's cell holds *made_at*, but not as its latest."""
        cell = self.oracle._cells.get((key, predictor, round(horizon, 6)))
        if cell is None or not cell.pending:
            return False
        held = [pending.made_at for pending in cell.pending]
        return made_at in held and held[-1] != made_at

    # Steps of 1-3 s; a series left unsampled leaves a gap, so some
    # realized windows come back empty and their origins expire.
    @rule(
        step=st.integers(min_value=1, max_value=3),
        sampled=st.lists(st.booleans(), min_size=2, max_size=2),
        values=st.lists(LEVELS, min_size=2, max_size=2),
    )
    def advance(self, step, sampled, values):
        self.now += step
        for key, take, value in zip(SERIES, sampled, values):
            if take:
                self.series[key].add(self.now, value)

    # lag > 0 files behind newer origins: a reader pinned to an older epoch.
    @rule(
        key=st.sampled_from(SERIES),
        pick=st.integers(min_value=0, max_value=1),
        lag=st.integers(min_value=0, max_value=4),
        names=st.lists(st.sampled_from(CANDIDATES), unique=True, max_size=3),
        measures=st.lists(MEASURES, min_size=3, max_size=3),
        answering=st.sampled_from(CANDIDATES + (None,)),
    )
    def file_origin(self, key, pick, lag, names, measures, answering):
        horizons = self.horizons[key]
        horizon = horizons[pick % len(horizons)]
        made_at = self.now - lag
        filings = [
            (name, measure)
            for name, measure in zip(names, measures)
            if not self._held_behind_latest(key, name, horizon, made_at)
        ]
        got = self.backtester.record_origin(key, horizon, made_at, filings, answering)
        for name, measure in filings:
            self.oracle.record(key, name, horizon, made_at, measure)
        expected = None if answering is None else self.oracle.accuracy(key, answering, horizon)
        assert repr(got) == repr(expected)

    # Two racing misses of one epoch with the next epoch's filing between
    # them: the older origin arrives second and must mature in its place.
    @rule(
        key=st.sampled_from(SERIES),
        pick=st.integers(min_value=0, max_value=1),
        lag=st.integers(min_value=1, max_value=3),
        names=st.lists(st.sampled_from(CANDIDATES), unique=True, min_size=1, max_size=3),
        newer=st.lists(MEASURES, min_size=3, max_size=3),
        older=st.lists(MEASURES, min_size=3, max_size=3),
    )
    def file_behind(self, key, pick, lag, names, newer, older):
        self.file_origin(key, pick, 0, names, newer, None)
        self.file_origin(key, pick, lag, names, older, names[-1])

    @rule(
        key=st.sampled_from(SERIES),
        pick=st.integers(min_value=0, max_value=1),
        lag=st.integers(min_value=0, max_value=4),
        name=st.sampled_from(CANDIDATES),
        measure=MEASURES,
    )
    def record_one(self, key, pick, lag, name, measure):
        horizons = self.horizons[key]
        horizon = horizons[pick % len(horizons)]
        made_at = self.now - lag
        if self._held_behind_latest(key, name, horizon, made_at):
            return
        self.backtester.record(key, name, horizon, made_at, measure)
        self.oracle.record(key, name, horizon, made_at, measure)

    @rule(key=st.sampled_from(SERIES))
    def settle(self, key):
        series = self.series[key]
        assert self.backtester.settle(key, series, self.now) == self.oracle.settle(
            key, series, self.now
        )

    @rule(
        key=st.sampled_from(SERIES),
        pick=st.integers(min_value=0, max_value=1),
        candidates=st.lists(st.sampled_from(CANDIDATES), unique=True, max_size=3),
    )
    def settle_best(self, key, pick, candidates):
        horizons = self.horizons[key]
        horizon = horizons[pick % len(horizons)]
        series = self.series[key]
        got = self.backtester.settle_best(key, series, self.now, horizon, candidates)
        self.oracle.settle(key, series, self.now)
        assert got == self.oracle.best(key, horizon, candidates)

    @invariant()
    def every_reading_matches_the_oracle(self):
        if not hasattr(self, "oracle"):
            return
        new, old = self.backtester, self.oracle
        assert repr(new.to_dict()) == repr(old.to_dict())
        assert (new.recorded, new.settled, new.expired) == (old.recorded, old.settled, old.expired)
        every_horizon = sorted({h for hs in HORIZON_SETS for h in hs})
        for key in SERIES:
            for horizon in every_horizon:
                assert new.best(key, horizon, CANDIDATES) == old.best(key, horizon, CANDIDATES)
                for name in CANDIDATES:
                    assert repr(new.cell_report(key, name, horizon)) == repr(
                        old.cell_report(key, name, horizon)
                    )
                    assert repr(new.accuracy(key, name, horizon)) == repr(
                        old.accuracy(key, name, horizon)
                    )


TestBacktesterMachine = BacktesterMachine.TestCase
TestBacktesterMachine.settings = settings(
    max_examples=100, stateful_step_count=30, deadline=None
)


def test_one_origin_filed_twice_is_held_once():
    """Two racing misses in one epoch with the next epoch's filing between
    them file made_at 105, 106, 105: one origin, held — and scored — once."""
    series = TimeSeries(name="link")
    for t in range(100, 120):
        series.add(float(t), 50.0)
    backtester = Backtester(min_settled=1)
    measure = StatMeasure.constant(50.0)
    for made_at in (105.0, 106.0, 105.0):
        backtester.record("k", "ewma", 5.0, made_at, measure)
    assert backtester.cell_report("k", "ewma", 5.0)["pending"] == 2
    assert backtester.recorded == 2
    assert backtester.settle("k", series, now=119.0) == 2
    assert backtester.cell_report("k", "ewma", 5.0)["settled"] == 2


def test_out_of_order_origin_matures_in_its_place():
    """An origin filed behind a newer one is inserted where it matures: a
    settle between the two due times scores it and keeps the newer one."""
    series = TimeSeries(name="link")
    for t in range(0, 30):
        series.add(float(t), 10.0)
    backtester = Backtester(min_settled=1)
    backtester.record("k", "last", 5.0, 12.0, StatMeasure.constant(10.0))
    backtester.record("k", "last", 5.0, 10.0, StatMeasure.constant(10.0))
    assert [o.made_at for o in backtester._lanes["k"][5.0].origins] == [10.0, 12.0]
    assert backtester.settle("k", series, now=16.0) == 1
    assert backtester.cell_report("k", "last", 5.0)["pending"] == 1


def test_a_settle_reads_each_matured_origin_once():
    """Five candidates filed at one origin share one realized-window read."""
    reads = []

    class Series:
        def window(self, since, until):
            reads.append((since, until))
            return TimeSeries.window(source, since, until)

    source = TimeSeries(name="link")
    for t in range(0, 30):
        source.add(float(t), float(t % 4))
    backtester = Backtester()
    filings = [(name, StatMeasure.constant(1.5)) for name in ("a", "b", "c", "d", "e")]
    for made_at in (10.0, 11.0, 12.0):
        backtester.record_origin("k", 5.0, made_at, filings)
    assert backtester.settle("k", Series(), now=16.0) == 10
    assert reads == [(10.0, 15.0), (11.0, 16.0)]


def test_a_future_auto_miss_takes_the_backtester_lock_twice():
    """One acquisition settles and resolves ``auto``; one files every
    candidate and reads the answering cell's accuracy."""
    evaluator = TimeframeEvaluator()
    backtester = evaluator.backtester
    acquisitions = []

    class CountingLock:
        def __init__(self, lock):
            self._lock = lock

        def __enter__(self):
            acquisitions.append(1)
            return self._lock.__enter__()

        def __exit__(self, *exc):
            return self._lock.__exit__(*exc)

    backtester._lock = CountingLock(backtester._lock)
    series = TimeSeries(name="link")
    timeframe = Timeframe.future(5.0, predictor="auto", window=30.0)
    for step in range(40):
        series.add(float(step), 10.0 + step % 3)
        acquisitions.clear()
        evaluator.evaluate(("link", "a"), series, timeframe, float(step))
        assert len(acquisitions) == 2
    assert backtester.best(("link", "a"), 5.0, AutoPredictor.CANDIDATES) is not None


FINITE = st.floats(min_value=-1e12, max_value=1e12, allow_nan=False)


@settings(max_examples=200, deadline=None)
@given(
    values=st.lists(
        st.one_of(FINITE, st.sampled_from([0.0, -0.0, math.inf, math.nan])), min_size=1, max_size=30
    ),
    levels=st.lists(
        st.lists(st.one_of(FINITE, st.just(math.nan)), min_size=5, max_size=5),
        min_size=1,
        max_size=5,
    ),
)
def test_score_candidates_is_score_prediction_to_the_bit(values, levels):
    measures = [
        StatMeasure.presorted(sorted(q), mean=0.0, n_samples=5, accuracy=1.0) for q in levels
    ]
    together = score_candidates(sorted(values), measures)
    for measure, scores in zip(measures, together):
        assert repr(scores) == repr(score_prediction(measure, values))
        assert repr(scores) == repr(_oracles.score_prediction(measure, values))
