"""Columnar ``TimeSeries`` storage: model check, clone isolation, threads.

The series keeps the trailing *capacity* samples of two append-only
columns and hands out O(1) frozen clones that share them.  A stateful
machine drives it against ``deque(maxlen)`` (contents) and the frozen
ring-buffer series it replaced (window semantics) through growth, wrap
and compaction, holding every clone taken along the way to its contents
at clone time.
"""

import pickle
import sys
import threading
import time
from collections import deque

import numpy as np
import pytest
from hypothesis import settings, strategies as st
from hypothesis.stateful import RuleBasedStateMachine, initialize, invariant, rule

from repro.stats import StatMeasure, TimeSeries
from repro.util.errors import ConfigurationError
from tests.stats._oracles import RingSeries

VALUES = st.floats(min_value=-1e9, max_value=1e9, allow_nan=False)


class SeriesMachine(RuleBasedStateMachine):
    @initialize(capacity=st.integers(min_value=1, max_value=12))
    def setup(self, capacity):
        self.capacity = capacity
        self.series = TimeSeries(capacity=capacity, name="machine")
        self.ring = RingSeries(capacity=capacity, name="oracle")
        self.model = deque(maxlen=capacity)
        self.clock = 0.0
        self.appended = 0
        self.clones = []  # (clone, [(t, v), ...] at clone time, version)

    # Bursts longer than 2 x capacity force eviction and compaction into
    # fresh columns; step 0 makes ties, which window bounds must honour.
    @rule(
        step=st.sampled_from([0.0, 0.25, 1.0, 4.0]),
        values=st.lists(VALUES, min_size=1, max_size=30),
    )
    def add(self, step, values):
        for value in values:
            self.clock += step
            self.series.add(self.clock, value)
            self.ring.add(self.clock, value)
            self.model.append((self.clock, float(value)))
            self.appended += 1

    @rule()
    def clone(self):
        self.clones.append(
            (self.series.frozen_clone(), list(self.model), self.series.version)
        )

    @rule(start=st.floats(min_value=-2.0, max_value=1.5), width=st.floats(0.0, 1.5))
    def query(self, start, width):
        # Bounds relative to the retained span, so they land before, inside,
        # on and after the samples.
        oldest = self.model[0][0] if self.model else 0.0
        extent = max(self.clock - oldest, 1.0)
        since = oldest + start * extent
        until = since + width * extent
        expected = [(t, v) for t, v in self.model if since <= t <= until]
        assert self.series.window(since, until).tolist() == [v for _, v in expected]
        assert self.series.times(since, until).tolist() == [t for t, _ in expected]
        assert self.series.window(since).tolist() == self.ring.window(since).tolist()

    @invariant()
    def live_series_matches_the_model(self):
        series = self.series
        assert len(series) == len(self.model) <= self.capacity
        assert series.empty == (not self.model)
        assert series.version == self.appended
        assert series.values().tolist() == [v for _, v in self.model]
        assert series.times().tolist() == [t for t, _ in self.model]
        assert series.span() == self.ring.span()
        if self.model:
            assert series.latest() == self.model[-1]
        # Storage stays bounded: at most one capacity of dead prefix.
        assert len(series._times) == len(series._values) <= 2 * self.capacity

    @invariant()
    def clones_keep_their_contents(self):
        for clone, pairs, version in self.clones:
            assert clone.frozen and clone.version == version
            assert len(clone) == len(pairs)
            values, times = clone.values(), clone.times()
            assert values.tolist() == [v for _, v in pairs]
            assert times.tolist() == [t for t, _ in pairs]
            assert not values.flags.writeable and not times.flags.writeable
            assert not clone.window(-np.inf).flags.writeable
            if pairs:
                assert clone.latest() == pairs[-1]
                assert clone.span() == pairs[-1][0] - pairs[0][0]
            with pytest.raises(ConfigurationError, match="frozen"):
                clone.add(self.clock + 1.0, 0.0)


TestSeriesMachine = SeriesMachine.TestCase
TestSeriesMachine.settings = settings(max_examples=60, stateful_step_count=30, deadline=None)


def test_nonpositive_capacity_rejected():
    for capacity in (0, -3):
        with pytest.raises(ConfigurationError, match="capacity"):
            TimeSeries(capacity=capacity)


def test_clone_of_a_clone_and_live_arrays_stay_writable():
    series = TimeSeries(capacity=4)
    for t in range(6):
        series.add(float(t), float(t))
    again = series.frozen_clone().frozen_clone()
    series.add(6.0, 6.0)
    assert again.values().tolist() == [2.0, 3.0, 4.0, 5.0]
    assert series.values().flags.writeable  # only published data is read-only


def test_an_unchanged_series_shares_its_clone():
    series = TimeSeries(capacity=4)
    series.add(0.0, 1.0)
    clone = series.frozen_clone()
    assert series.frozen_clone() is clone and clone.frozen_clone() is clone
    series.add(1.0, 2.0)
    fresh = series.frozen_clone()
    assert fresh is not clone
    assert clone.values().tolist() == [1.0] and fresh.values().tolist() == [1.0, 2.0]
    assert pickle.loads(pickle.dumps(series))._clone is None


def test_pickle_ships_only_the_retained_range():
    series = TimeSeries(capacity=5, name="p")
    for t in range(8):  # three evicted samples still sit in the columns
        series.add(float(t), float(t * t))
    clone = series.frozen_clone()
    series.add(8.0, 64.0)  # lands in the shared columns, past the clone's stop
    restored = pickle.loads(pickle.dumps(clone))
    assert restored.frozen and restored.version == clone.version
    assert restored.values().tolist() == clone.values().tolist() == [9.0, 16.0, 25.0, 36.0, 49.0]
    assert restored.times().tolist() == clone.times().tolist()
    assert len(restored._times) == len(restored._values) == 5


def test_summarising_a_clone_while_the_writer_appends():
    """Readers of a published clone never see the writer, compaction included."""
    series = TimeSeries(capacity=64, name="shared")
    for t in range(100):
        series.add(float(t), float((t * 37) % 101))
    clone = series.frozen_clone()
    expected = StatMeasure.from_samples(clone.values())
    expected_window = clone.window(50.0, 80.0).tolist()
    stop = threading.Event()
    failures = []

    def read():
        while not stop.is_set():
            try:
                if clone.summarise(-np.inf) != expected:
                    failures.append("summary moved")
                if clone.window(50.0, 80.0).tolist() != expected_window:
                    failures.append("window moved")
                if len(clone) != 64 or clone.latest() != (99.0, float((99 * 37) % 101)):
                    failures.append("clone grew")
            except Exception as exc:  # noqa: BLE001 - any reader error fails the test
                failures.append(repr(exc))

    readers = [threading.Thread(target=read) for _ in range(4)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for reader in readers:
            reader.start()
        deadline = time.monotonic() + 1.0
        t = 100
        while time.monotonic() < deadline and not failures:
            for _ in range(200):  # > 3 compactions per burst
                series.add(float(t), float(t % 7))
                t += 1
    finally:
        stop.set()
        for reader in readers:
            reader.join(timeout=10.0)
        sys.setswitchinterval(interval)
    assert not any(reader.is_alive() for reader in readers)
    assert not failures, failures[:3]
    assert t > 100 + 3 * 64 and len(series) == 64
