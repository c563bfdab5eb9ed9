"""Ring buffer tests, including a hypothesis model check against a deque.

``RingBuffer`` left ``src/`` with the columnar ``TimeSeries``; it survives
as the storage of the frozen ring-buffer series oracle, and these tests
keep that oracle honest.
"""

from collections import deque

import pytest
from hypothesis import given, strategies as st

from repro.util import ConfigurationError
from tests.stats._oracles import RingBuffer


class TestBasics:
    def test_empty(self):
        buf = RingBuffer(4)
        assert len(buf) == 0
        assert not buf
        assert not buf.full
        assert buf.to_list() == []

    def test_append_and_index(self):
        buf = RingBuffer(4)
        buf.extend([1, 2, 3])
        assert len(buf) == 3
        assert buf[0] == 1
        assert buf[2] == 3
        assert buf[-1] == 3

    def test_eviction(self):
        buf = RingBuffer(3)
        buf.extend([1, 2, 3, 4, 5])
        assert buf.to_list() == [3, 4, 5]
        assert buf.full

    def test_oldest_newest(self):
        buf = RingBuffer(3)
        buf.extend([10, 20])
        assert buf.oldest() == 10
        assert buf.newest() == 20

    def test_oldest_on_empty_raises(self):
        with pytest.raises(IndexError):
            RingBuffer(2).oldest()

    def test_newest_on_empty_raises(self):
        with pytest.raises(IndexError):
            RingBuffer(2).newest()

    def test_index_out_of_range(self):
        buf = RingBuffer(3)
        buf.append(1)
        with pytest.raises(IndexError):
            buf[1]
        with pytest.raises(IndexError):
            buf[-2]

    def test_clear(self):
        buf = RingBuffer(3)
        buf.extend([1, 2, 3])
        buf.clear()
        assert len(buf) == 0
        buf.append(9)
        assert buf.to_list() == [9]

    def test_zero_capacity_rejected(self):
        with pytest.raises(ConfigurationError):
            RingBuffer(0)

    def test_negative_capacity_rejected(self):
        with pytest.raises(ConfigurationError):
            RingBuffer(-3)

    def test_iteration_order_after_wraparound(self):
        buf = RingBuffer(4)
        buf.extend(range(10))
        assert list(buf) == [6, 7, 8, 9]


@given(
    capacity=st.integers(min_value=1, max_value=20),
    items=st.lists(st.integers(), max_size=100),
)
def test_matches_bounded_deque_model(capacity, items):
    """A RingBuffer behaves exactly like collections.deque(maxlen=capacity)."""
    buf = RingBuffer(capacity)
    model = deque(maxlen=capacity)
    for item in items:
        buf.append(item)
        model.append(item)
        assert buf.to_list() == list(model)
        assert len(buf) == len(model)
        if model:
            assert buf.oldest() == model[0]
            assert buf.newest() == model[-1]
