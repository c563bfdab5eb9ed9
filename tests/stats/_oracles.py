"""Frozen pre-columnar implementations: the stats differential oracles.

What ``repro.stats`` computed before the miss path was rebuilt around
shared-storage columns, one-sort summaries and single-pass scoring, kept
**verbatim** (modulo turning methods into functions) so the replacements
can be held to the bit:

* :class:`RingBuffer` + :class:`RingSeries` — the ring-buffer series model
  ``TimeSeries`` used to be (O(S) list-comprehension window scans, an
  O(capacity) ``frozen_clone``);
* :func:`percentile_summary` / :func:`percentile_accuracy` — the
  ``np.percentile`` summary and its second pass in ``sample_accuracy``;
* :func:`three_function_score` — ``Backtester._score`` computing loss and
  coverage twice through ``pinball_loss``/``band_coverage``/``score_accuracy``
  (frozen here as they were; the public ones must still agree);
* :func:`pairwise_theil_sen` — the pure-Python pairwise-slope median.

Do not fix or optimise this module — its value is being frozen.
"""

from __future__ import annotations

from collections.abc import Iterator
from typing import Generic, TypeVar

import numpy as np

from repro.stats.forecast import QUANTILE_LEVELS
from repro.util.errors import ConfigurationError

T = TypeVar("T")


class RingBuffer(Generic[T]):
    """A bounded FIFO with O(1) append and oldest-first iteration."""

    __slots__ = ("_items", "_capacity", "_start", "_count")

    def __init__(self, capacity: int):
        if capacity <= 0:
            raise ConfigurationError(f"ring buffer capacity must be positive, got {capacity}")
        self._capacity = int(capacity)
        self._items: list[T | None] = [None] * self._capacity
        self._start = 0
        self._count = 0

    @property
    def capacity(self) -> int:
        """Maximum number of items retained."""
        return self._capacity

    def __len__(self) -> int:
        return self._count

    def __bool__(self) -> bool:
        return self._count > 0

    @property
    def full(self) -> bool:
        """True once appends start evicting the oldest item."""
        return self._count == self._capacity

    def append(self, item: T) -> None:
        """Add *item*, evicting the oldest item if the buffer is full."""
        end = (self._start + self._count) % self._capacity
        self._items[end] = item
        if self._count == self._capacity:
            self._start = (self._start + 1) % self._capacity
        else:
            self._count += 1

    def extend(self, items) -> None:
        """Append every element of *items* in order."""
        for item in items:
            self.append(item)

    def __getitem__(self, index: int) -> T:
        """Item at *index*, where 0 is the oldest retained item."""
        if index < 0:
            index += self._count
        if not 0 <= index < self._count:
            raise IndexError(f"ring buffer index {index} out of range (len={self._count})")
        return self._items[(self._start + index) % self._capacity]  # type: ignore[return-value]

    def __iter__(self) -> Iterator[T]:
        for i in range(self._count):
            yield self._items[(self._start + i) % self._capacity]  # type: ignore[misc]

    def newest(self) -> T:
        """Most recently appended item."""
        if self._count == 0:
            raise IndexError("ring buffer is empty")
        return self[self._count - 1]

    def oldest(self) -> T:
        """Oldest retained item."""
        if self._count == 0:
            raise IndexError("ring buffer is empty")
        return self[0]

    def copy(self) -> "RingBuffer[T]":
        """A shallow copy (same items, independent storage)."""
        clone: RingBuffer[T] = RingBuffer(self._capacity)
        clone._items = list(self._items)
        clone._start = self._start
        clone._count = self._count
        return clone

    def clear(self) -> None:
        """Drop every item."""
        self._items = [None] * self._capacity
        self._start = 0
        self._count = 0

    def to_list(self) -> list[T]:
        """Items oldest-first as a plain list."""
        return list(self)


class RingSeries:
    """The pre-columnar ``TimeSeries``: ``RingBuffer[(time, value)]`` scans."""

    def __init__(self, capacity: int = 4096, name: str = ""):
        self.name = name
        self._buffer: RingBuffer[tuple[float, float]] = RingBuffer(capacity)
        self._last_time = -float("inf")
        self._version = 0
        self._frozen = False

    def __len__(self) -> int:
        return len(self._buffer)

    @property
    def version(self) -> int:
        return self._version

    @property
    def empty(self) -> bool:
        return len(self._buffer) == 0

    def frozen_clone(self) -> "RingSeries":
        clone = RingSeries.__new__(RingSeries)
        clone.name = self.name
        clone._buffer = self._buffer.copy()
        clone._last_time = self._last_time
        clone._version = self._version
        clone._frozen = True
        return clone

    def add(self, time: float, value: float) -> None:
        if self._frozen:
            raise ConfigurationError(f"series {self.name!r} is frozen")
        if time < self._last_time:
            raise ConfigurationError(
                f"series {self.name!r}: sample time {time} precedes {self._last_time}"
            )
        self._last_time = time
        self._version += 1
        self._buffer.append((time, float(value)))

    def latest(self) -> tuple[float, float]:
        if self.empty:
            raise ConfigurationError(f"series {self.name!r} is empty")
        return self._buffer.newest()

    def latest_value(self) -> float:
        return self.latest()[1]

    def window(self, since: float, until: float = float("inf")):
        return np.array([v for t, v in self._buffer if since <= t <= until], dtype=float)

    def times(self, since: float = -float("inf"), until: float = float("inf")):
        return np.array([t for t, _ in self._buffer if since <= t <= until], dtype=float)

    def values(self):
        return np.array([v for _, v in self._buffer], dtype=float)

    def has_sample_in(self, since: float, before: float) -> bool:
        for t, _ in self._buffer:
            if t >= before:
                return False
            if t >= since:
                return True
        return False

    def span(self) -> float:
        if len(self._buffer) < 2:
            return 0.0
        return self._buffer.newest()[0] - self._buffer.oldest()[0]


def percentile_accuracy(values) -> float:
    """Pre-rebuild ``sample_accuracy``: its own ``np.percentile`` pass."""
    values = np.asarray(values, dtype=float)
    n = values.size
    if n == 0:
        return 0.0
    count_term = 1.0 - np.exp(-n / 10.0)
    if n == 1:
        return float(0.5 * count_term)
    q1, median, q3 = np.percentile(values, [25, 50, 75])
    scale = max(abs(median), 1e-12)
    dispersion = (q3 - q1) / scale
    dispersion_term = 1.0 / (1.0 + dispersion)
    return min(1.0, max(0.0, float(count_term * dispersion_term)))


def percentile_summary(values) -> dict:
    """Pre-rebuild ``StatMeasure.from_samples`` as ``to_dict()`` fields."""
    data = np.asarray(list(values), dtype=float)
    quartiles = np.percentile(data, [0, 25, 50, 75, 100])
    return {
        "min": float(quartiles[0]),
        "q1": float(quartiles[1]),
        "median": float(quartiles[2]),
        "q3": float(quartiles[3]),
        "max": float(quartiles[4]),
        "mean": float(data.mean()),
        "n_samples": int(data.size),
        "accuracy": float(percentile_accuracy(data)),
    }


def pinball_loss(measure, realized) -> float:
    values = [float(v) for v in realized]
    if not values:
        raise ValueError("pinball loss needs at least one realized sample")
    total = 0.0
    for y in values:
        for level, attr in QUANTILE_LEVELS:
            diff = y - getattr(measure, attr)
            total += max(level * diff, (level - 1.0) * diff)
    return total / (len(values) * len(QUANTILE_LEVELS))


def band_coverage(measure, realized) -> float:
    values = [float(v) for v in realized]
    if not values:
        raise ValueError("band coverage needs at least one realized sample")
    hits = sum(1 for y in values if measure.q1 <= y <= measure.q3)
    return hits / len(values)


def score_accuracy(measure, realized) -> float:
    values = sorted(float(v) for v in realized)
    loss = pinball_loss(measure, values)
    coverage = band_coverage(measure, values)
    mid = values[len(values) // 2]
    scale = max(abs(mid), max(abs(values[0]), abs(values[-1])) * 0.1, 1e-12)
    loss_term = 1.0 / (1.0 + loss / scale)
    coverage_term = min(1.0, coverage / 0.5)
    return max(0.0, min(1.0, loss_term * coverage_term))


def three_function_score(measure, realized) -> tuple[float, float, float]:
    """Pre-rebuild ``Backtester._score``: ``(normalized loss, coverage, accuracy)``."""
    values = sorted(float(v) for v in realized)
    loss = pinball_loss(measure, values)
    coverage = band_coverage(measure, values)
    accuracy = score_accuracy(measure, values)
    mid = values[len(values) // 2]
    scale = max(abs(mid), max(abs(values[0]), abs(values[-1])) * 0.1, 1e-12)
    return loss / scale, coverage, accuracy


def pairwise_theil_sen(fit_t, fit_v) -> float:
    """Pre-rebuild Theil–Sen: median of the pure-Python pairwise slopes."""
    slopes = [
        (fit_v[j] - fit_v[i]) / (fit_t[j] - fit_t[i])
        for i in range(len(fit_v))
        for j in range(i + 1, len(fit_v))
        if fit_t[j] > fit_t[i]
    ]
    if not slopes:
        return 0.0
    slopes.sort()
    mid = len(slopes) // 2
    return slopes[mid] if len(slopes) % 2 else 0.5 * (slopes[mid - 1] + slopes[mid])
