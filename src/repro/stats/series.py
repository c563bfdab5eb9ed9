"""Bounded time series of measurements.

Collectors append (time, value) samples; the Modeler summarises windows of
them into :class:`~repro.stats.quartiles.StatMeasure`.  Storage is two
append-only columns (times and values, oldest first) of which the series
retains the trailing *capacity* samples, so long-running collectors stay
bounded and every window query is two bisections plus a slice.

Sharing rule (what published snapshots rely on): a column is only ever
*appended to*.  Evicting old samples moves the series' ``start`` offset;
once the dead prefix reaches *capacity* the series compacts into **fresh**
columns and rebinds to them, never in place.  A :meth:`frozen_clone`
therefore shares the columns of its source and pins ``(start, stop)``:
nothing inside that range is ever written again, whatever the live series
goes on to do.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right

import numpy as np

from repro.stats.quartiles import StatMeasure
from repro.util.errors import ConfigurationError


class TimeSeries:
    """Append-only (time, value) samples with window queries."""

    def __init__(self, capacity: int = 4096, name: str = ""):
        if capacity <= 0:
            raise ConfigurationError(f"series capacity must be positive, got {capacity}")
        self.name = name
        self._capacity = int(capacity)
        # Retained samples are columns[_start:_stop]; see the module
        # docstring for the append-only / compact-into-fresh rule.
        self._times: list[float] = []
        self._values: list[float] = []
        self._start = 0
        self._stop = 0
        self._version = 0
        self._frozen = False
        # The latest frozen clone; it stands for the series until the
        # version moves past it.
        self._clone: "TimeSeries | None" = None

    def __len__(self) -> int:
        return self._stop - self._start

    def __getstate__(self) -> dict:
        # Ship only the retained range: the shared columns may also hold
        # evicted samples and, for a clone, the source's later appends.
        times, values = self._columns(-float("inf"), float("inf"))
        return {
            **self.__dict__, "_times": times, "_values": values,
            "_start": 0, "_stop": len(times), "_clone": None,
        }

    @property
    def version(self) -> int:
        """Samples ever appended (monotone; survives eviction).

        A frozen clone stands for the series while this is unchanged.
        Shared series objects (the collector master adopts child series by
        reference) carry one counter visible to every holder.
        """
        return self._version

    @property
    def empty(self) -> bool:
        """True if no samples recorded yet."""
        return self._stop == self._start

    @property
    def frozen(self) -> bool:
        """True for immutable clones published inside a snapshot."""
        return self._frozen

    def frozen_clone(self) -> "TimeSeries":
        """An immutable view of the current samples and version stamp, O(1).

        Published snapshots hold these: the clone shares the source's
        columns and pins its own ``(start, stop)``, so the live collector
        keeps appending without the snapshot ever observing it.  A series
        nobody appended to since its last clone hands out that clone
        again (so publishing after a sparse sweep builds clones only for
        the series it measured), and a frozen series is its own clone.
        """
        if self._frozen:
            return self
        clone = self._clone
        if clone is None or clone._version != self._version:
            clone = TimeSeries.__new__(TimeSeries)
            clone.__dict__.update(self.__dict__)
            clone._frozen = True
            clone._clone = None
            self._clone = clone
        return clone

    def add(self, time: float, value: float) -> None:
        """Append a sample; times must be non-decreasing."""
        if self._frozen:
            raise ConfigurationError(
                f"series {self.name!r} is frozen (published in a snapshot); "
                "append to the live collector series instead"
            )
        if self._stop > self._start and time < self._times[self._stop - 1]:
            raise ConfigurationError(
                f"series {self.name!r}: sample time {time} precedes {self._times[self._stop - 1]}"
            )
        self._version += 1
        self._times.append(float(time))
        self._values.append(float(value))
        self._stop += 1
        if self._stop - self._start > self._capacity:
            self._start += 1
            if self._start >= self._capacity:
                # Fresh columns, never in place: clones keep the old ones.
                self._times = self._times[self._start :]
                self._values = self._values[self._start :]
                self._stop -= self._start
                self._start = 0

    def latest(self) -> tuple[float, float]:
        """Most recent (time, value)."""
        if self.empty:
            raise ConfigurationError(f"series {self.name!r} is empty")
        return self._times[self._stop - 1], self._values[self._stop - 1]

    def latest_value(self) -> float:
        """Most recent value."""
        return self.latest()[1]

    def _bounds(self, since: float, until: float) -> tuple[int, int]:
        """Column index range of the samples with ``since <= t <= until``."""
        lo = bisect_left(self._times, since, self._start, self._stop)
        return lo, bisect_right(self._times, until, lo, self._stop)

    def _columns(self, since: float, until: float) -> "tuple[list[float], list[float]]":
        """``(times, values)`` of the window as plain lists (package-internal:
        the forecasters loop over samples in Python, where lists beat arrays)."""
        lo, hi = self._bounds(since, until)
        return self._times[lo:hi], self._values[lo:hi]

    def _vector(self, column: "list[float]", lo: int, hi: int):
        """``column[lo:hi]`` as the 1-D array the public API returns."""
        array = np.array(column[lo:hi], dtype=float)
        if self._frozen:
            array.flags.writeable = False
        return array

    def window(self, since: float, until: float = float("inf")):
        """Values with ``since <= t <= until``, oldest first (may be empty)."""
        return self._vector(self._values, *self._bounds(since, until))

    def times(self, since: float = -float("inf"), until: float = float("inf")):
        """Sample times within the window, oldest first."""
        return self._vector(self._times, *self._bounds(since, until))

    def values(self):
        """Every retained value, oldest first."""
        return self._vector(self._values, self._start, self._stop)

    def span(self) -> float:
        """Time covered by retained samples."""
        if len(self) < 2:
            return 0.0
        return self._times[self._stop - 1] - self._times[self._start]

    def _nonempty_window(self, since: float, until: float):
        values = self.window(since, until)
        if values.size == 0:
            raise ConfigurationError(
                f"series {self.name!r}: no samples in window [{since}, {until}]"
            )
        return values

    def summarise(
        self, since: float, until: float = float("inf"), accuracy: float | None = None
    ) -> StatMeasure:
        """Quartile summary of the window (raises if the window is empty)."""
        return StatMeasure.from_samples(self._nonempty_window(since, until), accuracy=accuracy)

    def mean_over(self, since: float, until: float = float("inf")) -> float:
        """Arithmetic mean of the window (raises if empty)."""
        return float(self._nonempty_window(since, until).mean())

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<TimeSeries {self.name!r} n={len(self)}>"
