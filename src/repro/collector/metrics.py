"""Metric storage shared by all collectors.

A :class:`MetricsStore` holds one bounded :class:`~repro.stats.TimeSeries`
per *directed link* — the series values are **used bandwidth in bits per
second** as observed over each polling interval.  The Modeler converts use
into availability against the link's capacity.
"""

from __future__ import annotations

from repro.stats import TimeSeries
from repro.util.errors import CollectorError

#: Reserved pseudo-link name under which CPU series are stored; a metrics
#: key ``(CPU_PSEUDO_LINK, host)`` is a CPU resource, not a link direction.
CPU_PSEUDO_LINK = "cpu"


class MetricsStore:
    """Per-directed-link utilization series, keyed by (link name, from node)."""

    def __init__(self, capacity: int = 4096):
        self._capacity = capacity
        self._series: dict[tuple[str, str], TimeSeries] = {}
        self._latest_time = 0.0
        self._frozen = False

    @property
    def frozen(self) -> bool:
        """True for immutable stores published inside a snapshot."""
        return self._frozen

    def _assert_mutable(self) -> None:
        if self._frozen:
            raise CollectorError(
                "metrics store is frozen (published in a snapshot); "
                "record against the live collector view instead"
            )

    def frozen_clone(self) -> "MetricsStore":
        """An immutable store holding frozen clones of every series.

        O(1) per series: a frozen :class:`~repro.stats.TimeSeries` clone
        shares its source's sample storage, so publication copies no
        samples however long the series are.
        """
        clone = MetricsStore(self._capacity)
        clone._series = {key: series.frozen_clone() for key, series in self._series.items()}
        clone._latest_time = self._latest_time
        clone._frozen = True
        return clone

    def record(self, link_name: str, from_node: str, time: float, bits_per_second: float) -> None:
        """Append one sample of used bandwidth on a link direction."""
        self._assert_mutable()
        key = (link_name, from_node)
        series = self._series.get(key)
        if series is None:
            series = TimeSeries(self._capacity, name=f"{link_name}:{from_node}->")
            self._series[key] = series
        series.add(time, max(0.0, bits_per_second))
        if time > self._latest_time:
            self._latest_time = time

    def latest_timestamp(self) -> float:
        """Newest sample time across every series, in O(1).

        0.0 before any sample — the Modeler treats that as "no measurement
        yet", matching an empty scan.  Tracked incrementally so the hot
        query path never walks the series.
        """
        return self._latest_time

    def series(self, link_name: str, from_node: str) -> TimeSeries:
        """The series for one direction (raises if never recorded)."""
        try:
            return self._series[(link_name, from_node)]
        except KeyError:
            raise CollectorError(
                f"no measurements for link {link_name!r} direction from {from_node!r}"
            ) from None

    def has_series(self, link_name: str, from_node: str) -> bool:
        """True once at least one sample exists for the direction."""
        return (link_name, from_node) in self._series

    def keys(self) -> list[tuple[str, str]]:
        """All (link name, from node) directions with measurements."""
        return list(self._series)

    def adopt(self, key: tuple[str, str], series: TimeSeries) -> None:
        """Adopt *series* (by reference) for *key*, replacing any holder.

        The collector master uses this to apply child deltas under its
        first-collector-wins precedence rules; :meth:`merge_from` remains
        the bulk form.
        """
        self._assert_mutable()
        self._series[key] = series
        if not series.empty:
            self._latest_time = max(self._latest_time, series.latest()[0])

    def bump_latest(self, time: float) -> None:
        """Advance the O(1) newest-sample stamp to at least *time*.

        Needed by holders of shared series: a child collector appending to
        a series this store adopted by reference moves real data without
        touching this store's incremental maximum.
        """
        self._assert_mutable()
        if time > self._latest_time:
            self._latest_time = time

    # CPU load series reuse the same store under a reserved pseudo-link
    # name, so merging and capacity bounds apply uniformly.
    _CPU_KEY = CPU_PSEUDO_LINK

    def record_cpu(self, host: str, time: float, utilization: float) -> None:
        """Append a CPU-utilization sample (0..1) for *host*."""
        self.record(self._CPU_KEY, host, time, min(1.0, max(0.0, utilization)))

    def cpu_series(self, host: str) -> TimeSeries:
        """CPU-utilization series for *host* (raises if never recorded)."""
        return self.series(self._CPU_KEY, host)

    def has_cpu_series(self, host: str) -> bool:
        """True once at least one CPU sample exists for *host*."""
        return self.has_series(self._CPU_KEY, host)

    def merge_from(self, other: "MetricsStore", prefer_other: bool = False) -> None:
        """Adopt *other*'s series for directions we lack (or always, if
        *prefer_other*).  Used by the collector master."""
        self._assert_mutable()
        for key, series in other._series.items():
            if prefer_other or key not in self._series:
                self._series[key] = series
                if not series.empty:
                    self._latest_time = max(self._latest_time, series.latest()[0])

    def __len__(self) -> int:
        return len(self._series)
