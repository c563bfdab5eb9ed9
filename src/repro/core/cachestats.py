"""Observability for the generation-stamped query cache.

One :class:`CacheStats` instance is shared by a :class:`~repro.core.Remos`
facade and the :class:`~repro.core.Modeler` it keeps alive across collector
view refreshes.  Every memoised lookup records a hit or a miss (globally and
per cache), every generation change that dropped cached entries records an
invalidation, and every public query records its wall-clock time — so the
effect of the cache is measurable, not assumed.  See ``docs/PERFORMANCE.md``
for how to read the counters.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field


@dataclass
class CacheStats:
    """Counters describing the behaviour of the Modeler's caches.

    Attributes
    ----------
    hits / misses:
        Memoised-lookup outcomes summed over every cache.
    invalidations:
        Times a generation change (or a view rebind) dropped cached entries.
    partial_invalidations:
        Times a metrics-only delta chain let the Modeler evict just the
        touched entries instead of dropping every cache.
    entries_evicted:
        Cache entries removed by those partial invalidations (full drops
        are not counted here).
    routing_rebuilds:
        Times a view refresh carried a structurally different topology and
        forced a new routing table (0 while topology is stable).
    queries:
        Public Remos queries answered (flow_info, get_graph, node_info,
        check_admission).
    query_time:
        Total wall-clock seconds spent answering those queries.
    per_cache:
        ``{cache name: {"hits": n, "misses": n}}`` breakdown; cache names
        are ``"bandwidth"``, ``"cpu"``, ``"graph"`` (the epoch's priced
        graphs) and ``"graph_plan"`` (a plan reused is a hit, one built a
        miss).
    """

    hits: int = 0
    misses: int = 0
    invalidations: int = 0
    partial_invalidations: int = 0
    entries_evicted: int = 0
    routing_rebuilds: int = 0
    queries: int = 0
    query_time: float = 0.0
    per_cache: dict[str, dict[str, int]] = field(default_factory=dict)
    #: Guards the read-modify-write increments: one CacheStats is shared by
    #: every reader thread querying the same facade.  ~100ns per record —
    #: invisible next to any memoised lookup.
    lock: threading.Lock = field(
        default_factory=threading.Lock, repr=False, compare=False
    )

    # -- recording (called by Modeler / Remos) ---------------------------------

    def hit(self, cache: str, count: int = 1) -> None:
        """Record *count* lookups served from *cache* under one lock hold."""
        with self.lock:
            self.hits += count
            self._bucket(cache)["hits"] += count

    def miss(self, cache: str) -> None:
        """Record a lookup *cache* had to compute."""
        with self.lock:
            self.misses += 1
            self._bucket(cache)["misses"] += 1

    def invalidated(self) -> None:
        """Record one cache-dropping event (generation change / rebind)."""
        with self.lock:
            self.invalidations += 1

    def partially_invalidated(self, evicted: int) -> None:
        """Record one delta-driven eviction pass removing *evicted* entries."""
        with self.lock:
            self.partial_invalidations += 1
            self.entries_evicted += evicted

    def record_query(self, seconds: float) -> None:
        """Account one answered query and its wall-clock cost."""
        with self.lock:
            self.queries += 1
            self.query_time += seconds

    def _bucket(self, cache: str) -> dict[str, int]:
        return self.per_cache.setdefault(cache, {"hits": 0, "misses": 0})

    # -- derived readings ---------------------------------------------------------

    @property
    def hit_rate(self) -> float:
        """Fraction of memoised lookups served from cache (0.0 when idle)."""
        total = self.hits + self.misses
        return self.hits / total if total else 0.0

    @property
    def mean_query_time(self) -> float:
        """Average wall-clock seconds per answered query (0.0 when idle)."""
        return self.query_time / self.queries if self.queries else 0.0

    def reset(self) -> None:
        """Zero every counter (e.g. between benchmark phases)."""
        with self.lock:
            self.hits = 0
            self.misses = 0
            self.invalidations = 0
            self.partial_invalidations = 0
            self.entries_evicted = 0
            self.routing_rebuilds = 0
            self.queries = 0
            self.query_time = 0.0
            self.per_cache.clear()

    def to_dict(self) -> dict:
        """Plain-data form for JSON export / benchmark reports."""
        return {
            "hits": self.hits,
            "misses": self.misses,
            "hit_rate": self.hit_rate,
            "invalidations": self.invalidations,
            "partial_invalidations": self.partial_invalidations,
            "entries_evicted": self.entries_evicted,
            "routing_rebuilds": self.routing_rebuilds,
            "queries": self.queries,
            "query_time": self.query_time,
            "mean_query_time": self.mean_query_time,
            "per_cache": {name: dict(counts) for name, counts in self.per_cache.items()},
        }

    def __str__(self) -> str:
        return (
            f"CacheStats(hits={self.hits}, misses={self.misses}, "
            f"hit_rate={self.hit_rate:.2%}, invalidations={self.invalidations}, "
            f"queries={self.queries}, mean_query_time={self.mean_query_time * 1e3:.3f}ms)"
        )
