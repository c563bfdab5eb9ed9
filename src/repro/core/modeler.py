"""The Modeler: turns a collector's NetworkView into Remos answers.

"The primary tasks of the modeler are as follows: generating a logical
topology, associating appropriate static and dynamic information with each
of the network components, and satisfying flow requests based on the
logical topology" (§5).  This module implements the first two tasks; flow
satisfaction lives in :mod:`repro.core.api` on top of the availability
estimates produced here.

Estimates are memoised under a **generation stamp**: every answer cached
here is keyed on the view's ``(generation, latest metric timestamp)``, so a
cached answer is exact for its generation and never served across
generations.  Invalidation is **fine-grained**: when the view can account
for a generation step with metrics-only :class:`~repro.collector.ViewDelta`
entries, only the touched resources are evicted — per-direction estimates
additionally carry a ``(series version, evaluation time)`` stamp proving
the summarised window did not move, so untouched entries survive sweeps
bit-for-bit.  Structural deltas (or journal gaps) fall back to the old
drop-everything behaviour.

On top of the validated estimates sits the **price memo**: per timeframe,
what each allocation resource offers (capacity minus external use) for
the current stamp.  A resource is priced once per epoch — one entry
validation, one ``complement_of`` — and every later read by any query
path (array evaluator, lazy capacity views, admission, the federation
pin, graph annotation) is a plain dict lookup.  The staleness contract
and the full performance model are documented in ``docs/PERFORMANCE.md``.
"""

from __future__ import annotations

import threading
from typing import Hashable

from repro import obs
from repro.collector.base import NetworkView
from repro.collector.metrics import CPU_PSEUDO_LINK
from repro.core.cachestats import CacheStats
from repro.core.collapse import CollapseTree
from repro.core.evaluator import (
    UNMEASURED_ACCURACY,
    TimeframeEvaluator,
    current_window_width,
)
from repro.core.graph import RemosEdge, RemosGraph, RemosNode
from repro.core.timeframe import Timeframe, TimeframeKind
from repro.net import Hierarchy, HierarchyRefusal, LinkDirection, NodeKind, RoutingTable
from repro.stats import StatMeasure
from repro.util.errors import QueryError, TopologyError

__all__ = ["Modeler", "CapacityView", "UNMEASURED_ACCURACY"]

# ``logical_graph(collapse="auto")`` switches from the flat (exact) path to
# the hierarchical one above this many queried nodes — below it the flat
# graph is cheap and strictly more detailed, and every pre-hierarchy query
# keeps its byte-identical answer.
AUTO_COLLAPSE_THRESHOLD = 64

# Timeframes priced at once per epoch; the oldest table is evicted (and
# refilled on demand) beyond this.  Each costs one measure per crossed
# resource (plus, on the array path, seven floats per interned id).
_MAX_PRICED_TIMEFRAMES = 8

_log = obs.get_logger("repro.core.modeler")


class _Entry:
    """One cached per-resource measure, stamped for incremental validity.

    ``version`` is the backing series' sample-append counter at compute
    time; ``now_used`` is the evaluation time the summary window was
    anchored at.  A hit is served only when the version still matches and
    (for timeframes whose answer depends on "now") the window provably did
    not move — see ``Modeler._window_unmoved``.
    """

    __slots__ = ("version", "now_used", "measure")

    def __init__(self, version: int, now_used: float, measure: StatMeasure):
        self.version = version
        self.now_used = now_used
        self.measure = measure


class _GraphEntry:
    """A cached logical graph plus what its annotations depend on."""

    __slots__ = ("graph", "link_names", "now_used")

    def __init__(self, graph: RemosGraph, link_names: frozenset, now_used: float):
        self.graph = graph
        self.link_names = link_names
        self.now_used = now_used


class Modeler:
    """Annotates topologies and estimates per-direction availability.

    Parameters
    ----------
    view:
        The collector's current belief about the network.
    routing:
        Routes over ``view.topology`` (built on demand if omitted).
    stats:
        Shared :class:`CacheStats` counters (Remos passes its own so stats
        survive view rebinds); a private instance is created if omitted.
    enable_cache:
        ``False`` recomputes every estimate from the raw series — the cold
        path benchmarks and differential tests compare against.
    """

    def __init__(
        self,
        view: NetworkView,
        routing: RoutingTable | None = None,
        stats: CacheStats | None = None,
        enable_cache: bool = True,
        evaluator: TimeframeEvaluator | None = None,
    ):
        self.view = view
        self.routing = routing or RoutingTable(view.topology)
        self.stats = stats if stats is not None else CacheStats()
        self.enable_cache = enable_cache
        #: The shared timeframe ladder.  Per-epoch object (predictor memo),
        #: but its Backtester is carried across forks like ``stats``.
        self.evaluator = evaluator if evaluator is not None else TimeframeEvaluator()
        self._bandwidth_cache: dict[tuple, _Entry] = {}
        self._cpu_cache: dict[tuple, _Entry] = {}
        self._graph_cache: dict[tuple, _GraphEntry] = {}
        # The price memo, timeframe -> resource key -> what it offers: valid
        # for ``_cache_stamp`` only, so it is replaced wholesale whenever the
        # stamp moves and never carried across forks.
        self._prices: dict[Timeframe, dict[Hashable, StatMeasure]] = {}
        # Serialises creation of what an epoch's readers share: a
        # timeframe's price table, the snapshot arrays.
        self._epoch_lock = threading.Lock()
        # Route → resource-key memo; purely structural (routes + static
        # crossbar finiteness), so it outlives generations and is dropped
        # only when the routing table itself is replaced.
        self._route_resources: dict[tuple[str, str], tuple[Hashable, ...]] = {}
        self._cache_stamp = self._view_stamp()
        # Collapse tree for hierarchical graph queries: built lazily per
        # structure, kept across metrics-only sweeps.  ``_no_hierarchy``
        # memoises a failed build per structure level so auto-mode queries
        # on non-hierarchical topologies pay the inference attempt once.
        self._collapse: CollapseTree | None = None
        self._no_hierarchy: tuple[int, str, str] | None = None
        # Structure level the slow-path fallback warning fired at, so the
        # "whole-network graph went flat" warning is one-time per structure
        # (the counter keeps counting every fallback query).
        self._slow_path_warned: int | None = None
        # Array materialisation for the vectorized query path
        # (repro.core.snaparrays); built lazily on first vectorized query,
        # its structural half shared across forks like ``_route_resources``.
        self._snaparrays = None
        # Structure level last synchronised against; advancing past it
        # means the topology changed under us (in place), so routing and
        # structural memos must be revalidated even with caching disabled.
        self._seen_structure = view.structure_generation

    # -- generation-stamped cache plumbing --------------------------------------

    def _view_stamp(self) -> tuple[int, float]:
        """The freshness token cached answers are valid for.

        The collector-bumped generation is the primary stamp; the newest
        metric timestamp (O(1)) rides along so a hand-mutated view that
        records newer samples without bumping generations is still noticed.
        A sample recorded by hand at or before the newest timestamp with no
        bump is not: the price memo trusts this stamp alone and serves its
        old price until the stamp next moves (``docs/PERFORMANCE.md`` §2).
        """
        return (self.view.generation, self.view.metrics.latest_timestamp())

    def _refresh_caches(self, force: bool = False) -> None:
        """Synchronise caches with the view's stamps.

        A metrics-only delta chain evicts just the touched entries.
        Anything the journal cannot vouch for — a structural delta, a gap,
        a hand bump, a rebind — drops every dynamic cache as before.  The
        price memo is exact for one stamp only and is dropped either way.
        """
        stamp = self._view_stamp()
        if not force and stamp == self._cache_stamp:
            return
        self._prices = {}
        chain = None
        if not force and stamp[0] != self._cache_stamp[0]:
            chain = self.view.deltas_since(self._cache_stamp[0])
        if chain is not None and not any(delta.is_structural for delta in chain):
            self._cache_stamp = stamp
            self._evict_touched(chain)
            return
        self.sync_structure()
        if chain is not None:
            cause = "structural"
        else:
            cause = "rebind" if force else "generation"
        if self._bandwidth_cache or self._cpu_cache or self._graph_cache:
            self.stats.invalidated()
            obs.inc(
                "remos_cache_invalidations_by_cause_total",
                help="Cache-dropping events by cause",
                cause=cause,
            )
            if _log.enabled_for("debug"):
                _log.debug(
                    "cache_invalidated",
                    old_stamp=self._cache_stamp,
                    new_stamp=stamp,
                    cause=cause,
                    entries=len(self._bandwidth_cache)
                    + len(self._cpu_cache)
                    + len(self._graph_cache),
                )
        self._bandwidth_cache.clear()
        self._cpu_cache.clear()
        self._graph_cache.clear()
        self._cache_stamp = stamp

    def _evict_touched(self, chain) -> None:
        """Evict exactly the cache entries a metrics-only chain invalidated."""
        touched: set[tuple[str, str]] = set()
        for delta in chain:
            touched |= delta.touched
        cpu_hosts = {src for link, src in touched if link == CPU_PSEUDO_LINK}
        directions = {key for key in touched if key[0] != CPU_PSEUDO_LINK}
        link_names = {link for link, _ in directions}
        evicted = 0
        if directions:
            for key in [
                key
                for key in self._bandwidth_cache
                if (key[0][0], key[0][1]) in directions
            ]:
                del self._bandwidth_cache[key]
                evicted += 1
            for key in [
                key
                for key, entry in self._graph_cache.items()
                if entry.link_names & link_names
            ]:
                del self._graph_cache[key]
                evicted += 1
        if cpu_hosts:
            for key in [key for key in self._cpu_cache if key[0] in cpu_hosts]:
                del self._cpu_cache[key]
                evicted += 1
        self.stats.partially_invalidated(evicted)
        obs.inc(
            "remos_cache_invalidations_by_cause_total",
            help="Cache-dropping events by cause",
            cause="partial",
        )
        obs.inc(
            "remos_cache_entries_evicted_total",
            evicted,
            help="Cache entries evicted by delta-driven partial invalidations",
        )
        if _log.enabled_for("debug"):
            _log.debug(
                "cache_partially_invalidated",
                touched=len(touched),
                evicted=evicted,
                deltas=len(chain),
            )

    def sync_structure(self) -> None:
        """Revalidate routing after an in-place structure change.

        Collectors since the incremental rework mutate the view's topology
        **in place** (same view object, new ``structure_generation``), so
        the rebind path never sees them; every routing-dependent entry
        point calls this instead.  O(1) while the structure level is
        unchanged.  The routing table is kept when the rebuilt topology is
        structurally identical (rebased onto the new object), else rebuilt,
        dropping the route-resource memo with it.
        """
        if self.view.structure_generation == self._seen_structure:
            return
        if not self.routing.is_valid_for(self.view.topology):
            self._replace_routing(self.view.topology)
        elif self.routing.topology is not self.view.topology:
            self.routing.rebase(self.view.topology)
        self._sync_collapse()
        self._seen_structure = self.view.structure_generation

    def _replace_routing(self, topology) -> None:
        """New routes: drop everything keyed on the old ones."""
        self.routing = RoutingTable(topology)
        self.stats.routing_rebuilds += 1
        self._route_resources.clear()
        self._snaparrays = None

    def _sync_collapse(self) -> None:
        """Keep or drop the collapse tree after a (possible) structure change."""
        self._no_hierarchy = None
        if self._collapse is None:
            return
        if not self._collapse.is_valid_for(self.view.topology):
            self._collapse = None
        elif self._collapse.topology is not self.view.topology:
            self._collapse.rebase(self.view.topology)

    def _validate_entry(
        self,
        entry: _Entry,
        link_name: str,
        from_node: str,
        timeframe: Timeframe,
        now: float,
    ) -> StatMeasure | None:
        """The cached measure if still exact at *now*, else None.

        Exactness needs two things: the backing series has not grown
        (version stamp), and — when the evaluation time moved without the
        series growing, i.e. some *other* resource was swept — this entry's
        summary window did not shift over any retained sample.  A validated
        entry is restamped to *now*, keeping later checks O(1).
        """
        if entry.version != self.view.metrics.version(link_name, from_node):
            return None
        if now != entry.now_used:
            if not self._window_unmoved(
                link_name, from_node, timeframe, entry.now_used, now
            ):
                return None
            entry.now_used = now
        return entry.measure

    def _window_unmoved(
        self,
        link_name: str,
        from_node: str,
        timeframe: Timeframe,
        now_used: float,
        now: float,
    ) -> bool:
        """True when moving evaluation time ``now_used -> now`` provably
        leaves the *unchanged* series' summary for *timeframe* intact.

        FUTURE predictions are anchored at "now", so they never survive a
        time shift — the evaluation clock advancing (any series swept)
        moves the forecast interval, and the cached measure must be
        recomputed even though this series gained no samples.  CURRENT and
        HISTORY answers depend only on the latest value (unchanged by
        assumption) and a trailing window's contents; the window's width
        is fixed given the series (CURRENT's accuracy window is
        ``current_window_width`` for every series, CPU included, since the
        accuracy-unification), so the summary changes only if a sample
        ages out — i.e. some retained sample falls in
        ``[old floor, new floor)``.
        """
        kind = timeframe.kind
        if kind is TimeframeKind.STATIC:
            return True
        if kind is TimeframeKind.FUTURE:
            return False
        metrics = self.view.metrics
        if not metrics.has_series(link_name, from_node):
            return True  # assumed-idle constant; time-independent
        series = metrics.series(link_name, from_node)
        if series.empty:
            return True
        if kind is TimeframeKind.CURRENT:
            width = current_window_width(series)
        else:  # HISTORY
            width = timeframe.window
        return not series.has_sample_in(now_used - width, now - width)

    def rebind(self, view: NetworkView) -> None:
        """Adopt a refreshed collector view without rebuilding the world.

        The routing table survives whenever the topology is unchanged —
        the common case, since collectors mutate metrics in place between
        discovery sweeps — and all dynamic caches are dropped
        unconditionally (the new view object may carry an equal generation
        number yet different data).
        """
        if view is self.view:
            return
        with obs.span("modeler.refresh") as sp:
            rebuilt = not self.routing.is_valid_for(view.topology)
            if rebuilt:
                self._replace_routing(view.topology)
            elif self.routing.topology is not view.topology:
                # Structurally identical rebuild: keep the table, re-point
                # it so later validity checks are O(1) identity again.
                self.routing.rebase(view.topology)
            self.view = view
            self._sync_collapse()
            self._seen_structure = view.structure_generation
            self._refresh_caches(force=True)
            if sp:
                sp.set(generation=view.generation, routing_rebuilt=rebuilt)
        if _log.enabled_for("info"):
            _log.info(
                "view_rebound",
                generation=view.generation,
                routing_rebuilt=rebuilt,
                nodes=len(view.topology.nodes),
            )

    def fork(self, view: NetworkView) -> "Modeler":
        """A successor Modeler bound to *view*, inheriting warm caches.

        Snapshot publication calls this **writer-side**: the previous
        epoch's Modeler stays untouched (readers may still be traversing
        it) while the child adopts its memoised state against the freshly
        frozen *view*.  Semantics mirror :meth:`rebind` + the incremental
        eviction a first query used to perform, moved before publication:

        * the routing table (and the structural route-resource memo) is
          **shared** with the parent when the topology is structurally
          unchanged — rebased for the O(1) identity fast path — and rebuilt
          (counting ``stats.routing_rebuilds``) otherwise;
        * per-entry cache wrappers are **copied** (the immutable measures
          and graphs inside are shared): entry revalidation restamps
          ``now_used`` in place, and two epochs evaluate at different
          "now"s, so wrappers must never be shared across snapshots;
        * when *view*'s journal can vouch for the step as metrics-only,
          the copied caches are reconciled immediately (same partial
          eviction as before); otherwise the child starts cold, exactly
          like the legacy rebind;
        * the price memo is a per-epoch fact and starts empty: the first
          read of a resource revalidates its carried estimate once, and
          the child's stamp never moves again, so that price stands for
          the epoch.  The structural half of the array materialisation
          (interned keys, route rows) is shared with the routing table.

        Readers of the published child therefore only ever *fill* caches —
        no eviction, no restamping hazards — because a frozen view's stamp
        never moves again.
        """
        child = Modeler.__new__(Modeler)
        child.view = view
        child.stats = self.stats
        child.enable_cache = self.enable_cache
        # Fresh per-epoch evaluator sharing the parent's Backtester, so
        # forecast accuracy keeps accruing across snapshot publications.
        child.evaluator = self.evaluator.fork()
        child._prices = {}
        child._epoch_lock = threading.Lock()
        child._snaparrays = None
        if self.routing.is_valid_for(view.topology):
            child.routing = self.routing
            if self.routing.topology is not view.topology:
                self.routing.rebase(view.topology)
            # Shared on purpose: purely structural, identical for both
            # epochs, and concurrent fills insert identical tuples.
            child._route_resources = self._route_resources
            arrays = self._snaparrays  # one read: a reader may be creating it
            if arrays is not None:
                child._snaparrays = arrays.fork(child)
        else:
            child.routing = RoutingTable(view.topology)
            self.stats.routing_rebuilds += 1
            child._route_resources = {}
        # The collapse tree is likewise shared when still valid: immutable
        # per-epoch state apart from the rebase pointer swap, so readers of
        # both epochs can traverse it concurrently.
        child._collapse = None
        child._no_hierarchy = None
        # Carried so the flat-fallback warning stays one-time across epochs
        # of the same structure.
        child._slow_path_warned = self._slow_path_warned
        if self._collapse is not None and self._collapse.is_valid_for(view.topology):
            if self._collapse.topology is not view.topology:
                self._collapse.rebase(view.topology)
            child._collapse = self._collapse
        child._seen_structure = view.structure_generation
        child._cache_stamp = self._cache_stamp

        stamp = (view.generation, view.metrics.latest_timestamp())
        carry = self.enable_cache and stamp == self._cache_stamp
        chain = None
        if self.enable_cache and not carry and stamp[0] != self._cache_stamp[0]:
            chain = view.deltas_since(self._cache_stamp[0])
            carry = chain is not None and not any(d.is_structural for d in chain)
        if carry:
            # Readers of this (still published) epoch keep filling these
            # dicts while the writer forks.  dict.copy() is one C call;
            # list(items()) allocates per item, and any allocation can start
            # a collection whose finalizers yield the GIL mid-iteration.
            child._bandwidth_cache = {
                key: _Entry(entry.version, entry.now_used, entry.measure)
                for key, entry in self._bandwidth_cache.copy().items()
            }
            child._cpu_cache = {
                key: _Entry(entry.version, entry.now_used, entry.measure)
                for key, entry in self._cpu_cache.copy().items()
            }
            child._graph_cache = {
                key: _GraphEntry(entry.graph, entry.link_names, entry.now_used)
                for key, entry in self._graph_cache.copy().items()
            }
            # Reconcile against the frozen stamps now, so the partial
            # eviction (and its stats) happens before publication.
            child._refresh_caches()
        else:
            child._bandwidth_cache = {}
            child._cpu_cache = {}
            child._graph_cache = {}
            child._cache_stamp = stamp
            if self._bandwidth_cache or self._cpu_cache or self._graph_cache:
                cause = "structural" if chain is not None else "generation"
                self.stats.invalidated()
                obs.inc(
                    "remos_cache_invalidations_by_cause_total",
                    help="Cache-dropping events by cause",
                    cause=cause,
                )
        return child

    @property
    def now(self) -> float:
        """Query-evaluation time: the newest timestamp the metrics contain.

        The Modeler is passive — it cannot read the simulation clock (a
        real Modeler has no oracle either); "now" is the time of the most
        recent measurement.  O(1): the MetricsStore tracks it incrementally.
        """
        return self.view.metrics.latest_timestamp()

    # -- availability estimation ------------------------------------------------

    def used_bandwidth(
        self, direction: LinkDirection, timeframe: Timeframe
    ) -> StatMeasure:
        """Externally used bandwidth on a link direction for a timeframe."""
        return self._used_bandwidth(direction, timeframe, None)

    def _used_bandwidth(
        self, direction: LinkDirection, timeframe: Timeframe, now: float | None
    ) -> StatMeasure:
        """Memoised estimate; *now* is hoisted by per-sweep callers."""
        if timeframe.kind is TimeframeKind.STATIC:
            return StatMeasure.constant(0.0)
        link_name, from_node = direction.link.name, direction.src
        if self.enable_cache:
            self._refresh_caches()
            if now is None:
                now = self.now
            key = (direction.key, timeframe)
            entry = self._bandwidth_cache.get(key)
            if entry is not None:
                measure = self._validate_entry(
                    entry, link_name, from_node, timeframe, now
                )
                if measure is not None:
                    self.stats.hit("bandwidth")
                    return measure
            self.stats.miss("bandwidth")
        measure = self._compute_used_bandwidth(direction, timeframe, now)
        if self.enable_cache:
            self._bandwidth_cache[(direction.key, timeframe)] = _Entry(
                self.view.metrics.version(link_name, from_node), now, measure
            )
        return measure

    def _compute_used_bandwidth(
        self, direction: LinkDirection, timeframe: Timeframe, now: float | None
    ) -> StatMeasure:
        """Delegate to the shared evaluator (see :mod:`repro.core.evaluator`)."""
        metrics = self.view.metrics
        link_name, from_node = direction.link.name, direction.src
        series = (
            metrics.series(link_name, from_node)
            if metrics.has_series(link_name, from_node)
            else None
        )
        if now is None:
            now = self.now
        return self.evaluator.evaluate((link_name, from_node), series, timeframe, now)

    def available_bandwidth(
        self, direction: LinkDirection, timeframe: Timeframe
    ) -> StatMeasure:
        """Capacity minus external use, as a quartile measure."""
        return self._available_bandwidth(direction, timeframe, None)

    def _available_bandwidth(
        self, direction: LinkDirection, timeframe: Timeframe, now: float | None
    ) -> StatMeasure:
        """The direction's price for this stamp: computed once, then read."""
        return self._priced(direction.key, timeframe, direction, now)

    def resource_price(self, key: Hashable, timeframe: Timeframe) -> StatMeasure:
        """What the allocation resource *key* offers for *timeframe*.

        A link direction offers its available bandwidth; a finite node
        crossbar its static internal bandwidth, as a constant (SNMP exposes
        no crossbar utilization).  Raises :class:`KeyError` for anything
        else — infinite crossbars and unknown resources constrain nothing.
        """
        return self._priced(key, timeframe)

    def _priced(
        self, key: Hashable, timeframe: Timeframe, direction=None, now=None
    ) -> StatMeasure:
        """The one memo read: *key*'s slot, filled on first use (callers
        already holding the key's *direction* and a hoisted *now* pass them)."""
        measures = self._price_table(timeframe)
        price = measures.get(key)
        if price is None:
            price = measures[key] = self._price(key, timeframe, direction, now)
        elif len(key) == 3 and timeframe.kind is not TimeframeKind.STATIC:
            # A direction's price stood in for a series summary; a STATIC
            # read or a crossbar's constant never did.
            self.stats.hit("bandwidth")
        return price

    def _price_table(self, timeframe: Timeframe) -> dict[Hashable, StatMeasure]:
        """The current stamp's prices for *timeframe*, by resource key.

        Lock-free on a hit; creation (and eviction of the oldest table
        beyond ``_MAX_PRICED_TIMEFRAMES``) is serialised.  Only a live view
        pays the stamp check: a frozen view's stamp can never move.  With
        caching disabled every call gets a throwaway table.
        """
        if not self.enable_cache:
            return {}
        if not self.view.frozen:
            self._refresh_caches()
        measures = self._prices.get(timeframe)
        if measures is None:
            with self._epoch_lock:
                prices = self._prices
                measures = prices.get(timeframe)
                if measures is None:
                    if len(prices) >= _MAX_PRICED_TIMEFRAMES:
                        del prices[next(iter(prices))]
                    measures = prices[timeframe] = {}
        return measures

    def _price(self, key: Hashable, timeframe: Timeframe, direction, now) -> StatMeasure:
        """One slot's value: for a direction, one validation + one complement."""
        if direction is None:
            topology = self.view.topology
            try:
                if isinstance(key, tuple) and len(key) == 2 and key[0] == "xbar":
                    bandwidth = topology.node(key[1]).internal_bandwidth
                    if bandwidth == float("inf"):
                        raise KeyError(key)
                    return StatMeasure.constant(bandwidth)
                link_name, src, dst = key  # type: ignore[misc]
                direction = topology.link(link_name).direction(src, dst)
            except (TopologyError, TypeError, ValueError):
                raise KeyError(key) from None
        used = self._used_bandwidth(direction, timeframe, now)
        return used.complement_of(direction.capacity)

    def cpu_load(self, host: str, timeframe: Timeframe) -> StatMeasure:
        """CPU utilization (0..1) of a host for a timeframe.

        The paper's "simple interface to computation resources" (§2):
        managed hosts report busy-time counters; unmonitored hosts are
        assumed idle with low accuracy, like unmeasured links.
        """
        node = self.view.topology.node(host)
        if not node.is_compute:
            raise QueryError(f"cpu_load is only defined for compute nodes, not {host!r}")
        if timeframe.kind is TimeframeKind.STATIC:
            return StatMeasure.constant(0.0)
        if self.enable_cache:
            self._refresh_caches()
            now = self.now
            key = (host, timeframe)
            entry = self._cpu_cache.get(key)
            if entry is not None:
                measure = self._validate_entry(
                    entry, CPU_PSEUDO_LINK, host, timeframe, now
                )
                if measure is not None:
                    self.stats.hit("cpu")
                    return measure
            self.stats.miss("cpu")
        measure = self._compute_cpu_load(host, timeframe)
        if self.enable_cache:
            self._cpu_cache[(host, timeframe)] = _Entry(
                self.view.metrics.version(CPU_PSEUDO_LINK, host), self.now, measure
            )
        return measure

    def _compute_cpu_load(self, host: str, timeframe: Timeframe) -> StatMeasure:
        """Delegate to the shared evaluator: CPU series ride the same
        ladder as bandwidth (including the unified CURRENT accuracy rule
        and the forecast plane) under the CPU pseudo-link key."""
        metrics = self.view.metrics
        series = metrics.cpu_series(host) if metrics.has_cpu_series(host) else None
        return self.evaluator.evaluate(
            (CPU_PSEUDO_LINK, host), series, timeframe, self.now
        )

    def available_capacities(
        self, timeframe: Timeframe, quantile: str = "median"
    ) -> dict[Hashable, float]:
        """Scalar capacities of every resource in the network, eagerly.

        Directed links contribute their available bandwidth at *quantile*
        (``"minimum"``/``"q1"``/``"median"``/``"q3"``/``"maximum"``/
        ``"mean"``); finite node crossbars contribute their static internal
        bandwidth.  Queries read only what their flows cross, through
        :meth:`resource_price`; this whole-world form is the oracle tests and
        benchmarks compare those reads against.
        """
        now = self.now  # one evaluation time for the whole sweep
        capacities: dict[Hashable, float] = {}
        for direction in self.view.topology.iter_directions():
            available = self._available_bandwidth(direction, timeframe, now)
            capacities[direction.key] = getattr(available, quantile)
        for node in self.view.topology.nodes:
            if node.internal_bandwidth != float("inf"):
                capacities[("xbar", node.name)] = node.internal_bandwidth
        return capacities

    def capacity_view(self, timeframe: Timeframe, quantile: str = "median") -> "CapacityView":
        """A lazy view of :meth:`available_capacities` for one quantile.

        The dict-like form of :meth:`resource_price`: it prices exactly
        the keys it is asked for, on demand — values bit-identical to the
        eager whole-network dict — so a caller's cost scales with what it
        reads, not with the network (see ``docs/TOPOLOGIES.md``).
        """
        return CapacityView(self, timeframe, quantile)

    def snapshot_arrays(self):
        """This modeler's :class:`~repro.core.snaparrays.SnapshotArrays`.

        Lazily built (numpy paths only); a published snapshot's modeler
        keeps one for its lifetime, shared by all reader threads.
        """
        from repro.core.snaparrays import SnapshotArrays

        self.sync_structure()
        arrays = self._snaparrays
        if arrays is None:
            # Readers of one epoch must agree on one keyspace and fill lock.
            with self._epoch_lock:
                arrays = self._snaparrays
                if arrays is None:
                    arrays = self._snaparrays = SnapshotArrays(self)
        return arrays

    def resources_for_route(self, src: str, dst: str) -> tuple[Hashable, ...]:
        """Resource keys a flow from *src* to *dst* consumes (memoised)."""
        self.sync_structure()
        key = (src, dst)
        cached = self._route_resources.get(key)
        if cached is not None:
            return cached
        route = self.routing.route(src, dst)
        resources: list[Hashable] = [hop.key for hop in route.hops]
        for name in route.node_sequence:
            if self.view.topology.node(name).internal_bandwidth != float("inf"):
                resources.append(("xbar", name))
        result = tuple(resources)
        self._route_resources[key] = result
        return result

    def resources_for_tree(self, src: str, dsts: list[str]) -> tuple[Hashable, ...]:
        """Resource keys a multicast flow consumes: each tree link once."""
        self.sync_structure()
        tree = self.routing.multicast_tree(src, list(dsts))
        resources: list[Hashable] = [hop.key for hop in tree.hops]
        for name in tree.nodes:
            if self.view.topology.node(name).internal_bandwidth != float("inf"):
                resources.append(("xbar", name))
        return tuple(resources)

    # -- logical topology ----------------------------------------------------------

    def collapse_tree(self) -> CollapseTree:
        """The hierarchical collapse tree for the current structure.

        Built lazily from the topology's attached hierarchy (or one
        inferred from its shape), kept across metrics-only sweeps and
        shared across snapshot epochs like the routing table.  Raises
        :class:`TopologyError` when the topology is not hierarchical; the
        failure is memoised per structure level so repeated auto-mode
        queries pay the inference attempt once.
        """
        self.sync_structure()
        if self._collapse is not None:
            return self._collapse
        structure = self.view.structure_generation
        if self._no_hierarchy is not None and self._no_hierarchy[0] == structure:
            _, reason, message = self._no_hierarchy
            raise HierarchyRefusal(message, reason)
        topology = self.view.topology
        try:
            hierarchy = topology.hierarchy or Hierarchy.infer(topology)
            tree = CollapseTree(topology, hierarchy)
        except TopologyError as exc:
            # Memoise the *reason* alongside the message: plain
            # TopologyErrors (e.g. CollapseTree validation) degrade to the
            # catch-all code so the re-raise is always a HierarchyRefusal.
            reason = getattr(exc, "reason", "not-hierarchical")
            self._no_hierarchy = (structure, reason, str(exc))
            raise
        self._collapse = tree
        return tree

    def _note_slow_path(self, node_count: int, exc: TopologyError) -> None:
        """Record an auto-mode graph query falling back to the flat path.

        Counts every fallback query (``remos_graph_slow_path_total``,
        labelled by refusal reason) and emits one structured warning per
        topology structure — the "whole-network get_graph went flat"
        regression used to be silent (ROADMAP "Known soft spot").
        """
        reason = getattr(exc, "reason", "not-hierarchical")
        obs.inc(
            "remos_graph_slow_path_total",
            help="Whole-network graph queries answered on the flat (non-hierarchical) slow path",
            reason=reason,
        )
        structure = self.view.structure_generation
        if self._slow_path_warned == structure:
            return
        self._slow_path_warned = structure
        if _log.enabled_for("warning"):
            _log.warning(
                "graph_slow_path",
                nodes=node_count,
                reason=reason,
                detail=str(exc),
                structure_generation=structure,
            )

    def logical_graph(
        self,
        nodes: list[str],
        timeframe: Timeframe,
        collapse: str = "auto",
        include: tuple[str, ...] = (),
    ) -> RemosGraph:
        """Build the pruned + collapsed logical topology for *nodes*.

        The flat path (the original algorithm):

        1. keep only nodes/links on routes among the queried nodes;
        2. collapse chains through degree-2 network nodes into single
           logical links (capacity = min, latency = sum, availability =
           element-wise min along the chain);
        3. annotate everything for *timeframe*.

        The hierarchical path rolls whole switch groups up into aggregate
        nodes via the collapse tree instead (see
        :meth:`_compute_hier_graph`).  *collapse* selects between them:
        ``"flat"`` / ``"hier"`` force a path (``"hier"`` raises
        :class:`QueryError` on non-hierarchical topologies); ``"auto"``
        (default) uses the hierarchy only above
        ``AUTO_COLLAPSE_THRESHOLD`` queried nodes, so small queries keep
        their byte-identical flat answers.

        *include* lists extra nodes (any kind — the federation layer
        passes border gateways) routed into the flat graph as anchors
        without appearing in ``query_nodes``.  Only the flat path
        composes this way, so ``include`` requires ``collapse="flat"``.
        """
        if collapse not in ("auto", "flat", "hier"):
            raise QueryError(f"unknown collapse mode {collapse!r}")
        include = tuple(include)
        if include and collapse != "flat":
            raise QueryError("include nodes require collapse='flat'")
        self.sync_structure()
        topology = self.view.topology
        for name in nodes:
            if not topology.has_node(name):
                raise QueryError(f"unknown node {name!r} in get_graph query")
            if not topology.node(name).is_compute:
                raise QueryError(f"get_graph nodes must be compute nodes; {name!r} is not")
        for name in include:
            if not topology.has_node(name):
                raise QueryError(f"unknown include node {name!r} in get_graph query")
        if not nodes:
            raise QueryError("get_graph requires at least one node")
        mode = "flat"
        if collapse == "hier":
            try:
                self.collapse_tree()
            except TopologyError as exc:
                raise QueryError(f"hierarchical collapse unavailable: {exc}") from None
            mode = "hier"
        elif collapse == "auto" and len(nodes) > AUTO_COLLAPSE_THRESHOLD:
            try:
                self.collapse_tree()
                mode = "hier"
            except TopologyError as exc:
                mode = "flat"
                self._note_slow_path(len(nodes), exc)

        # Memoised per (generation, sorted nodes, timeframe, mode).  The
        # query order is part of the answer (RemosGraph.query_nodes), so a
        # hit is only served when the order matches too; callers must treat
        # the returned graph as read-only.  Partial invalidation already
        # evicted graphs over touched links; a hit whose evaluation time
        # moved (other resources swept) must still prove each annotated
        # direction's window did not shift.
        if self.enable_cache:
            self._refresh_caches()
            now = self.now
            key = (tuple(sorted(nodes)), timeframe, mode, include)
            entry = self._graph_cache.get(key)
            if entry is not None and entry.graph.query_nodes == list(nodes):
                if self._validate_graph(entry, timeframe, now):
                    self.stats.hit("graph")
                    return entry.graph
            self.stats.miss("graph")
        if mode == "hier":
            graph = self._compute_hier_graph(nodes, timeframe)
        else:
            graph = self._compute_logical_graph(nodes, timeframe, include)
        if self.enable_cache:
            link_names = frozenset(
                name for edge in graph.edges for name in edge.physical_links
            )
            self._graph_cache[
                (tuple(sorted(nodes)), timeframe, mode, include)
            ] = _GraphEntry(graph, link_names, self.now)
        return graph

    def _validate_graph(
        self, entry: _GraphEntry, timeframe: Timeframe, now: float
    ) -> bool:
        """True while the cached graph's annotations are exact at *now*."""
        if now == entry.now_used:
            return True
        topology = self.view.topology
        for name in entry.link_names:
            link = topology.link(name)
            for src in (link.a, link.b):
                if not self._window_unmoved(
                    name, src, timeframe, entry.now_used, now
                ):
                    return False
        entry.now_used = now
        return True

    def _compute_logical_graph(
        self, nodes: list[str], timeframe: Timeframe, include: tuple[str, ...] = ()
    ) -> RemosGraph:
        topology = self.view.topology
        now = self.now  # one evaluation time for the whole graph

        # Step 1: union of routing paths.  ``include`` nodes participate in
        # the route union and stay visible as anchors, but are not query
        # nodes of the result.
        route_nodes = list(nodes) + [n for n in include if n not in nodes]
        anchor_names = set(route_nodes)
        keep_nodes: set[str] = set(route_nodes)
        keep_links: set[str] = set()
        for i, src in enumerate(route_nodes):
            for dst in route_nodes[i + 1:]:
                route = self.routing.route(src, dst)
                keep_nodes.update(route.node_sequence)
                keep_links.update(link.name for link in route.links)

        # Chains as link-name paths between "anchor" nodes.  Anchors are the
        # queried nodes, compute nodes, and network nodes with degree != 2
        # within the pruned subgraph.
        adjacency: dict[str, list[str]] = {name: [] for name in keep_nodes}
        for link_name in keep_links:
            link = topology.link(link_name)
            adjacency[link.a].append(link_name)
            adjacency[link.b].append(link_name)

        def is_anchor(name: str) -> bool:
            node = topology.node(name)
            if name in anchor_names or node.is_compute:
                return True
            if node.internal_bandwidth != float("inf"):
                return True  # finite crossbars must stay visible
            # First-hop routers (serving a kept host directly) stay: the
            # host's access link is behaviour the application observes.
            for link_name in adjacency[name]:
                if topology.node(topology.link(link_name).other(name)).is_compute:
                    return True
            return len(adjacency[name]) != 2

        graph = RemosGraph(list(nodes))
        for name in sorted(keep_nodes):
            if is_anchor(name):
                node = topology.node(name)
                graph.add_node(
                    RemosNode(
                        name=name,
                        kind=node.kind,
                        internal_bandwidth=node.internal_bandwidth,
                        compute_speed=node.compute_speed,
                        memory_bytes=node.memory_bytes,
                    )
                )

        # Step 2: walk chains anchor -> anchor, collapsing pass-through
        # network nodes.
        visited_links: set[str] = set()
        for start in sorted(keep_nodes):
            if not is_anchor(start):
                continue
            for first_link_name in adjacency[start]:
                if first_link_name in visited_links:
                    continue
                chain_links: list[str] = []
                chain_nodes: list[str] = [start]
                current = start
                link_name = first_link_name
                while True:
                    chain_links.append(link_name)
                    link = topology.link(link_name)
                    current = link.other(current)
                    chain_nodes.append(current)
                    if is_anchor(current):
                        break
                    next_links = [l for l in adjacency[current] if l != link_name]
                    assert len(next_links) == 1  # degree-2 non-anchor
                    link_name = next_links[0]
                visited_links.update(chain_links)
                self._add_logical_edge(graph, chain_nodes, chain_links, timeframe, now)
        return graph

    def _add_logical_edge(
        self,
        graph: RemosGraph,
        chain_nodes: list[str],
        chain_links: list[str],
        timeframe: Timeframe,
        now: float | None = None,
    ) -> None:
        topology = self.view.topology
        start, end = chain_nodes[0], chain_nodes[-1]
        links = [topology.link(name) for name in chain_links]
        capacity = min(link.capacity for link in links)
        latency = sum(link.latency for link in links)
        # Availability per direction: element-wise min along the chain.
        available: dict[str, StatMeasure] = {}
        for chain in (chain_nodes, list(reversed(chain_nodes))):
            measure: StatMeasure | None = None
            for a, b in zip(chain, chain[1:]):
                link = next(
                    l for l in links if {l.a, l.b} == {a, b}
                )
                direction = link.direction(a, b)
                step = self._available_bandwidth(direction, timeframe, now)
                measure = step if measure is None else StatMeasure.min_of(measure, step)
            assert measure is not None
            available[chain[0]] = measure
        name = chain_links[0] if len(chain_links) == 1 else f"{start}~{end}"
        if len(chain_links) > 1 and any(e.name == name for e in graph.edges):
            name = f"{name}~{len(graph.edges)}"  # parallel collapsed chains
        graph.add_edge(
            RemosEdge(
                name=name,
                a=start,
                b=end,
                capacity=capacity,
                latency=latency,
                available=available,
                physical_links=tuple(chain_links),
            )
        )

    def _compute_hier_graph(
        self, nodes: list[str], timeframe: Timeframe
    ) -> RemosGraph:
        """The multi-resolution logical graph driven by the collapse tree.

        Queried hosts and their ToR groups appear exactly; above them only
        the groups up to the queried set's lowest common ancestor appear,
        each as one node (the member switch itself for singleton groups,
        an ``agg:<group>`` aggregate otherwise) joined by bundle edges
        (capacity = sum of member links, latency = min, availability =
        element-wise min over member directions — the conservative
        single-flow roll-up).  Cost is O(queried hosts + bundle members on
        their ancestor paths), independent of total host count.
        """
        tree = self.collapse_tree()
        hierarchy = tree.hierarchy
        topology = self.view.topology
        now = self.now
        by_tor: dict[str, list[str]] = {}
        for name in nodes:
            gid = hierarchy.host_group.get(name)
            if gid is None:  # pragma: no cover - collapse_tree places all hosts
                raise QueryError(f"host {name!r} is not placed in the hierarchy")
            by_tor.setdefault(gid, []).append(name)
        # Groups to expand: each queried ToR's ancestor chain, truncated at
        # the first level every chain shares (the LCA).  A single-ToR query
        # therefore shows just that ToR; a cross-pod query shows the pods
        # and the core.
        paths = [hierarchy.path_from(gid) for gid in sorted(by_tor)]
        if len(paths) == 1:
            cut = 0
        else:
            cut = next(
                i for i in range(len(paths[0])) if len({p[i] for p in paths}) == 1
            )
        included: list[str] = []
        seen: set[str] = set()
        for path in paths:
            for gid in path[: cut + 1]:
                if gid not in seen:
                    seen.add(gid)
                    included.append(gid)
        graph = RemosGraph(list(nodes))
        graph.collapse = "hier"
        for name in sorted(set(nodes)):
            node = topology.node(name)
            graph.add_node(
                RemosNode(
                    name=name,
                    kind=node.kind,
                    internal_bandwidth=node.internal_bandwidth,
                    compute_speed=node.compute_speed,
                    memory_bytes=node.memory_bytes,
                )
            )
        node_names: dict[str, str] = {}
        for gid in included:
            group = hierarchy.groups[gid]
            label = tree.node_name(gid)
            node_names[gid] = label
            if len(group.members) == 1:
                member = topology.node(group.members[0])
                graph.add_node(
                    RemosNode(
                        name=label,
                        kind=member.kind,
                        internal_bandwidth=member.internal_bandwidth,
                        compute_speed=member.compute_speed,
                        memory_bytes=member.memory_bytes,
                    )
                )
            else:
                # Parallel crossbars sum (any infinite member keeps it inf).
                internal = sum(
                    topology.node(m).internal_bandwidth for m in group.members
                )
                graph.add_node(
                    RemosNode(
                        name=label,
                        kind=NodeKind.NETWORK,
                        internal_bandwidth=internal,
                        aggregate=True,
                        member_count=len(group.members),
                    )
                )
        # Access links stay physical: exact names, capacities, availability.
        for gid in sorted(by_tor):
            tor_label = node_names[gid]
            for host in sorted(set(by_tor[gid])):
                access = tree.access[host]
                for link_name in access.links:
                    link = topology.link(link_name)
                    outbound = link.direction(host, access.switch)
                    inbound = link.direction(access.switch, host)
                    graph.add_edge(
                        RemosEdge(
                            name=link_name,
                            a=host,
                            b=tor_label,
                            capacity=link.capacity,
                            latency=link.latency,
                            available={
                                host: self._available_bandwidth(
                                    outbound, timeframe, now
                                ),
                                tor_label: self._available_bandwidth(
                                    inbound, timeframe, now
                                ),
                            },
                            physical_links=(link_name,),
                        )
                    )
        for gid in included:
            parent = hierarchy.groups[gid].parent
            if parent is None or parent not in node_names:
                continue
            self._add_bundle_edge(graph, tree, gid, parent, node_names, timeframe, now)
        return graph

    def _add_bundle_edge(
        self,
        graph: RemosGraph,
        tree: CollapseTree,
        child: str,
        parent: str,
        node_names: dict[str, str],
        timeframe: Timeframe,
        now: float,
    ) -> None:
        """One logical edge rolling up every physical link child -> parent."""
        topology = self.view.topology
        members = tree.bundles[(child, parent)]
        child_label, parent_label = node_names[child], node_names[parent]
        up: StatMeasure | None = None
        down: StatMeasure | None = None
        for link_name, child_end, parent_end in members:
            link = topology.link(link_name)
            u = self._available_bandwidth(
                link.direction(child_end, parent_end), timeframe, now
            )
            d = self._available_bandwidth(
                link.direction(parent_end, child_end), timeframe, now
            )
            up = u if up is None else StatMeasure.min_of(up, u)
            down = d if down is None else StatMeasure.min_of(down, d)
        assert up is not None and down is not None
        name = members[0][0] if len(members) == 1 else f"{child_label}~{parent_label}"
        graph.add_edge(
            RemosEdge(
                name=name,
                a=child_label,
                b=parent_label,
                capacity=tree.bundle_capacity[(child, parent)],
                latency=tree.bundle_latency[(child, parent)],
                available={child_label: up, parent_label: down},
                physical_links=tuple(member[0] for member in members),
            )
        )


class CapacityView:
    """Lazy stand-in for one ``available_capacities(timeframe, quantile)`` dict.

    Supports the dict read protocol (``in``, ``[]``, ``.get``): a quantile
    selector over the modeler's price memo, so every value served is
    bit-identical to the eager dict's entry for that key and six views
    over one timeframe price each resource once between them.  Absent keys
    stay absent: infinite crossbars are not materialised, and unknown
    resources miss exactly like a dict.
    """

    __slots__ = ("_modeler", "_timeframe", "_quantile")

    def __init__(self, modeler: Modeler, timeframe: Timeframe, quantile: str):
        self._modeler = modeler
        self._timeframe = timeframe
        self._quantile = quantile

    def __getitem__(self, key: Hashable) -> float:
        return getattr(self._modeler._priced(key, self._timeframe), self._quantile)

    def get(self, key: Hashable, default=None):
        """Dict-style lookup with a default, as ``admission_report`` uses."""
        try:
            return self[key]
        except KeyError:
            return default

    def __contains__(self, key: Hashable) -> bool:
        try:
            self._modeler._priced(key, self._timeframe)
            return True
        except KeyError:
            return False
