"""The Modeler: turns a collector's NetworkView into Remos answers.

"The primary tasks of the modeler are as follows: generating a logical
topology, associating appropriate static and dynamic information with each
of the network components, and satisfying flow requests based on the
logical topology" (§5).  This module implements the first two tasks; flow
satisfaction lives in :mod:`repro.core.api` on top of the availability
estimates produced here.

Estimates are memoised per **epoch** in one place, the **price memo**:
per timeframe, what each allocation resource offers (capacity minus
external use) for the view's freshness stamp ``(generation, latest metric
timestamp)``.  A resource is priced once per epoch — one series summary,
one ``complement_of`` — and every later read by any query path (array
evaluator, lazy capacity views, admission, the federation pin, graph
annotation) is a plain dict lookup.  CPU loads and priced graphs share
the same tables.  Nothing dynamic crosses epochs: a fork starts with an
empty memo and a Modeler over a live view drops its memo whenever the
stamp moves, so the collectors' sweeps alone decide how fresh an answer
is.

Logical graphs split the same way: a **graph plan** (the route union,
the anchors, the collapsed edges and the link directions each edge end
folds) depends only on routes and structure, so it is built once per
structure and shared by every epoch; pricing a plan reads each direction
once from the price memo and is memoised for the epoch alone.  The
staleness contract and the full performance model are documented in
``docs/PERFORMANCE.md``.
"""

from __future__ import annotations

import threading
from typing import Hashable, NamedTuple

from repro import obs
from repro.collector.base import NetworkView
from repro.collector.metrics import CPU_PSEUDO_LINK
from repro.core.cachestats import CacheStats
from repro.core.collapse import CollapseTree
from repro.core.evaluator import UNMEASURED_ACCURACY, TimeframeEvaluator
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

# Graph plans kept per structure; the oldest is dropped (and rebuilt on
# demand) beyond this.  A 16-host plan on a 64-host tree is a few KB.
_MAX_GRAPH_PLANS = 256

_log = obs.get_logger("repro.core.modeler")


class _PlanEdge(NamedTuple):
    """One logical edge of a graph plan, minus its availability.

    ``from_a`` / ``from_b`` are the ``(resource key, direction)`` pairs
    whose prices fold, element-wise min in this order, into the measure
    leaving ``a`` / ``b``: along the chain for a flat edge, over the
    members for a hierarchical bundle.
    """

    name: str
    a: str
    b: str
    capacity: float
    latency: float
    physical_links: tuple[str, ...]
    from_a: tuple[tuple[tuple, LinkDirection], ...]
    from_b: tuple[tuple[tuple, LinkDirection], ...]


class _GraphPlan(NamedTuple):
    """The structural half of one logical graph: everything but prices."""

    query_nodes: tuple[str, ...]
    collapse: str
    nodes: tuple[RemosNode, ...]
    edges: tuple[_PlanEdge, ...]


class _PlanMemo:
    """Graph plans by ``(ordered nodes, mode, include)`` for one structure.

    Shared by every epoch of that structure and read lock-free; a built
    plan is inserted whole under ``lock`` (the dict-of-immutables pattern,
    ``docs/CONCURRENCY.md``), the oldest dropped beyond ``_MAX_GRAPH_PLANS``.
    """

    __slots__ = ("lock", "plans")

    def __init__(self):
        self.lock = threading.Lock()
        self.plans: dict[tuple, _GraphPlan] = {}

    def keep(self, key: tuple, plan: _GraphPlan) -> _GraphPlan:
        """Insert *plan* unless a racing reader already did; return the kept one."""
        with self.lock:
            plans = self.plans
            kept = plans.get(key)
            if kept is None:
                if len(plans) >= _MAX_GRAPH_PLANS:
                    del plans[next(iter(plans))]
                kept = plans[key] = plan
        return kept


def _keyed(directions) -> tuple[tuple[tuple, LinkDirection], ...]:
    return tuple((direction.key, direction) for direction in directions)


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
        # The price memo, timeframe -> resource key -> what it offers: valid
        # for ``_cache_stamp`` only, so it is replaced wholesale whenever the
        # stamp moves and never carried across forks.  CPU loads and priced
        # logical graphs live in the same tables under ``("cpu", host)`` and
        # ``("graph", plan key)``, so they are dropped with the prices.
        self._prices: dict[Timeframe, dict[Hashable, StatMeasure]] = {}
        # Serialises creation of what an epoch's readers share: a
        # timeframe's price table, the snapshot arrays.
        self._epoch_lock = threading.Lock()
        # Route → resource-key memo; purely structural (routes + static
        # crossbar finiteness), so it outlives generations and is dropped
        # only when the routing table itself is replaced.
        self._route_resources: dict[tuple[str, str], tuple[Hashable, ...]] = {}
        # Graph plans: structural like the route memo, but they also freeze
        # node attributes the routing signature omits, so they are kept per
        # structure level rather than per routing table.
        self._graph_plans = _PlanMemo()
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

    # -- the per-epoch memo ------------------------------------------------------

    def _view_stamp(self) -> tuple[int, float]:
        """The freshness token cached answers are valid for.

        The collector-bumped generation is the primary stamp; the newest
        metric timestamp (O(1)) rides along so a hand-mutated view that
        records newer samples without bumping generations is still noticed.
        A sample recorded by hand at or before the newest timestamp with no
        bump is not: the memo trusts this stamp alone and serves its old
        price until the stamp next moves (``docs/PERFORMANCE.md`` §2).
        """
        return (self.view.generation, self.view.metrics.latest_timestamp())

    def _refresh_caches(self) -> None:
        """Drop the memo once the (live) view's stamp has moved."""
        stamp = self._view_stamp()
        if stamp == self._cache_stamp:
            return
        self._count_invalidation(self.view.structure_generation)
        self.sync_structure()
        self._prices = {}
        self._cache_stamp = stamp

    def _count_invalidation(self, structure: int) -> None:
        """Count one invalidation if this epoch's memo holds anything;
        *structure*, the next epoch's structure level, names the cause."""
        if not self._prices:
            return
        self.stats.invalidated()
        obs.inc(
            "remos_cache_invalidations_by_cause_total",
            help="Cache-dropping events by cause",
            cause="generation" if structure == self._seen_structure else "structural",
        )

    def sync_structure(self) -> None:
        """Revalidate routing after an in-place structure change.

        Collectors mutate the view's topology **in place** (same view
        object, new ``structure_generation``); every routing-dependent
        entry point calls this.  O(1) while the structure level is
        unchanged.  The routing table is kept when the rebuilt topology is
        structurally identical (rebased onto the new object), else rebuilt,
        dropping the route-resource memo with it.  Graph plans are dropped
        either way.
        """
        if self.view.structure_generation == self._seen_structure:
            return
        if not self.routing.is_valid_for(self.view.topology):
            self._replace_routing(self.view.topology)
        elif self.routing.topology is not self.view.topology:
            self.routing.rebase(self.view.topology)
        self._sync_graphs()
        self._seen_structure = self.view.structure_generation

    def _replace_routing(self, topology) -> None:
        """New routes: drop everything keyed on the old ones."""
        self.routing = RoutingTable(topology)
        self.stats.routing_rebuilds += 1
        self._route_resources.clear()
        self._snaparrays = None

    def _sync_graphs(self) -> None:
        """After a (possible) structure change: drop the graph plans (a
        fresh memo, so epochs still sharing the old one keep it) and keep
        or drop the collapse tree."""
        self._graph_plans = _PlanMemo()
        self._no_hierarchy = None
        if self._collapse is None:
            return
        if not self._collapse.is_valid_for(self.view.topology):
            self._collapse = None
        elif self._collapse.topology is not self.view.topology:
            self._collapse.rebase(self.view.topology)

    def fork(self, view: NetworkView) -> "Modeler":
        """A successor Modeler bound to *view*: shared structure, empty memo.

        Snapshot publication calls this **writer-side**: the previous
        epoch's Modeler stays untouched (readers may still be traversing
        it) while the child is assembled against the freshly frozen *view*.

        * the routing table (and the structural route-resource memo) is
          **shared** with the parent when the topology is structurally
          unchanged — rebased for the O(1) identity fast path — and rebuilt
          (counting ``stats.routing_rebuilds``) otherwise; the graph plans,
          the collapse tree and the structural half of the array
          materialisation (interned keys, route rows) are shared on the
          same terms, and the evaluator's Backtester always is;
        * every dynamic memo starts empty: the first read of a resource in
          the child's epoch prices it from the frozen series, and since a
          frozen view's stamp never moves, readers of the published child
          only ever *fill* its memo.
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
        # Graph plans carry exactly while the structure level, the routing
        # table and the collapse tree do.
        if (
            child.routing is self.routing
            and child._collapse is self._collapse
            and view.structure_generation == self._seen_structure
        ):
            child._graph_plans = self._graph_plans
        else:
            child._graph_plans = _PlanMemo()
        child._seen_structure = view.structure_generation
        child._cache_stamp = child._view_stamp()
        self._count_invalidation(view.structure_generation)
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
        """One series summary (a cache miss); *now* is hoisted by per-sweep
        callers.  Delegates to the shared evaluator (:mod:`repro.core.evaluator`)."""
        if timeframe.kind is TimeframeKind.STATIC:
            return StatMeasure.constant(0.0)
        if self.enable_cache:
            self.stats.miss("bandwidth")
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
        """One slot's value: for a direction, one summary + one complement."""
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
        # Memoised per epoch: node_info queries ask for the same hosts again
        # and again between two sweeps.
        measures = self._price_table(timeframe)
        key = (CPU_PSEUDO_LINK, host)
        load = measures.get(key)
        if load is not None:
            self.stats.hit("cpu")
            return load
        if self.enable_cache:
            self.stats.miss("cpu")
        metrics = self.view.metrics
        series = metrics.cpu_series(host) if metrics.has_cpu_series(host) else None
        load = self.evaluator.evaluate(key, series, timeframe, self.now)
        return measures.setdefault(key, load)

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

        Lazily built by the first array-evaluator query; a published
        snapshot's modeler keeps one for its lifetime, shared by all
        reader threads.
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
        """The pruned + collapsed logical topology for *nodes*.

        The flat path (the original algorithm):

        1. keep only nodes/links on routes among the queried nodes;
        2. collapse chains through degree-2 network nodes into single
           logical links (capacity = min, latency = sum, availability =
           element-wise min along the chain);
        3. annotate everything for *timeframe*.

        The hierarchical path rolls whole switch groups up into aggregate
        nodes via the collapse tree instead (see :meth:`_plan_hier`).
        *collapse* selects between them: ``"flat"`` / ``"hier"`` force a
        path (``"hier"`` raises :class:`QueryError` on non-hierarchical
        topologies); ``"auto"`` (default) uses the hierarchy only above
        ``AUTO_COLLAPSE_THRESHOLD`` queried nodes, so small queries keep
        their byte-identical flat answers.

        Steps 1–2 (or the roll-up) are the graph's *plan*, built once per
        ``(ordered nodes, mode, include)`` and structure level and shared
        by every epoch; step 3 prices the plan from this epoch's price
        memo, and the priced graph is memoised for the epoch — callers
        must treat it as read-only.  Edge order follows sorted names, so
        the answer never depends on the process's hash seed.

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

        # The node order is part of the key: it is part of the answer
        # (``query_nodes``) and decides which way each pair is routed.
        key = (tuple(nodes), mode, include)
        measures = self._price_table(timeframe)
        graph = measures.get(("graph", key))
        built = False
        if graph is not None:
            self.stats.hit("graph")
        else:
            if self.enable_cache:
                self.stats.miss("graph")
            plan, built = self._graph_plan(key)
            graph = self._price_plan(plan, timeframe, measures)
            graph = measures.setdefault(("graph", key), graph)
        sp = obs.current_span()
        if sp is not None and sp.attributes.get("plan") != "built":
            sp.set(plan="built" if built else "reused")
        return graph

    def _graph_plan(self, key: tuple) -> tuple[_GraphPlan, bool]:
        """``(plan, built)`` for *key*: the structure's memo, or a new build."""
        memo = self._graph_plans
        plan = memo.plans.get(key)
        if plan is not None:
            self.stats.hit("graph_plan")
            return plan, False
        self.stats.miss("graph_plan")
        nodes, mode, include = key
        plan = self._plan_hier(nodes) if mode == "hier" else self._plan_flat(nodes, include)
        return memo.keep(key, plan), True

    def _price_plan(
        self, plan: _GraphPlan, timeframe: Timeframe, measures: dict
    ) -> RemosGraph:
        """Annotate *plan* for *timeframe*: each direction read once from
        the price table *measures*, folded per edge end with
        ``StatMeasure.min_of``.  The reads are :meth:`_priced`'s, with the
        served ones counted as ``"bandwidth"`` hits once per graph.
        """
        now = self.now  # one evaluation time for the whole graph
        served = 0

        def fold(directions) -> StatMeasure:
            nonlocal served
            measure = None
            for key, direction in directions:
                step = measures.get(key)
                if step is None:
                    step = measures[key] = self._price(key, timeframe, direction, now)
                else:
                    served += 1
                measure = step if measure is None else StatMeasure.min_of(measure, step)
            return measure

        graph = RemosGraph(plan.query_nodes)
        graph.collapse = plan.collapse
        for node in plan.nodes:
            graph.add_node(node)
        for edge in plan.edges:
            graph.add_edge(
                RemosEdge(
                    name=edge.name,
                    a=edge.a,
                    b=edge.b,
                    capacity=edge.capacity,
                    latency=edge.latency,
                    available={edge.a: fold(edge.from_a), edge.b: fold(edge.from_b)},
                    physical_links=edge.physical_links,
                )
            )
        if served and timeframe.kind is not TimeframeKind.STATIC:
            self.stats.hit("bandwidth", served)
        return graph

    def _plan_flat(self, nodes: tuple[str, ...], include: tuple[str, ...]) -> _GraphPlan:
        """The flat plan: the route union pruned to anchors, chains collapsed."""
        topology = self.view.topology
        next_hop = self.routing.next_hop

        # Step 1: union of routing paths.  ``include`` nodes participate in
        # the route union and stay visible as anchors, but are not query
        # nodes of the result.  Routes forward on the destination, so the
        # routes into one destination form a tree: walk each earlier node
        # towards it and stop at the first node already on that tree.
        route_nodes = list(nodes) + [n for n in include if n not in nodes]
        endpoints = set(route_nodes)
        keep_nodes = set(endpoints)
        keep_links = {}
        for i, dst in enumerate(route_nodes):
            tree = {dst}
            for current in route_nodes[:i]:
                while current not in tree:
                    tree.add(current)
                    hop = next_hop(current, dst)
                    keep_links[hop.link.name] = hop.link
                    current = hop.dst
            keep_nodes |= tree

        # Chains as link paths between "anchor" nodes.  Anchors are the
        # queried nodes, compute nodes, and network nodes with degree != 2
        # within the pruned subgraph.  Sorted link names fix the edge order.
        adjacency: dict[str, list] = {name: [] for name in keep_nodes}
        for link_name in sorted(keep_links):
            link = keep_links[link_name]
            adjacency[link.a].append(link)
            adjacency[link.b].append(link)

        def is_anchor(name: str) -> bool:
            node = topology.node(name)
            if name in endpoints or node.is_compute:
                return True
            if node.internal_bandwidth != float("inf"):
                return True  # finite crossbars must stay visible
            # First-hop routers (serving a kept host directly) stay: the
            # host's access link is behaviour the application observes.
            for link in adjacency[name]:
                if topology.node(link.other(name)).is_compute:
                    return True
            return len(adjacency[name]) != 2

        anchors = [name for name in sorted(keep_nodes) if is_anchor(name)]
        anchor_set = set(anchors)
        plan_nodes = tuple(RemosNode.of(topology.node(name)) for name in anchors)

        # Step 2: walk chains anchor -> anchor, collapsing pass-through
        # network nodes.
        edges: list[_PlanEdge] = []
        names: set[str] = set()
        visited: set[str] = set()
        for start in anchors:
            for first in adjacency[start]:
                if first.name in visited:
                    continue
                links, forward = [], []
                current, link = start, first
                while True:
                    links.append(link)
                    visited.add(link.name)
                    step = link.other(current)
                    forward.append(link.direction(current, step))
                    current = step
                    if current in anchor_set:
                        break
                    (link,) = [l for l in adjacency[current] if l is not link]
                if len(links) == 1:
                    name = first.name
                else:
                    name = f"{start}~{current}"
                    if name in names:
                        name = f"{name}~{len(edges)}"  # parallel collapsed chains
                names.add(name)
                edges.append(
                    _PlanEdge(
                        name=name,
                        a=start,
                        b=current,
                        capacity=min(l.capacity for l in links),
                        latency=sum(l.latency for l in links),
                        physical_links=tuple(l.name for l in links),
                        from_a=_keyed(forward),
                        from_b=_keyed(d.reverse() for d in reversed(forward)),
                    )
                )
        return _GraphPlan(tuple(nodes), "flat", plan_nodes, tuple(edges))

    def _plan_hier(self, nodes: tuple[str, ...]) -> _GraphPlan:
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
        plan_nodes = [RemosNode.of(topology.node(name)) for name in sorted(set(nodes))]
        node_names: dict[str, str] = {}
        for gid in included:
            group = hierarchy.groups[gid]
            label = tree.node_name(gid)
            node_names[gid] = label
            if len(group.members) == 1:
                plan_nodes.append(RemosNode.of(topology.node(group.members[0]), label))
            else:
                # Parallel crossbars sum (any infinite member keeps it inf).
                internal = sum(
                    topology.node(m).internal_bandwidth for m in group.members
                )
                plan_nodes.append(
                    RemosNode(
                        name=label,
                        kind=NodeKind.NETWORK,
                        internal_bandwidth=internal,
                        aggregate=True,
                        member_count=len(group.members),
                    )
                )
        # Access links stay physical: exact names, capacities, availability.
        edges: list[_PlanEdge] = []
        for gid in sorted(by_tor):
            tor_label = node_names[gid]
            for host in sorted(set(by_tor[gid])):
                access = tree.access[host]
                for link_name in access.links:
                    link = topology.link(link_name)
                    edges.append(
                        _PlanEdge(
                            name=link_name,
                            a=host,
                            b=tor_label,
                            capacity=link.capacity,
                            latency=link.latency,
                            physical_links=(link_name,),
                            from_a=_keyed([link.direction(host, access.switch)]),
                            from_b=_keyed([link.direction(access.switch, host)]),
                        )
                    )
        # One bundle edge rolling up every physical link child -> parent.
        for gid in included:
            parent = hierarchy.groups[gid].parent
            if parent is None or parent not in node_names:
                continue
            members = tree.bundles[(gid, parent)]
            child_label, parent_label = node_names[gid], node_names[parent]
            edges.append(
                _PlanEdge(
                    name=(
                        members[0][0]
                        if len(members) == 1
                        else f"{child_label}~{parent_label}"
                    ),
                    a=child_label,
                    b=parent_label,
                    capacity=tree.bundle_capacity[(gid, parent)],
                    latency=tree.bundle_latency[(gid, parent)],
                    physical_links=tuple(name for name, _, _ in members),
                    from_a=_keyed(
                        topology.link(name).direction(child_end, parent_end)
                        for name, child_end, parent_end in members
                    ),
                    from_b=_keyed(
                        topology.link(name).direction(parent_end, child_end)
                        for name, child_end, parent_end in members
                    ),
                )
            )
        return _GraphPlan(tuple(nodes), "hier", tuple(plan_nodes), tuple(edges))


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
