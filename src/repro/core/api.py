"""The public Remos facade.

Construct a :class:`Remos` over either a live collector (the view refreshes
as the collector keeps polling) or a static
:class:`~repro.collector.base.NetworkView`, then issue queries::

    remos = Remos(collector)
    result = remos.flow_info(variable_flows=[Flow("m-1", "m-4", 1.0)])
    graph = remos.get_graph(["m-1", "m-2", "m-4"], Timeframe.history(30.0))

Flow-query semantics (§4.2): fixed flows are satisfied first, then variable
flows proportionally to their relative requirements, then independent flows
absorb leftovers — all under weighted max-min fairness against the
capacities left over by measured external traffic.  Because network state
is uncertain, the allocation is evaluated at the five availability
quartiles (plus the mean), and each flow's answer is the quartile measure
of its allocated rate.
"""

from __future__ import annotations

import threading
import time
import weakref
from dataclasses import dataclass
from typing import Hashable

from repro import obs
from repro.collector.base import Collector, NetworkView
from repro.core.cachestats import CacheStats
from repro.core.flows import Flow, FlowAnswer, FlowInfoResult, FlowQuery, MulticastFlow
from repro.core.graph import RemosGraph
from repro.core.modeler import Modeler
from repro.core import snaparrays as _snaparrays
from repro.core.snapshot import Snapshot, SnapshotPublisher
from repro.core.timeframe import Timeframe
from repro.fairshare import FlowRequest, StagedProblem, admission_report
from repro.fairshare import vectorized as _vectorized
from repro.stats import StatMeasure
from repro.util.errors import CollectorError, QueryError

# Quantiles at which flow allocations are evaluated, pessimistic first.
_LEVELS = ("minimum", "q1", "median", "q3", "maximum")


@dataclass
class NodeAnswer:
    """Answer to a node_info query: computation and memory resources."""

    name: str
    compute_speed: float
    memory_bytes: float
    cpu_load: StatMeasure
    cpu_available: StatMeasure

    @property
    def effective_speed(self) -> float:
        """Flop/s left for a new job at the median measured load."""
        return self.compute_speed * self.cpu_available.median

    def to_dict(self) -> dict:
        """Plain-data form for JSON export."""
        return {
            "name": self.name,
            "compute_speed": self.compute_speed,
            "memory_bytes": self.memory_bytes,
            "cpu_load": self.cpu_load.to_dict(),
            "cpu_available": self.cpu_available.to_dict(),
            "effective_speed": self.effective_speed,
        }


class Remos:
    """The query interface applications link against.

    Every query runs against an immutable published
    :class:`~repro.core.snapshot.Snapshot` — a frozen view plus the
    per-epoch :class:`Modeler` memoising its capacities and routes.  With
    ``auto_publish=True`` (the default, matching classic single-threaded
    use) each query first asks the publisher to refresh, so answers track
    the live collector exactly as before; cached state carries across
    epochs through :meth:`Modeler.fork`, so topology-stable refreshes keep
    their routing table and journal-vouched refreshes keep their dynamic
    caches.  With ``auto_publish=False`` (service mode) queries *only*
    read the current snapshot — publication is the sweeper thread's job —
    which makes every query method safe to call from any number of reader
    threads concurrently (see ``docs/CONCURRENCY.md``).

    ``cache_stats`` exposes hit/miss/invalidation counters and per-query
    wall time; ``enable_cache=False`` forces the cold recompute-everything
    path (for benchmarks and differential tests).  See
    ``docs/PERFORMANCE.md`` for the performance model.
    """

    def __init__(
        self,
        source: Collector | NetworkView,
        enable_cache: bool = True,
        auto_publish: bool = True,
    ):
        self._source = source
        self._enable_cache = enable_cache
        self._auto_publish = auto_publish
        self.cache_stats = CacheStats()
        self._publisher = SnapshotPublisher(
            source, enable_cache=enable_cache, stats=self.cache_stats
        )
        self.queries_answered = 0
        self._query_count_lock = threading.Lock()
        if obs.metrics_enabled():
            self._publish_gauges()

    def _current_view(self) -> NetworkView:
        if isinstance(self._source, Collector):
            return self._source.view()
        return self._source

    @property
    def publisher(self) -> SnapshotPublisher:
        """The snapshot publisher backing this facade."""
        return self._publisher

    def publish(self) -> Snapshot:
        """Publish a snapshot of the live view if it moved (writer-side).

        The service's sweeper calls this after each simulation step; in
        ``auto_publish`` mode queries call it implicitly.
        """
        return self._publisher.refresh()

    def snapshot(self) -> Snapshot:
        """The snapshot the next query would run against.

        In ``auto_publish`` mode this refreshes first; in service mode it
        returns the current epoch (raising
        :class:`~repro.util.errors.CollectorError` before the first
        publication).
        """
        return self._snapshot()

    def _snapshot(self) -> Snapshot:
        if self._auto_publish:
            return self._publisher.refresh()
        snapshot = self._publisher.current()
        if snapshot is None:
            raise CollectorError(
                "no snapshot published yet; start the service (or call "
                "publish()) before querying"
            )
        return snapshot

    def _modeler(self) -> Modeler:
        """The current snapshot's modeler (one per published epoch)."""
        return self._snapshot().modeler

    def _begin_query(self) -> float:
        with self._query_count_lock:
            self.queries_answered += 1
        return time.perf_counter()

    def _end_query(self, started: float, kind: str) -> None:
        elapsed = time.perf_counter() - started
        self.cache_stats.record_query(elapsed)
        obs.observe(
            "remos_query_seconds",
            elapsed,
            help="Wall-clock seconds per answered Remos query",
            query=kind,
        )

    def _annotate_query_span(self, span, modeler: Modeler, hits: int, misses: int) -> None:
        """Stamp a query span with the attributes the trace taxonomy promises."""
        span.set(
            generation=modeler.view.generation,
            cache_hits=self.cache_stats.hits - hits,
            cache_misses=self.cache_stats.misses - misses,
        )

    # -- topology queries -----------------------------------------------------

    def get_graph(
        self,
        nodes: list[str],
        timeframe: Timeframe | None = None,
        collapse: str = "auto",
    ) -> RemosGraph:
        """The logical topology relevant to connecting *nodes* (§4.3).

        Matches the paper's ``remos_get_graph(nodes, graph, timeframe)``;
        the graph is returned rather than filled in.  *collapse* selects
        the collapse algorithm on hierarchical topologies — ``"auto"``
        (default: flat below the threshold, hierarchical above), ``"flat"``
        or ``"hier"``; see ``docs/TOPOLOGIES.md``.  The returned graph's
        ``collapse`` attribute names the path taken.
        """
        timeframe = timeframe or Timeframe.current()
        started = self._begin_query()
        with obs.span("query.get_graph") as sp:
            try:
                modeler = self._modeler()
                if sp:
                    hits, misses = self.cache_stats.hits, self.cache_stats.misses
                graph = modeler.logical_graph(list(nodes), timeframe, collapse)
                if sp:
                    self._annotate_query_span(sp, modeler, hits, misses)
                    sp.set(node_count=len(nodes), collapse=graph.collapse)
                return graph
            finally:
                self._end_query(started, "get_graph")

    # -- flow queries ------------------------------------------------------------

    def flow_info(
        self,
        fixed_flows: list[Flow] | None = None,
        variable_flows: list[Flow] | None = None,
        independent_flows: list[Flow] | None = None,
        timeframe: Timeframe | None = None,
    ) -> FlowInfoResult:
        """Answer a simultaneous multi-class flow query (§4.2).

        Matches the paper's ``remos_flow_info(fixed_flows, variable_flows,
        independent_flow, timeframe)``; any number of independent flows is
        accepted (the paper's signature has one).
        """
        timeframe = timeframe or Timeframe.current()
        fixed = list(fixed_flows or [])
        variable = list(variable_flows or [])
        independent = list(independent_flows or [])
        if not fixed and not variable and not independent:
            raise QueryError("flow_info requires at least one flow")
        started = self._begin_query()
        with obs.span("query.flow_info") as sp:
            try:
                # Grab the snapshot's modeler once and use it throughout:
                # a sweep publishing a new epoch mid-query must not split
                # the answer across generations.
                modeler = self._modeler()
                if sp:
                    hits, misses = self.cache_stats.hits, self.cache_stats.misses
                result = self._evaluate_flow_query(
                    modeler, fixed, variable, independent, timeframe
                )
                if sp:
                    self._annotate_query_span(sp, modeler, hits, misses)
                    sp.set(
                        flow_count=len(fixed) + len(variable) + len(independent),
                        fixed=len(fixed),
                        variable=len(variable),
                        independent=len(independent),
                    )
                return result
            finally:
                self._end_query(started, "flow_info")

    def flow_info_batch(
        self,
        queries: list[FlowQuery],
        timeframe: Timeframe | None = None,
    ) -> list[FlowInfoResult]:
        """Answer many flow-set scenarios against one network snapshot.

        Each :class:`FlowQuery` scenario is evaluated exactly as a separate
        :meth:`flow_info` call would be — identical rates, bottlenecks and
        satisfaction — but the expensive per-query work is shared across
        the batch and, through the epoch's price memo, with every other
        query of the epoch: each crossed resource is priced once, route
        resolution (and the lazy routing tables beneath it) is reused, and
        each scenario's allocation runs against only the capacities its
        flows actually cross.  Scenario sweeps such as the
        greedy node-selection heuristic in :mod:`repro.adapt` are the
        intended callers.

        Results are returned in scenario order.  Any invalid scenario
        raises :class:`QueryError` and discards the whole batch.
        """
        timeframe = timeframe or Timeframe.current()
        scenarios = list(queries)
        if not scenarios:
            return []
        started = self._begin_query()
        with obs.span("query.flow_info_batch") as sp:
            try:
                modeler = self._modeler()
                if sp:
                    hits, misses = self.cache_stats.hits, self.cache_stats.misses
                results = [
                    self._evaluate_flow_query(
                        modeler,
                        list(scenario.fixed),
                        list(scenario.variable),
                        list(scenario.independent),
                        timeframe,
                    )
                    for scenario in scenarios
                ]
                if sp:
                    self._annotate_query_span(sp, modeler, hits, misses)
                    sp.set(
                        scenario_count=len(scenarios),
                        flow_count=sum(len(s.flows) for s in scenarios),
                    )
                return results
            finally:
                self._end_query(started, "flow_info_batch")

    def _evaluate_flow_query(
        self,
        modeler: Modeler,
        fixed: list[Flow],
        variable: list[Flow],
        independent: list[Flow],
        timeframe: Timeframe,
        snapshots: "dict[str, dict[Hashable, float]] | None" = None,
    ) -> FlowInfoResult:
        """One scenario's answer against *modeler*'s epoch.

        *snapshots* (one capacity mapping per evaluation quantile) is for
        differential tests that supply eager whole-network dicts; they get
        the scalar path below.  Queries leave it out and read the epoch's
        prices instead — large all-unicast scenarios through the array
        evaluator (same validation, same staged solve, bit-identical
        answers: ``repro.core.snaparrays``), everything else through lazy
        capacity views, which price only the resources the flows cross
        (uncrossed resources never influence a max-min allocation).  The
        scalar path doubles as the no-numpy fallback and the oracle.
        """
        if snapshots is None:
            if _snaparrays.vectorizable(fixed, variable, independent):
                return _snaparrays.evaluate_flow_query(
                    modeler, fixed, variable, independent, timeframe
                )
            snapshots = {
                level: modeler.capacity_view(timeframe, quantile=level)
                for level in (*_LEVELS, "mean")
            }
        topology = modeler.view.topology
        for flow in (*fixed, *variable, *independent):
            endpoints = (flow.src, *flow.dsts) if isinstance(flow, MulticastFlow) else (
                flow.src,
                flow.dst,
            )
            for endpoint in endpoints:
                if not topology.has_node(endpoint):
                    raise QueryError(f"unknown flow endpoint {endpoint!r}")
                if not topology.node(endpoint).is_compute:
                    raise QueryError(
                        f"flow endpoints must be compute nodes; {endpoint!r} is not"
                    )

        def resources_of(flow) -> tuple:
            if isinstance(flow, MulticastFlow):
                return modeler.resources_for_tree(flow.src, list(flow.dsts))
            return modeler.resources_for_route(flow.src, flow.dst)

        def requests(flows: list[Flow], klass: str) -> list[FlowRequest]:
            return [
                FlowRequest(
                    flow_id=flow.label(index, klass),
                    resources=resources_of(flow),
                    requested=flow.requested,
                    cap=flow.cap,
                )
                for index, flow in enumerate(flows)
            ]

        fixed_requests = requests(fixed, "fixed")
        variable_requests = requests(variable, "variable")
        independent_requests = requests(independent, "independent")
        all_ids = [r.flow_id for r in (*fixed_requests, *variable_requests, *independent_requests)]
        if len(set(all_ids)) != len(all_ids):
            raise QueryError("flow labels must be unique within a query")

        # Evaluate the allocation at each availability quantile.  The
        # staged problem (demand validation + crossing indices) is prepared
        # once and solved per level, against only the capacities the
        # queried flows actually cross — pruning is result-preserving
        # because uncrossed resources never influence a max-min allocation.
        problem = StagedProblem(
            fixed=fixed_requests,
            variable=variable_requests,
            independent=independent_requests,
        )
        keys = problem.resource_keys()
        rates_by_level: dict[str, dict[Hashable, float]] = {}
        median_allocation = None
        for level in (*_LEVELS, "mean"):
            full = snapshots[level]
            capacities = {}
            for key in keys:
                value = full.get(key)  # one read; None = constrains nothing
                if value is not None:
                    capacities[key] = value
            allocation = problem.solve(capacities)
            rates_by_level[level] = allocation.rates
            if level == "median":
                median_allocation = allocation
        assert median_allocation is not None

        # Overall answer accuracy: the worst accuracy among the directions
        # any queried flow traverses.
        accuracy = self._query_accuracy(
            modeler, timeframe, fixed + variable + independent
        )

        def answers(flows: list[Flow], reqs: list[FlowRequest], klass: str) -> list[FlowAnswer]:
            result = []
            for flow, request in zip(flows, reqs):
                label = request.flow_id
                # Rates at rising availability quantiles are monotone in all
                # common cases; sorting guards the rare multi-bottleneck
                # exception so the StatMeasure invariant always holds.
                quartiles = sorted(rates_by_level[level][label] for level in _LEVELS)
                bandwidth = StatMeasure(
                    minimum=quartiles[0],
                    q1=quartiles[1],
                    median=quartiles[2],
                    q3=quartiles[3],
                    maximum=quartiles[4],
                    mean=rates_by_level["mean"][label],
                    n_samples=len(_LEVELS),
                    accuracy=accuracy,
                )
                if isinstance(flow, MulticastFlow):
                    tree = modeler.routing.multicast_tree(flow.src, list(flow.dsts))
                    latency, hop_count = tree.max_latency, len(tree.hops)
                else:
                    route = modeler.routing.route(flow.src, flow.dst)
                    latency, hop_count = route.latency, route.hop_count
                result.append(
                    FlowAnswer(
                        flow=flow,
                        label=label,
                        bandwidth=bandwidth,
                        latency=StatMeasure.constant(latency),
                        hop_count=hop_count,
                        satisfied=(
                            median_allocation.satisfied.get(label)
                            if klass == "fixed"
                            else None
                        ),
                        bottleneck=median_allocation.bottlenecks.get(label),
                    )
                )
            return result

        return FlowInfoResult(
            timeframe=timeframe,
            fixed=answers(fixed, fixed_requests, "fixed"),
            variable=answers(variable, variable_requests, "variable"),
            independent=answers(independent, independent_requests, "independent"),
        )

    @staticmethod
    def _query_accuracy(
        modeler: Modeler, timeframe: Timeframe, flows: list[Flow]
    ) -> float:
        accuracy = 1.0
        for flow in flows:
            if isinstance(flow, MulticastFlow):
                hops = modeler.routing.multicast_tree(flow.src, list(flow.dsts)).hops
            else:
                hops = modeler.routing.route(flow.src, flow.dst).hops
            for hop in hops:
                measure = modeler.available_bandwidth(hop, timeframe)
                accuracy = min(accuracy, measure.accuracy)
        return accuracy

    # -- node (computation/memory) queries --------------------------------------

    def node_info(self, host: str, timeframe: Timeframe | None = None) -> "NodeAnswer":
        """The paper's "simple interface to computation and memory
        resources" (§2): static speed/memory plus measured CPU load."""
        timeframe = timeframe or Timeframe.current()
        started = self._begin_query()
        with obs.span("query.node_info") as sp:
            try:
                modeler = self._modeler()
                if sp:
                    hits, misses = self.cache_stats.hits, self.cache_stats.misses
                node = modeler.view.topology.node(host)
                if not node.is_compute:
                    raise QueryError(
                        f"node_info is only defined for compute nodes, not {host!r}"
                    )
                load = modeler.cpu_load(host, timeframe)
                if sp:
                    self._annotate_query_span(sp, modeler, hits, misses)
                    sp.set(host=host)
                return NodeAnswer(
                    name=host,
                    compute_speed=node.compute_speed,
                    memory_bytes=node.memory_bytes,
                    cpu_load=load,
                    cpu_available=load.complement_of(1.0),
                )
            finally:
                self._end_query(started, "node_info")

    # -- admission / guaranteed-service queries --------------------------------

    def check_admission(
        self,
        fixed_flows: list[Flow],
        timeframe: Timeframe | None = None,
    ):
        """Would this set of fixed-bandwidth flows fit, simultaneously?

        The guaranteed-services question the paper defers (§4.5): for
        networks with reservations, an application "may be primarily
        interested in whether the network can support" its fixed flows.
        Returns an :class:`~repro.fairshare.admission.AdmissionReport`
        whose ``oversubscribed`` map names the offending resources.
        """
        timeframe = timeframe or Timeframe.current()
        if not fixed_flows:
            raise QueryError("check_admission requires at least one flow")
        started = self._begin_query()
        with obs.span("query.check_admission") as sp:
            try:
                modeler = self._modeler()
                if sp:
                    hits, misses = self.cache_stats.hits, self.cache_stats.misses
                requests = []
                for index, flow in enumerate(fixed_flows):
                    if isinstance(flow, MulticastFlow):
                        resources = modeler.resources_for_tree(flow.src, list(flow.dsts))
                    else:
                        resources = modeler.resources_for_route(flow.src, flow.dst)
                    requests.append(
                        FlowRequest(
                            flow_id=flow.label(index, "fixed"),
                            resources=resources,
                            requested=flow.requested,
                            cap=flow.requested,
                        )
                    )
                # Lazy view: admission only reads the resources the
                # requests cross, so the check stays flow-sized on
                # arbitrarily large networks.
                capacities = modeler.capacity_view(timeframe, quantile="median")
                report = admission_report(capacities, requests)
                if sp:
                    self._annotate_query_span(sp, modeler, hits, misses)
                    sp.set(flow_count=len(fixed_flows))
                return report
            finally:
                self._end_query(started, "check_admission")

    # -- telemetry --------------------------------------------------------------

    @staticmethod
    def _sweeps_of(collector) -> int | None:
        for attribute in ("polls_completed", "sweeps_completed"):
            value = getattr(collector, attribute, None)
            if value is not None:
                return int(value)
        return None

    def _sweep_count(self) -> int | None:
        """Completed measurement sweeps of the backing collector(s)."""
        children = getattr(self._source, "collectors", None)
        if children is not None:  # CollectorMaster: sum over its children
            return sum(self._sweeps_of(child) or 0 for child in children)
        return self._sweeps_of(self._source)

    def _ready(self) -> bool:
        """True once the source can hand out a view (always, for static)."""
        if isinstance(self._source, Collector):
            return self._source.ready
        return True

    def staleness_seconds(self) -> float | None:
        """Simulated seconds since the newest measurement, or None.

        None — never an exception — when the source is a static view (no
        clock to age against), the collector has not completed its first
        sweep, or nothing has been measured yet.  A freshly constructed
        facade therefore reports None cleanly instead of tripping over the
        collector's not-ready error.
        """
        env = getattr(self._source, "env", None)
        if env is None or not self._ready():
            return None
        latest = self._current_view().metrics.latest_timestamp()
        if latest <= 0.0:
            return None
        return max(0.0, env.now - latest)

    def _publish_gauges(self) -> None:
        """Fold this facade's counters into the global metrics registry.

        Registered as callback gauges read at export time, so the query hot
        path never pays for them.  The callbacks hold only a weak reference
        to this facade: constructing Remos repeatedly (tests, benchmarks)
        re-registers the same gauge names without chaining dead instances
        alive, and a collected facade's gauges read 0 until the next
        construction takes the names over (most recent publisher wins; see
        docs/OBSERVABILITY.md).
        """
        registry = obs.get_registry()
        ref = weakref.ref(self)

        def reader(fn):
            def read() -> float:
                remos = ref()
                if remos is None:
                    return 0.0
                return fn(remos)

            return read

        for name, help_text, fn in (
            ("remos_cache_hits_total", "Memoised lookups served from cache", lambda r: float(r.cache_stats.hits)),
            ("remos_cache_misses_total", "Memoised lookups that had to compute", lambda r: float(r.cache_stats.misses)),
            ("remos_cache_hit_rate", "Fraction of memoised lookups served from cache", lambda r: r.cache_stats.hit_rate),
            ("remos_cache_invalidations_total", "Generation changes that dropped cached entries", lambda r: float(r.cache_stats.invalidations)),
            ("remos_routing_rebuilds_total", "View refreshes that forced a new routing table", lambda r: float(r.cache_stats.routing_rebuilds)),
            ("remos_queries_total", "Public Remos queries answered", lambda r: float(r.cache_stats.queries)),
            ("remos_query_mean_seconds", "Mean wall-clock seconds per answered query", lambda r: r.cache_stats.mean_query_time),
            ("remos_collector_sweeps", "Completed measurement sweeps of the backing collector", lambda r: float(r._sweep_count() or 0)),
            ("remos_view_staleness_seconds", "Simulated seconds since the newest measurement", lambda r: r.staleness_seconds() or 0.0),
            ("remos_snapshot_epoch", "Epoch counter of the current published snapshot", lambda r: float(r._publisher.epoch)),
        ):
            registry.gauge(name, help=help_text).set_function(reader(fn))

        # Allocation-path gauges: module-global, not per-facade (solve
        # counters accumulate across every Remos instance in the process).
        for name, help_text, fn in (
            ("remos_vectorized", "1 when the numpy allocation kernels are live", lambda: float(_vectorized.vectorization_enabled())),
            ("remos_vectorized_solves_total", "Max-min solves answered by the array kernel", lambda: float(_vectorized.counters["vectorized_solves"])),
            ("remos_scalar_solves_total", "Max-min solves answered by the scalar loop", lambda: float(_vectorized.counters["scalar_solves"])),
        ):
            registry.gauge(name, help=help_text).set_function(fn)

    def telemetry(self) -> dict:
        """One combined, JSON-able observability snapshot for this facade.

        Folds the query cache (`CacheStats`), view freshness/staleness,
        snapshot epoch info, collector sweep counts, and — when
        observability is enabled — the global metrics registry (per-stage
        latency quartiles included) into a single report.  Reports cleanly
        on a freshly constructed facade: ``status`` is ``"no sweep yet"``
        and the view/snapshot sections are None until the collector's
        first sweep completes.  ``repro stats`` is a thin shell around
        this.
        """
        if obs.metrics_enabled():
            self._publish_gauges()
        view = self._current_view() if self._ready() else None
        env = getattr(self._source, "env", None)
        view_info = None
        if view is not None:
            view_info = {
                "generation": view.generation,
                "structure_generation": view.structure_generation,
                "nodes": len(view.topology.nodes),
                "links": len(view.topology.links),
                "latest_timestamp": view.metrics.latest_timestamp(),
                "staleness_seconds": self.staleness_seconds(),
            }
        collector_info = None
        if isinstance(self._source, Collector):
            collector_info = {
                "type": type(self._source).__name__,
                "sweeps": self._sweep_count(),
                "sim_now": env.now if env is not None else None,
                "sim_events": getattr(env, "events_processed", None),
            }
        current = self._publisher.current()
        forecast = None
        if current is not None:
            forecast = current.modeler.evaluator.backtester.to_dict()
        return {
            "status": "ok" if view is not None else "no sweep yet",
            "queries_answered": self.queries_answered,
            "cache": self.cache_stats.to_dict(),
            "forecast": forecast,
            "view": view_info,
            "snapshot": None if current is None else current.to_dict(),
            "collector": collector_info,
            "observability_enabled": obs.observability_enabled(),
            "vectorized": _vectorized.vectorization_enabled(),
            "solves": dict(_vectorized.counters),
            "metrics": obs.get_registry().to_dict(),
        }


# -- procedural wrappers mirroring the paper's C-style API ----------------------


def remos_get_graph(
    remos: Remos,
    nodes: list[str],
    timeframe: Timeframe | None = None,
    collapse: str = "auto",
) -> RemosGraph:
    """``remos_get_graph(nodes, graph, timeframe)`` — returns the graph."""
    return remos.get_graph(nodes, timeframe, collapse)


def remos_flow_info(
    remos: Remos,
    fixed_flows: list[Flow] | None = None,
    variable_flows: list[Flow] | None = None,
    independent_flow: Flow | list[Flow] | None = None,
    timeframe: Timeframe | None = None,
) -> FlowInfoResult:
    """``remos_flow_info(fixed, variable, independent_flow, timeframe)``.

    Accepts the paper's single ``independent_flow`` or a list.
    """
    if independent_flow is None:
        independent: list[Flow] = []
    elif isinstance(independent_flow, Flow):
        independent = [independent_flow]
    else:
        independent = list(independent_flow)
    return remos.flow_info(
        fixed_flows=fixed_flows,
        variable_flows=variable_flows,
        independent_flows=independent,
        timeframe=timeframe,
    )
