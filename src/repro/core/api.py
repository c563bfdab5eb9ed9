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
from contextlib import contextmanager
from dataclasses import dataclass

from repro import obs
from repro.collector.base import Collector, NetworkView
from repro.core.cachestats import CacheStats
from repro.core.flows import Flow, FlowInfoResult, FlowQuery
from repro.core.graph import RemosGraph
from repro.core.jsontext import JSONWriter, string
from repro.core.modeler import Modeler
from repro.core import plan as _plan
from repro.core import snaparrays as _snaparrays
from repro.core.snapshot import Snapshot, SnapshotPublisher
from repro.core.timeframe import Timeframe
from repro.stats import StatMeasure
from repro.util.errors import CollectorError, QueryError


@contextmanager
def query_frame(facade, kind: str, pin=None):
    """The frame around every public query of either facade.

    Counts the query, opens its ``query.<kind>`` span, and on the way out
    records its wall time.  *pin* — ``Remos`` passes its ``_modeler`` — is
    called inside the span (publication work belongs to the query that
    triggered it) and grabs the one modeler the query must use throughout:
    a sweep publishing a new epoch mid-query must not split the answer
    across generations.  Yields ``(span, modeler)``; a query that succeeds
    under a pinned modeler gets the trace taxonomy's ``generation`` and
    per-query cache hit/miss deltas stamped on its span.
    """
    with facade._query_count_lock:
        facade.queries_answered += 1
    started = time.perf_counter()
    stats = facade.cache_stats
    try:
        with obs.span(f"query.{kind}") as sp:
            modeler = pin() if pin is not None else None
            annotate = bool(sp) and modeler is not None
            if annotate:
                hits, misses = stats.hits, stats.misses
            yield sp, modeler
            if annotate:
                sp.set(
                    generation=modeler.view.generation,
                    cache_hits=stats.hits - hits,
                    cache_misses=stats.misses - misses,
                )
    finally:
        elapsed = time.perf_counter() - started
        stats.record_query(elapsed)
        obs.observe(
            "remos_query_seconds",
            elapsed,
            help="Wall-clock seconds per answered Remos query",
            query=kind,
        )


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

    def to_json(self) -> str:
        """:meth:`to_dict` as compact JSON (non-finite figures are ``null``)."""
        writer = JSONWriter()
        v, measure = writer.value, writer.measure
        return (
            f'{{"name":{string(self.name)},"compute_speed":{v(self.compute_speed)},'
            f'"memory_bytes":{v(self.memory_bytes)},"cpu_load":{measure(self.cpu_load)},'
            f'"cpu_available":{measure(self.cpu_available)},'
            f'"effective_speed":{v(self.effective_speed)}}}'
        )


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
        with query_frame(self, "get_graph", self._modeler) as (sp, modeler):
            graph = modeler.logical_graph(list(nodes), timeframe, collapse)
            if sp:
                sp.set(node_count=len(nodes), collapse=graph.collapse)
            return graph

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
        with query_frame(self, "flow_info", self._modeler) as (sp, modeler):
            result = self._evaluate_flow_query(
                modeler, fixed, variable, independent, timeframe
            )
            if sp:
                sp.set(
                    flow_count=len(fixed) + len(variable) + len(independent),
                    fixed=len(fixed),
                    variable=len(variable),
                    independent=len(independent),
                )
            return result

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
        with query_frame(self, "flow_info_batch", self._modeler) as (sp, modeler):
            results = [
                self._evaluate_flow_query(
                    modeler, s.fixed, s.variable, s.independent, timeframe
                )
                for s in scenarios
            ]
            if sp:
                sp.set(
                    scenario_count=len(scenarios),
                    flow_count=sum(len(s.flows) for s in scenarios),
                )
            return results

    @staticmethod
    def _evaluate_flow_query(
        modeler: Modeler, fixed, variable, independent, timeframe: Timeframe
    ) -> FlowInfoResult:
        """One scenario's answer against *modeler*'s epoch.

        The one place an evaluator is chosen, by the scenario's shape:
        all-unicast scenarios go through the array evaluator
        (``repro.core.snaparrays``), multicast ones through the shared plan
        over a local resolver/pricer (``repro.core.plan``) — same
        validation, same staged solve, bit-identical answers.  The plan
        doubles as the oracle.
        """
        if _snaparrays.vectorizable(fixed, variable, independent):
            return _snaparrays.evaluate_flow_query(
                modeler, fixed, variable, independent, timeframe
            )
        local = _plan.LocalSource(modeler, timeframe)
        return _plan.evaluate(
            local.resolve, local.price, fixed, variable, independent, timeframe
        )

    # -- node (computation/memory) queries --------------------------------------

    def node_info(self, host: str, timeframe: Timeframe | None = None) -> "NodeAnswer":
        """The paper's "simple interface to computation and memory
        resources" (§2): static speed/memory plus measured CPU load."""
        timeframe = timeframe or Timeframe.current()
        with query_frame(self, "node_info", self._modeler) as (sp, modeler):
            node = modeler.view.topology.node(host)
            if not node.is_compute:
                raise QueryError(
                    f"node_info is only defined for compute nodes, not {host!r}"
                )
            load = modeler.cpu_load(host, timeframe)
            if sp:
                sp.set(host=host)
            return NodeAnswer(
                name=host,
                compute_speed=node.compute_speed,
                memory_bytes=node.memory_bytes,
                cpu_load=load,
                cpu_available=load.complement_of(1.0),
            )

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
        with query_frame(self, "check_admission", self._modeler) as (sp, modeler):
            local = _plan.LocalSource(modeler, timeframe)
            report = _plan.admission(local.resolve, local.price, fixed_flows)
            if sp:
                sp.set(flow_count=len(fixed_flows))
            return report

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
