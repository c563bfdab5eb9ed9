"""FederatedRemos: the existing query API over many cells.

The facade implements the same surface as :class:`~repro.core.api.Remos`
(``get_graph`` / ``flow_info`` / ``flow_info_batch`` / ``node_info`` /
``check_admission`` / ``telemetry``) against a
:class:`~repro.collector.cell.ShardRegistry` of cells and an
:class:`~repro.federation.aggregator.Aggregator` tree.

Answer ladder (the discipline the differential suite enforces):

* **Intra-shard** — every endpoint of the query lives in one cell: the
  query is *delegated* to that cell's own Remos facade, so the answer is
  bit-identical to a single-cell oracle reading the same measurements.
* **Cross-shard** — endpoints span cells: the answer is *composed* from
  exact intra-shard segments (each endpoint's cell resolves its own
  routes and capacities) joined by summary edges whose per-quantile
  availability is the element-wise minimum over the bundle's member WAN
  links.  A single flow cannot use more than one member at once and the
  summary does not know which member carries it, so the minimum is the
  sound bound: composed answers never overestimate what the single-cell
  oracle would grant the same flow queried alone.

Cross-shard queries touch only the cells hosting queried endpoints plus
the backbone — per-query cost is bounded by the summary size and the
query's own footprint, never by the total host count.
"""

from __future__ import annotations

import threading
import weakref
from typing import Hashable

from repro import obs
from repro.collector.cell import Cell, ShardRegistry
from repro.core import plan
from repro.core.api import query_frame
from repro.core.flows import Flow, FlowInfoResult, FlowQuery, MulticastFlow
from repro.core.graph import RemosEdge, RemosGraph, RemosNode
from repro.core.modeler import Modeler
from repro.core.plan import Footprint, LocalSource
from repro.core.timeframe import Timeframe
from repro.federation.aggregator import Aggregator
from repro.federation.summary import FederationSummary, SummaryEdge
from repro.stats import StatMeasure
from repro.util.errors import CollectorError, QueryError

_log = obs.get_logger("repro.federation.api")

#: Resource-key namespace for summary edges in composed allocations:
#: ``("fed", edge.a, edge.b, crossing_direction)``.
FED_RESOURCE = "fed"


class FederationCacheStats:
    """Read-only aggregate over every member cell's cache counters.

    Duck-compatible with the :class:`~repro.core.cachestats.CacheStats`
    readings the service front end and telemetry consume; query counts
    and wall time are recorded here (per facade), everything else sums
    over the cells and backbones live.
    """

    def __init__(self, members: "tuple[Cell, ...]"):
        self._members = members
        self._lock = threading.Lock()
        self.queries = 0
        self.query_time = 0.0

    def _sum(self, attribute: str) -> int:
        return sum(getattr(cell.remos.cache_stats, attribute) for cell in self._members)

    @property
    def hits(self) -> int:
        return self._sum("hits")

    @property
    def misses(self) -> int:
        return self._sum("misses")

    @property
    def invalidations(self) -> int:
        return self._sum("invalidations")

    @property
    def partial_invalidations(self) -> int:
        return self._sum("partial_invalidations")

    @property
    def entries_evicted(self) -> int:
        return self._sum("entries_evicted")

    @property
    def routing_rebuilds(self) -> int:
        return self._sum("routing_rebuilds")

    @property
    def hit_rate(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0

    @property
    def mean_query_time(self) -> float:
        return self.query_time / self.queries if self.queries else 0.0

    def record_query(self, seconds: float) -> None:
        with self._lock:
            self.queries += 1
            self.query_time += seconds

    def to_dict(self) -> dict:
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
            "per_cell": {
                cell.name: cell.remos.cache_stats.to_dict() for cell in self._members
            },
        }


class _QueryPin:
    """Everything one cross-shard query reads, pinned at query start.

    Cells publish concurrently with queries; pinning each involved cell's
    snapshot (and the federation summary) once keeps a single answer from
    straddling epochs.  Lazy: only the shards the query actually touches
    are pinned.

    The pin *is* the cross-shard resolver and pricer the shared plan
    (:mod:`repro.core.plan`) runs over: :meth:`resolve` composes a flow's
    footprint from the owning shards' exact route segments joined by
    summary edges, remembering which shard resolved each key, and
    :meth:`price` reads each key from that owner — or, for a summary
    edge, from the member-minimum :meth:`edge_measure`.
    """

    def __init__(self, remos: "FederatedRemos", timeframe: Timeframe):
        self._remos = remos
        self.timeframe = timeframe
        self.summary: FederationSummary = remos._summary()
        self._locals: dict[str, LocalSource] = {}
        self._backbone_modelers: dict[str, Modeler] = {}
        self._edge_measures: dict[tuple[str, str, str], StatMeasure] = {}
        self._gateway_shard: dict[str, str] | None = None
        #: Resource key -> the shard source that resolved it.
        self._owners: dict[Hashable, LocalSource] = {}
        #: Summary-edge resource key -> (edge, shard it is crossed leaving).
        self._crossings: dict[Hashable, tuple[SummaryEdge, str]] = {}

    def local(self, shard: str) -> LocalSource:
        """The shard's resolver/pricer over its snapshot pinned here."""
        local = self._locals.get(shard)
        if local is None:
            modeler = self._remos.registry.cell(shard).snapshot().modeler
            local = self._locals[shard] = LocalSource(modeler, self.timeframe)
        return local

    def backbone_modeler(self, owner: str) -> Modeler:
        modeler = self._backbone_modelers.get(owner)
        if modeler is None:
            backbone = self._remos._backbones.get(owner)
            if backbone is None:
                raise QueryError(f"no backbone cell for aggregator {owner!r}")
            modeler = backbone.snapshot().modeler
            self._backbone_modelers[owner] = modeler
        return modeler

    def edge_measure(self, edge: SummaryEdge, from_shard: str) -> StatMeasure:
        """Availability of a summary edge crossed *leaving* ``from_shard``.

        Element-wise :meth:`StatMeasure.min_of` over the bundle members'
        live availability in the crossing direction — the conservative
        choice, since a single flow uses exactly one (unknown) member.
        """
        cache_key = (edge.a, edge.b, from_shard)
        measure = self._edge_measures.get(cache_key)
        if measure is not None:
            return measure
        modeler = self.backbone_modeler(edge.owner)
        topology = modeler.view.topology
        if self._gateway_shard is None:
            self._gateway_shard = {
                gateway: summary.shard
                for summary in self.summary.cells.values()
                for gateway in summary.gateways
            }
        for member in edge.members:
            link = topology.link(member)
            if self._gateway_shard.get(link.a) == from_shard:
                direction = link.direction(link.a, link.b)
            else:
                direction = link.direction(link.b, link.a)
            sample = modeler.available_bandwidth(direction, self.timeframe)
            measure = (
                sample if measure is None else StatMeasure.min_of(measure, sample)
            )
        assert measure is not None  # bundles always have members
        self._edge_measures[cache_key] = measure
        return measure

    def _owned(self, local: LocalSource, footprint: Footprint) -> Footprint:
        for key in footprint.resources:
            self._owners[key] = local
        return footprint

    def resolve(self, flow) -> Footprint:
        """Compose one flow's resource footprint across shards."""
        shard_of = self._remos.registry.shard_of
        shards = []
        for endpoint in flow.endpoints:
            shard = shard_of(endpoint)
            if shard is None:
                raise QueryError(f"unknown flow endpoint {endpoint!r}")
            self.local(shard).validate(endpoint)
            shards.append(shard)
        src_shard, dst_shard = shards[0], shards[-1]
        if len(set(shards)) == 1:
            local = self.local(src_shard)
            return self._owned(local, local.resolve(flow))
        if isinstance(flow, MulticastFlow):
            raise QueryError(
                "cross-shard multicast flows are not supported; "
                f"{flow.src!r} -> {flow.dst} spans shards {sorted(set(shards))}"
            )
        # Exact segments to/from the border gateways, summary edges in
        # between.  Transit shards are crossed gateway-to-gateway over the
        # backbone — no intra-transit detail is touched.  The segments
        # anchor at the border routers the summary path actually attaches
        # to: with several gateways per cell, gateways[0] could disagree
        # with the WAN edge's endpoint and leave the composed footprint
        # missing the inter-gateway hop.
        path = self.summary.summary_path(src_shard, dst_shard)
        src_local, dst_local = self.local(src_shard), self.local(dst_shard)
        head = self._owned(
            src_local, src_local.segment(flow.src, path[0].gateway_of(src_shard))
        )
        tail = self._owned(
            dst_local, dst_local.segment(path[-1].gateway_of(dst_shard), flow.dst)
        )
        resources = list(head.resources)
        latency = head.latency + tail.latency
        from_shard = src_shard
        for edge in path:
            key = fed_key(edge, from_shard)
            self._crossings[key] = (edge, from_shard)
            resources.append(key)
            latency += edge.latency
            from_shard = edge.other(from_shard)
        resources.extend(tail.resources)
        # Deduplicated in first-reference order (a gateway crossbar could
        # appear in both segments' expansions on loops).
        return Footprint(
            tuple(dict.fromkeys(resources)),
            latency,
            head.hop_count + len(path) + tail.hop_count,
        )

    def price(self, key: Hashable) -> StatMeasure:
        """What *key* offers: exact from its shard, conservative on the WAN.

        A key no shard can price would read as unconstrained and make the
        federated answer *less* strict than the oracle's — refused instead.
        """
        crossing = self._crossings.get(key)
        if crossing is not None:
            return self.edge_measure(*crossing)
        owner = self._owners.get(key)
        measure = owner.price(key) if owner is not None else None
        if measure is None:
            raise QueryError(f"no shard can price resource {key!r}")
        return measure


def fed_key(edge: SummaryEdge, from_shard: str) -> tuple:
    """The directed allocation resource key of a summary edge."""
    return (FED_RESOURCE, edge.a, edge.b, "ab" if from_shard == edge.a else "ba")


class FederatedRemos:
    """The query interface over a federation of cells.

    Implements the :class:`~repro.core.api.Remos` query surface; see the
    module docstring for the delegation/composition ladder.  Construction
    is cheap — cells and the aggregator are wired by
    :class:`~repro.federation.world.FederationWorld` or the service.
    """

    def __init__(
        self,
        registry: ShardRegistry,
        aggregator: Aggregator,
        name: str | None = None,
    ):
        self.registry = registry
        self.aggregator = aggregator
        self.name = name or aggregator.name
        self._backbones = aggregator.backbones()
        members = tuple(registry.cells) + tuple(self._backbones.values())
        self.cache_stats = FederationCacheStats(members)
        self.queries_answered = 0
        self._query_count_lock = threading.Lock()
        if obs.metrics_enabled():
            self._publish_gauges()

    # -- publisher plumbing ------------------------------------------------------

    @property
    def publisher(self) -> Aggregator:
        """The aggregator doubles as this facade's snapshot publisher."""
        return self.aggregator

    def publish(self) -> FederationSummary:
        """Re-merge the aggregation tree (writer-side; the sweeper's job)."""
        return self.aggregator.refresh()

    def refresh_all(self) -> FederationSummary:
        """Publish every cell and backbone, then re-merge (test/CLI helper).

        The service's sweeper does this per simulation step; outside the
        service this is the one call that brings the whole federation to
        the current measurement state.
        """
        for cell in self.registry.cells:
            if cell.ready:
                cell.refresh()
        for backbone in self._backbones.values():
            if backbone.ready:
                backbone.refresh()
        return self.aggregator.refresh()

    def snapshot(self) -> FederationSummary:
        """The current federation summary (raises before the first merge)."""
        return self._summary()

    def _summary(self) -> FederationSummary:
        summary = self.aggregator.current()
        if summary is None:
            raise CollectorError(
                "no federation summary published yet; start the service (or "
                "call refresh_all()) before querying"
            )
        return summary

    # -- shared query plumbing ---------------------------------------------------

    def home_shard(self, names) -> str | None:
        """The single shard owning every name, or None when they span shards.

        Unknown names also return None — the query path raises the precise
        error when it partitions.
        """
        home: str | None = None
        for name in names:
            shard = self.registry.shard_of(name)
            if shard is None:
                return None
            if home is None:
                home = shard
            elif shard != home:
                return None
        return home

    def _cell(self, shard: str) -> Cell:
        return self.registry.cell(shard)

    # -- graph queries -----------------------------------------------------------

    def get_graph(
        self,
        nodes: list[str],
        timeframe: Timeframe | None = None,
        collapse: str = "auto",
    ) -> RemosGraph:
        """``remos_get_graph`` over the federation.

        Intra-shard queries are delegated (bit-identical, any collapse
        mode); cross-shard queries compose per-shard flat detail over the
        queried endpoints plus border gateways with one summary edge per
        crossed shard pair (``collapse`` is ignored there; the returned
        graph's ``collapse`` attribute reads ``"federated"``).
        """
        nodes = list(nodes)
        if not nodes:
            raise QueryError("get_graph requires at least one node")
        timeframe = timeframe or Timeframe.current()
        groups = self.registry.partition(nodes)
        if len(groups) == 1:
            (shard,) = groups
            with obs.span("federation.get_graph") as sp:
                if sp:
                    sp.set(shard=shard, path="delegated")
                return self._cell(shard).remos.get_graph(nodes, timeframe, collapse)
        with query_frame(self, "get_graph") as (sp, _):
            if sp:
                sp.set(shard="cross", shards=len(groups))
            graph = self._federated_graph(groups, nodes, timeframe)
            if sp:
                sp.set(node_count=len(nodes), collapse=graph.collapse)
            return graph

    def _federated_graph(
        self,
        groups: dict[str, list[str]],
        nodes: list[str],
        timeframe: Timeframe,
    ) -> RemosGraph:
        pin = _QueryPin(self, timeframe)
        graph = RemosGraph(nodes)
        graph.collapse = "federated"
        # Summary edges along every involved pair's summary path; the
        # gateways those edges attach at anchor the per-shard detail below
        # (gateways[0] could be a different border router entirely).
        involved = list(groups)
        added: set[frozenset[str]] = set()
        path_edges: list[SummaryEdge] = []
        anchors: dict[str, set[str]] = {shard: set() for shard in groups}
        for i, shard_a in enumerate(involved):
            for shard_b in involved[i + 1:]:
                for edge in pin.summary.summary_path(shard_a, shard_b):
                    for shard in edge.shards():
                        if shard in anchors:
                            anchors[shard].add(edge.gateway_of(shard))
                    if edge.shards() in added:
                        continue
                    added.add(edge.shards())
                    path_edges.append(edge)
        # Per-involved-shard detail: the cell's own flat logical graph over
        # its queried nodes, anchored at its summary-edge gateways; transit
        # shards contribute just their gateway nodes.
        for shard, shard_nodes in groups.items():
            sub = pin.local(shard).modeler.logical_graph(
                shard_nodes, timeframe, "flat", include=tuple(sorted(anchors[shard]))
            )
            for node in sub.nodes:
                graph.add_node(node)
            for edge in sub.edges:
                graph.add_edge(edge)
        for edge in path_edges:
            self._add_summary_edge(pin, graph, edge)
        return graph

    def _add_summary_edge(
        self, pin: _QueryPin, graph: RemosGraph, edge: SummaryEdge
    ) -> None:
        backbone_topology = pin.backbone_modeler(edge.owner).view.topology
        for gateway in (edge.gateway_a, edge.gateway_b):
            if not graph.has_node(gateway):
                graph.add_node(RemosNode.of(backbone_topology.node(gateway)))
        graph.add_edge(
            RemosEdge(
                name=f"fed:{edge.a}|{edge.b}",
                a=edge.gateway_a,
                b=edge.gateway_b,
                capacity=edge.capacity,
                latency=edge.latency,
                available={
                    edge.gateway_a: pin.edge_measure(edge, edge.a),
                    edge.gateway_b: pin.edge_measure(edge, edge.b),
                },
                physical_links=edge.members,
            )
        )

    # -- flow queries ------------------------------------------------------------

    def flow_info(
        self,
        fixed_flows: list[Flow] | None = None,
        variable_flows: list[Flow] | None = None,
        independent_flows: list[Flow] | None = None,
        timeframe: Timeframe | None = None,
    ) -> FlowInfoResult:
        """``remos_flow_info`` over the federation (see the answer ladder)."""
        fixed = list(fixed_flows or [])
        variable = list(variable_flows or [])
        independent = list(independent_flows or [])
        if not fixed and not variable and not independent:
            raise QueryError("flow_info requires at least one flow")
        query = FlowQuery(fixed=fixed, variable=variable, independent=independent)
        return self.flow_info_batch([query], timeframe)[0]

    def flow_info_batch(
        self,
        queries: list[FlowQuery],
        timeframe: Timeframe | None = None,
    ) -> list[FlowInfoResult]:
        """Batch scenarios, routed per scenario to the cheapest sound path.

        Scenarios entirely within one shard are delegated to that cell in
        sub-batches (bit-identical to the oracle); scenarios spanning
        shards are composed here.  Results come back in scenario order.
        """
        timeframe = timeframe or Timeframe.current()
        scenarios = list(queries)
        if not scenarios:
            return []
        with query_frame(self, "flow_info_batch") as (sp, _):
            results: list[FlowInfoResult | None] = [None] * len(scenarios)
            delegated: dict[str, list[int]] = {}
            cross: list[int] = []
            for index, scenario in enumerate(scenarios):
                home = self.home_shard(
                    endpoint for flow in scenario.flows for endpoint in flow.endpoints
                )
                if home is None:
                    cross.append(index)
                else:
                    delegated.setdefault(home, []).append(index)
            for shard, indices in delegated.items():
                answers = self._cell(shard).remos.flow_info_batch(
                    [scenarios[i] for i in indices], timeframe
                )
                for i, answer in zip(indices, answers):
                    results[i] = answer
            if cross:
                # Composed scenarios run the shared plan over one pin: each
                # shard's own routes and prices for the intra-shard segments
                # (exact), summary edges' member-minimum measures for the
                # WAN crossings (conservative).
                pin = _QueryPin(self, timeframe)
                for i in cross:
                    scenario = scenarios[i]
                    results[i] = plan.evaluate(
                        pin.resolve,
                        pin.price,
                        scenario.fixed,
                        scenario.variable,
                        scenario.independent,
                        timeframe,
                    )
            if sp:
                sp.set(
                    shard="cross" if cross else next(iter(delegated), "none"),
                    scenario_count=len(scenarios),
                    delegated=len(scenarios) - len(cross),
                    cross=len(cross),
                    flow_count=sum(len(s.flows) for s in scenarios),
                )
            assert all(result is not None for result in results)
            return results  # type: ignore[return-value]

    # -- node / admission queries ------------------------------------------------

    def node_info(self, host: str, timeframe: Timeframe | None = None):
        """Delegated straight to the owning cell (always intra-shard)."""
        return self.registry.cell_of(host).remos.node_info(host, timeframe)

    def check_admission(
        self,
        fixed_flows: list[Flow],
        timeframe: Timeframe | None = None,
    ):
        """Admission over the federation.

        Intra-shard requests are delegated; requests spanning shards are
        priced against composed median capacities (the conservative WAN
        bound makes a federated "fits" at least as strict as the oracle's).
        """
        timeframe = timeframe or Timeframe.current()
        if not fixed_flows:
            raise QueryError("check_admission requires at least one flow")
        home = self.home_shard(
            endpoint for flow in fixed_flows for endpoint in flow.endpoints
        )
        if home is not None:
            return self._cell(home).remos.check_admission(fixed_flows, timeframe)
        with query_frame(self, "check_admission") as (sp, _):
            pin = _QueryPin(self, timeframe)
            report = plan.admission(pin.resolve, pin.price, fixed_flows)
            if sp:
                sp.set(shard="cross", flow_count=len(fixed_flows))
            return report

    # -- freshness / telemetry ---------------------------------------------------

    def staleness_seconds(self) -> float | None:
        """The *worst* (largest) staleness across cells, or None."""
        values = [
            staleness
            for cell in self.registry.cells
            if (staleness := cell.staleness_seconds()) is not None
        ]
        return max(values) if values else None

    def _publish_gauges(self) -> None:
        """Register federation gauges (weakly, like the Remos facade)."""
        registry = obs.get_registry()
        ref = weakref.ref(self)

        def reader(fn):
            def read() -> float:
                remos = ref()
                return 0.0 if remos is None else fn(remos)

            return read

        registry.gauge(
            "remos_federation_epoch",
            help="Epoch counter of the current federation summary",
        ).set_function(reader(lambda r: float(r.aggregator.epoch)))
        registry.gauge(
            "remos_federation_shards",
            help="Cells registered in the federation",
        ).set_function(reader(lambda r: float(len(r.registry))))
        for cell in self.registry.cells:
            cell_ref = weakref.ref(cell)
            registry.gauge(
                "remos_shard_epoch",
                labels={"shard": cell.name},
                help="Per-shard snapshot epoch counter",
            ).set_function(
                lambda c=cell_ref: float(c().epoch) if c() is not None else 0.0
            )
            registry.gauge(
                "remos_shard_staleness_seconds",
                labels={"shard": cell.name},
                help="Per-shard simulated seconds since the newest measurement",
            ).set_function(
                lambda c=cell_ref: (
                    (c().staleness_seconds() or 0.0) if c() is not None else 0.0
                )
            )

    def telemetry(self) -> dict:
        """Combined observability snapshot, shaped like Remos.telemetry."""
        if obs.metrics_enabled():
            self._publish_gauges()
        summary = self.aggregator.current()
        return {
            "status": "ok" if summary is not None else "no summary yet",
            "queries_answered": self.queries_answered,
            "cache": self.cache_stats.to_dict(),
            "view": None,
            "snapshot": None if summary is None else summary.to_dict(),
            "collector": {
                "type": "federation",
                "cells": {
                    cell.name: {
                        "epoch": cell.epoch,
                        "staleness_seconds": cell.staleness_seconds(),
                    }
                    for cell in self.registry.cells
                },
                "backbones": {
                    owner: cell.epoch for owner, cell in self._backbones.items()
                },
            },
            "observability_enabled": obs.observability_enabled(),
            "federation": {
                "name": self.name,
                "shards": len(self.registry),
                "epoch": self.aggregator.epoch,
                "merges": self.aggregator.publishes,
            },
            "metrics": obs.get_registry().to_dict(),
        }

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<FederatedRemos {self.name!r} shards={len(self.registry)} "
            f"epoch={self.aggregator.epoch}>"
        )
