"""Pre-optimisation reference kernels, kept verbatim as differential oracles.

These are the routing / max-min / staged-allocation implementations as they
stood before the scalable-query-engine rewrite (eager all-pairs Dijkstra
carrying path tuples in heap entries; per-iteration full rebuild of the
max-min pressure index).  They exist for two reasons:

* the differential test suites (``tests/net/test_routing_differential.py``,
  ``tests/fairshare/test_maxmin_differential.py``) assert the optimised
  kernels produce **bit-identical** routes, rates and bottlenecks;
* ``bench_ablation_scale.py`` times them against the optimised engine to
  record the speedup trajectory in ``BENCH_scale.json``;
* :func:`eager_pricer` is the eager whole-network pricing the lazy
  per-resource reads replaced — ``tests/core/test_hierarchical_collapse.py``
  and ``bench_topology_scale.py`` hand it to the shared plan
  (``repro.core.plan.evaluate``) in place of the modeler's lazy pricer to
  prove the pruned reads answer-preserving.

Do not "fix" or optimise this module — its value is being frozen.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from typing import Hashable

from repro.net.routing import Route
from repro.net.topology import Link, LinkDirection, Topology
from repro.util.errors import ConfigurationError, TopologyError

_EPS = 1e-9
_RATE_FLOOR = 1e-9


class ReferenceRoutingTable:
    """Eager all-pairs shortest-path routing, as before the lazy rewrite.

    Builds Dijkstra from every node at construction time, with heap entries
    carrying the full candidate path tuple for tie-breaking.
    """

    def __init__(self, topology: Topology, weight: str = "latency"):
        if weight not in ("latency", "hops"):
            raise TopologyError(f"unknown routing weight {weight!r}")
        self.topology = topology
        self.weight = weight
        self._next_hop: dict[str, dict[str, LinkDirection]] = {}
        self._route_cache: dict[tuple[str, str], Route] = {}
        self._build_tables()

    def _edge_cost(self, link: Link) -> float:
        if self.weight == "hops":
            return 1.0
        return link.latency + 1e-9

    def _build_tables(self) -> None:
        topo = self.topology
        for source in topo._nodes:
            first_hop: dict[str, LinkDirection] = {}
            dist: dict[str, float] = {source: 0.0}
            # Entries: (cost, hop_count, path, node, first_hop_or_None)
            heap: list[tuple[float, int, tuple[str, ...], str, LinkDirection | None]] = [
                (0.0, 0, (source,), source, None)
            ]
            settled: set[str] = set()
            while heap:
                cost, hops, path, node, hop = heapq.heappop(heap)
                if node in settled:
                    continue
                settled.add(node)
                if hop is not None:
                    first_hop[node] = hop
                for link in topo.links_at(node):
                    neighbor = link.other(node)
                    if neighbor in settled:
                        continue
                    new_cost = cost + self._edge_cost(link)
                    if new_cost > dist.get(neighbor, float("inf")) + 1e-15:
                        continue
                    dist[neighbor] = min(new_cost, dist.get(neighbor, float("inf")))
                    neighbor_hop = hop if hop is not None else link.direction(source, neighbor)
                    heapq.heappush(
                        heap, (new_cost, hops + 1, path + (neighbor,), neighbor, neighbor_hop)
                    )
            self._next_hop[source] = first_hop

    def next_hop(self, src: str, dst: str) -> LinkDirection:
        self.topology.node(src)
        self.topology.node(dst)
        try:
            return self._next_hop[src][dst]
        except KeyError:
            raise TopologyError(f"no route from {src!r} to {dst!r}") from None

    def route(self, src: str, dst: str) -> Route:
        key = (src, dst)
        cached = self._route_cache.get(key)
        if cached is not None:
            return cached
        self.topology.node(src)
        self.topology.node(dst)
        if src == dst:
            route = Route(src, dst, ())
            self._route_cache[key] = route
            return route
        hops: list[LinkDirection] = []
        current = src
        visited = {src}
        while current != dst:
            hop = self.next_hop(current, dst)
            hops.append(hop)
            current = hop.dst
            if current in visited:  # pragma: no cover - defensive
                raise TopologyError(f"routing loop detected from {src!r} to {dst!r}")
            visited.add(current)
        route = Route(src, dst, tuple(hops))
        self._route_cache[key] = route
        return route


@dataclass(frozen=True)
class ReferenceDemand:
    """Mirror of :class:`repro.fairshare.maxmin.Demand` (no validation changes)."""

    flow_id: Hashable
    resources: tuple[Hashable, ...]
    weight: float = 1.0
    cap: float = float("inf")


@dataclass
class ReferenceMaxMinResult:
    rates: dict[Hashable, float] = field(default_factory=dict)
    bottlenecks: dict[Hashable, Hashable | None] = field(default_factory=dict)
    residual_capacity: dict[Hashable, float] = field(default_factory=dict)


def reference_weighted_max_min(demands, capacities) -> ReferenceMaxMinResult:
    """The pre-rewrite progressive-filling loop, rebuilt pressure and all.

    Accepts either :class:`ReferenceDemand` or the production ``Demand``
    (both expose flow_id/resources/weight/cap).
    """
    seen: set[Hashable] = set()
    for demand in demands:
        if demand.flow_id in seen:
            raise ConfigurationError(f"duplicate flow_id {demand.flow_id!r}")
        seen.add(demand.flow_id)

    result = ReferenceMaxMinResult()
    remaining = {key: max(0.0, float(cap)) for key, cap in capacities.items()}

    crossing: dict[Hashable, list] = {}
    for demand in demands:
        result.rates[demand.flow_id] = 0.0
        result.bottlenecks[demand.flow_id] = None
        for resource in demand.resources:
            if resource in remaining:
                crossing.setdefault(resource, []).append(demand)

    active: dict[Hashable, object] = {
        d.flow_id: d for d in demands if d.cap > _RATE_FLOOR
    }

    while active:
        pressure: dict[Hashable, float] = {}
        for flow_id, demand in active.items():
            for resource in demand.resources:
                if resource in remaining:
                    pressure[resource] = pressure.get(resource, 0.0) + demand.weight

        theta = float("inf")
        for resource, weight_sum in pressure.items():
            theta = min(theta, remaining[resource] / weight_sum)
        for demand in active.values():
            headroom = (demand.cap - result.rates[demand.flow_id]) / demand.weight
            theta = min(theta, headroom)

        if theta == float("inf"):
            for flow_id in active:
                result.rates[flow_id] = float("inf")
            break

        theta = max(0.0, theta)

        for flow_id, demand in active.items():
            result.rates[flow_id] += theta * demand.weight
        for resource, weight_sum in pressure.items():
            remaining[resource] -= theta * weight_sum

        frozen: set[Hashable] = set()
        for resource, weight_sum in pressure.items():
            capacity = capacities.get(resource, 0.0)
            if remaining[resource] <= _EPS * max(capacity, 1.0):
                remaining[resource] = max(0.0, remaining[resource])
                for demand in crossing.get(resource, ()):
                    if demand.flow_id in active and demand.flow_id not in frozen:
                        frozen.add(demand.flow_id)
                        result.bottlenecks[demand.flow_id] = resource

        for flow_id, demand in list(active.items()):
            if flow_id in frozen:
                continue
            if result.rates[flow_id] >= demand.cap * (1.0 - _EPS):
                result.rates[flow_id] = demand.cap
                frozen.add(flow_id)

        if not frozen:  # pragma: no cover - defensive
            raise ConfigurationError(
                "max-min allocation failed to make progress; "
                "check for zero-capacity resources with active flows"
            )
        for flow_id in frozen:
            active.pop(flow_id, None)

    result.residual_capacity = remaining
    return result


def reference_allocate_three_stage(capacities, fixed=None, variable=None, independent=None):
    """Pre-rewrite staged pipeline: fresh Demand lists + crossing per call.

    Returns ``(rates, satisfied, bottlenecks, residual)`` plain dicts.
    """
    fixed = fixed or []
    variable = variable or []
    independent = independent or []
    rates: dict[Hashable, float] = {}
    satisfied: dict[Hashable, bool] = {}
    bottlenecks: dict[Hashable, Hashable | None] = {}
    current = {key: max(0.0, float(cap)) for key, cap in capacities.items()}

    if fixed:
        demands = [
            ReferenceDemand(f.flow_id, f.resources, weight=1.0, cap=f.requested)
            for f in fixed
        ]
        result = reference_weighted_max_min(demands, current)
        rates.update(result.rates)
        bottlenecks.update(result.bottlenecks)
        current = result.residual_capacity
        for request in fixed:
            satisfied[request.flow_id] = (
                result.rates[request.flow_id] >= request.requested * (1.0 - 1e-9)
            )

    if variable:
        demands = [
            ReferenceDemand(
                f.flow_id,
                f.resources,
                weight=f.requested if f.requested > 0 else 1.0,
                cap=f.cap,
            )
            for f in variable
        ]
        result = reference_weighted_max_min(demands, current)
        rates.update(result.rates)
        bottlenecks.update(result.bottlenecks)
        current = result.residual_capacity

    if independent:
        demands = [
            ReferenceDemand(f.flow_id, f.resources, weight=1.0, cap=f.cap)
            for f in independent
        ]
        result = reference_weighted_max_min(demands, current)
        rates.update(result.rates)
        bottlenecks.update(result.bottlenecks)
        current = result.residual_capacity

    return rates, satisfied, bottlenecks, current


def eager_pricer(modeler, timeframe):
    """A ``plan.evaluate`` pricer over eager whole-network reads.

    The flat baseline: six ``available_capacities`` sweeps price every
    resource in the network up front, one dict per evaluation quantile,
    whatever the flows go on to cross; ``price(key)`` then only reassembles
    the six values (the accuracy, which those dicts do not carry, is read
    off the resource's measure).
    """
    from repro.core.plan import PRICED
    from repro.stats import StatMeasure

    snapshots = [
        modeler.available_capacities(timeframe, quantile=level) for level in PRICED
    ]

    def price(key):
        if key not in snapshots[0]:
            return None
        *quartiles, mean = (snapshot[key] for snapshot in snapshots)
        accuracy = modeler.resource_price(key, timeframe).accuracy
        return StatMeasure.presorted(quartiles, mean, len(quartiles), accuracy)

    return price

