"""The fluid network: flows, transfers, rate allocation and byte accounting.

Model
-----
* A **flow** is a (src, dst) stream with a demand (bits/s, possibly
  infinite) and a weight.  Open flows persist until closed; their rate at
  any instant comes from a global weighted max-min allocation over directed
  link capacities and finite node crossbars.
* A **transfer** is a flow with a byte size: it closes itself when the
  integrated rate has delivered all bytes, then fires its completion event
  after one path latency (pipeline drain).
* Rates only change when the flow set or a demand changes.  At each change
  the simulator integrates the previous constant rates into per-flow and
  per-interface byte counters, recomputes the allocation, and reschedules
  the earliest transfer completions.

Resource keys
-------------
Directed links use :attr:`LinkDirection.key`; nodes with finite internal
bandwidth contribute ``("xbar", name)``.  A flow consumes capacity on every
hop of its route and on every finite crossbar it traverses (endpoints
included — Fig. 1's aggregate-bandwidth scenario depends on this).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Any, Hashable

from repro.fairshare import Demand, weighted_max_min
from repro.net import Route, RoutingTable, Topology
from repro.netsim.hostload import HostActivity
from repro.sim import Engine, Event
from repro.util.errors import SimulationError, TopologyError

# Rate for src == dst "transfers" (a local memory copy, effectively): high
# enough never to matter, finite so completion times stay well-defined.
LOOPBACK_RATE = 1e12


@dataclass
class FluidFlow:
    """A live flow inside the fluid network.  Create via FluidNetwork.

    ``hops`` are the directed links the flow's bytes cross (each charged
    once — for a multicast flow this is the distribution tree, which is
    the whole point of multicast); ``drain_latency`` is the propagation
    time the last byte needs after the source stops sending.
    """

    flow_id: int
    src: str
    dst: str
    demand: float
    weight: float
    label: str | None
    opened_at: float
    resources: tuple[Hashable, ...]
    hops: tuple = ()
    drain_latency: float = 0.0
    receivers: tuple[str, ...] = ()
    rate: float = 0.0
    bytes_sent: float = 0.0
    closed: bool = False

    @property
    def is_multicast(self) -> bool:
        """True when the flow fans out to more than one receiver."""
        return len(self.receivers) > 1

    def __str__(self) -> str:
        tag = self.label or f"flow{self.flow_id}"
        return f"{tag}:{self.src}->{self.dst}"


@dataclass
class TransferHandle:
    """A bulk transfer in progress; ``done`` fires on delivery.

    The event's value is the handle itself, so waiters can read
    ``handle.completed_at`` and compute achieved throughput.
    """

    flow: FluidFlow
    size_bytes: float
    done: Event
    started_at: float
    completed_at: float | None = None
    _generation: int = 0

    @property
    def elapsed(self) -> float:
        """Delivery time in seconds (only after completion)."""
        if self.completed_at is None:
            raise SimulationError("transfer has not completed yet")
        return self.completed_at - self.started_at

    @property
    def throughput(self) -> float:
        """Achieved end-to-end throughput in bits/second."""
        elapsed = self.elapsed
        if elapsed <= 0:
            return float("inf")
        return self.size_bytes * 8.0 / elapsed


class FluidNetwork:
    """Binds a topology to an engine and allocates rates to live flows."""

    def __init__(
        self,
        env: Engine,
        topology: Topology,
        routing: RoutingTable | None = None,
    ):
        self.env = env
        self.topology = topology
        self.routing = routing or RoutingTable(topology)
        self._flows: dict[int, FluidFlow] = {}
        self._transfers: dict[int, TransferHandle] = {}
        self._ids = itertools.count(1)
        self._last_sync = env.now
        # Static capacity map: every link direction, plus finite crossbars.
        self._capacities: dict[Hashable, float] = {}
        for direction in topology.iter_directions():
            self._capacities[direction.key] = direction.capacity
        for node in topology.nodes:
            if node.internal_bandwidth != float("inf"):
                self._capacities[("xbar", node.name)] = node.internal_bandwidth
        # Cumulative octets carried per directed link (the SNMP counters).
        self._octets: dict[Hashable, float] = {
            d.key: 0.0 for d in topology.iter_directions()
        }
        #: CPU busy-time accounting for every compute node (the "simple
        #: interface to computation resources" substrate).
        self.host_activity = HostActivity(
            env, [n.name for n in topology.compute_nodes]
        )

    # -- flow management -----------------------------------------------------

    def _resources_for(self, route: Route) -> tuple[Hashable, ...]:
        resources: list[Hashable] = [hop.key for hop in route.hops]
        for name in route.node_sequence:
            if ("xbar", name) in self._capacities:
                resources.append(("xbar", name))
        return tuple(resources)

    def _check_endpoints(self, src: str, dst: str) -> None:
        for name in (src, dst):
            if not self.topology.node(name).is_compute:
                raise TopologyError(
                    f"flows terminate only at compute nodes; {name!r} is a network node"
                )

    def open_flow(
        self,
        src: str,
        dst: str,
        demand: float = float("inf"),
        weight: float = 1.0,
        label: str | None = None,
    ) -> FluidFlow:
        """Start a persistent flow; returns a handle for set_demand/close."""
        self._check_endpoints(src, dst)
        if demand < 0:
            raise SimulationError(f"flow demand must be non-negative, got {demand}")
        route = self.routing.route(src, dst)
        flow = FluidFlow(
            flow_id=next(self._ids),
            src=src,
            dst=dst,
            demand=demand,
            weight=weight,
            label=label,
            opened_at=self.env.now,
            resources=self._resources_for(route),
            hops=route.hops,
            drain_latency=route.latency,
            receivers=(dst,),
        )
        self._sync()
        self._flows[flow.flow_id] = flow
        self._reallocate()
        return flow

    def open_multicast_flow(
        self,
        src: str,
        dsts: list[str],
        demand: float = float("inf"),
        weight: float = 1.0,
        label: str | None = None,
    ) -> FluidFlow:
        """Start a persistent one-to-many flow over the distribution tree.

        Each tree link carries the stream once, however many receivers sit
        behind it -- the capacity saving that distinguishes multicast from
        repeated unicast.
        """
        self._check_endpoints(src, src)
        for dst in dsts:
            self._check_endpoints(dst, dst)
        if demand < 0:
            raise SimulationError(f"flow demand must be non-negative, got {demand}")
        tree = self.routing.multicast_tree(src, list(dsts))
        resources: list[Hashable] = [hop.key for hop in tree.hops]
        for name in tree.nodes:
            if ("xbar", name) in self._capacities:
                resources.append(("xbar", name))
        flow = FluidFlow(
            flow_id=next(self._ids),
            src=src,
            dst="{" + ",".join(tree.dsts) + "}",
            demand=demand,
            weight=weight,
            label=label,
            opened_at=self.env.now,
            resources=tuple(resources),
            hops=tree.hops,
            drain_latency=tree.max_latency,
            receivers=tree.dsts,
        )
        self._sync()
        self._flows[flow.flow_id] = flow
        self._reallocate()
        return flow

    def multicast_transfer(
        self,
        src: str,
        dsts: list[str],
        size_bytes: float,
        weight: float = 1.0,
        label: str | None = None,
    ) -> TransferHandle:
        """Bulk one-to-many transfer; ``done`` fires when the LAST receiver
        has everything (source rate integrated + deepest path latency)."""
        if size_bytes < 0:
            raise SimulationError(f"transfer size must be non-negative, got {size_bytes}")
        flow = self.open_multicast_flow(
            src, dsts, demand=float("inf"), weight=weight, label=label
        )
        handle = TransferHandle(
            flow=flow,
            size_bytes=float(size_bytes),
            done=self.env.event(),
            started_at=self.env.now,
        )
        self._transfers[flow.flow_id] = handle
        self._schedule_completion(handle)
        return handle

    def set_demand(self, flow: FluidFlow, demand: float) -> None:
        """Change a live flow's demand (0 mutes it without closing)."""
        if flow.closed:
            raise SimulationError(f"flow {flow} is closed")
        if demand < 0:
            raise SimulationError(f"flow demand must be non-negative, got {demand}")
        self._sync()
        flow.demand = demand
        self._reallocate()

    def close_flow(self, flow: FluidFlow) -> None:
        """Terminate a persistent flow (idempotent)."""
        if flow.closed:
            return
        self._sync()
        flow.closed = True
        flow.rate = 0.0
        self._flows.pop(flow.flow_id, None)
        self._transfers.pop(flow.flow_id, None)
        self._reallocate()

    def transfer(
        self,
        src: str,
        dst: str,
        size_bytes: float,
        weight: float = 1.0,
        label: str | None = None,
    ) -> TransferHandle:
        """Start a bulk transfer; ``handle.done`` fires on delivery.

        Delivery = all bytes pushed at the allocated (time-varying) rate,
        plus one path propagation latency.  Zero-byte transfers complete
        after the latency alone.
        """
        self._check_endpoints(src, dst)
        if size_bytes < 0:
            raise SimulationError(f"transfer size must be non-negative, got {size_bytes}")
        if src == dst:
            # Local copy: no network resources consumed.
            handle = self._make_loopback_transfer(src, dst, size_bytes, label)
            return handle
        flow = self.open_flow(src, dst, demand=float("inf"), weight=weight, label=label)
        handle = TransferHandle(
            flow=flow,
            size_bytes=float(size_bytes),
            done=self.env.event(),
            started_at=self.env.now,
        )
        self._transfers[flow.flow_id] = handle
        self._schedule_completion(handle)
        return handle

    def _make_loopback_transfer(
        self, src: str, dst: str, size_bytes: float, label: str | None
    ) -> TransferHandle:
        flow = FluidFlow(
            flow_id=next(self._ids),
            src=src,
            dst=dst,
            demand=LOOPBACK_RATE,
            weight=1.0,
            label=label,
            opened_at=self.env.now,
            resources=(),
            receivers=(dst,),
            rate=LOOPBACK_RATE,
        )
        handle = TransferHandle(
            flow=flow,
            size_bytes=float(size_bytes),
            done=self.env.event(),
            started_at=self.env.now,
        )
        delay = size_bytes * 8.0 / LOOPBACK_RATE

        def _complete(event: Event, handle=handle) -> None:
            handle.completed_at = self.env.now
            handle.flow.bytes_sent = handle.size_bytes
            handle.flow.closed = True
            handle.done.succeed(handle)

        timer = self.env.event()
        timer.callbacks.append(_complete)
        timer.succeed(delay=delay)
        return handle

    # -- accounting ----------------------------------------------------------

    def _sync(self) -> None:
        """Integrate current constant rates up to now."""
        now = self.env.now
        dt = now - self._last_sync
        if dt <= 0:
            self._last_sync = now
            return
        for flow in self._flows.values():
            if flow.rate > 0:
                nbytes = flow.rate * dt / 8.0
                flow.bytes_sent += nbytes
                for hop in flow.hops:
                    self._octets[hop.key] += nbytes
        self._last_sync = now

    def _reallocate(self) -> None:
        """Recompute the global max-min allocation and retime completions."""
        demands = [
            Demand(
                flow.flow_id,
                flow.resources,
                weight=flow.weight,
                cap=flow.demand,
            )
            for flow in self._flows.values()
            if flow.demand > 0
        ]
        result = weighted_max_min(demands, self._capacities) if demands else None
        for flow in self._flows.values():
            flow.rate = result.rates.get(flow.flow_id, 0.0) if result else 0.0
        # Copy: completing a transfer inside _schedule_completion closes its
        # flow, which mutates self._transfers.
        for handle in list(self._transfers.values()):
            if not handle.flow.closed:
                self._schedule_completion(handle)

    def _schedule_completion(self, handle: TransferHandle) -> None:
        handle._generation += 1
        generation = handle._generation
        flow = handle.flow
        # Completion tolerance must scale with the transfer: integrating a
        # large transfer accumulates relative FP error, and near the end the
        # residual eta can underflow below the clock's resolution — an
        # absolute epsilon would then livelock rescheduling zero-length
        # timers forever.
        tolerance = max(1e-6, handle.size_bytes * 1e-9)
        remaining = handle.size_bytes - flow.bytes_sent
        if remaining <= tolerance:
            self._finish_transfer(handle)
            return
        if flow.rate <= 0:
            return  # starved; a later reallocation will reschedule
        eta = remaining * 8.0 / flow.rate

        def _maybe_complete(event: Event) -> None:
            if generation != handle._generation or flow.closed:
                return  # stale timer: rates changed since it was armed
            self._sync()
            if handle.size_bytes - flow.bytes_sent <= tolerance:
                self._finish_transfer(handle)
            else:  # pragma: no cover - defensive against FP drift
                self._schedule_completion(handle)

        timer = self.env.event()
        timer.callbacks.append(_maybe_complete)
        timer.succeed(delay=eta)

    def _finish_transfer(self, handle: TransferHandle) -> None:
        flow = handle.flow
        self._sync()
        flow.bytes_sent = handle.size_bytes
        self.close_flow(flow)

        def _deliver(event: Event) -> None:
            handle.completed_at = self.env.now
            handle.done.succeed(handle)

        # Pipeline drain: the last byte still has to cross the path
        # (deepest receiver for multicast).
        drain = self.env.event()
        drain.callbacks.append(_deliver)
        drain.succeed(delay=flow.drain_latency)

    # -- introspection --------------------------------------------------------

    @property
    def active_flows(self) -> list[FluidFlow]:
        """Currently open flows (transfers included)."""
        return list(self._flows.values())

    def flow_rate(self, flow: FluidFlow) -> float:
        """Instantaneous allocated rate of *flow* in bits/second."""
        return 0.0 if flow.closed else flow.rate

    def link_load(self, link_name: str, src: str) -> float:
        """Instantaneous bits/second on the given link direction."""
        link = self.topology.link(link_name)
        direction = link.direction(src, link.other(src))
        return sum(
            flow.rate
            for flow in self._flows.values()
            if direction.key in flow.resources
        )

    def link_octets(self, link_name: str, src: str) -> float:
        """Cumulative octets carried on the link direction leaving *src*.

        This is the quantity a router's SNMP ``ifOutOctets`` counter reports
        for the interface attached to the link.
        """
        self._sync()
        link = self.topology.link(link_name)
        direction = link.direction(src, link.other(src))
        return self._octets[direction.key]

    def capacities(self) -> dict[Hashable, float]:
        """Copy of the static resource capacity map."""
        return dict(self._capacities)

    def utilization(self, link_name: str, src: str) -> float:
        """Instantaneous utilization (0..1) of the link direction from *src*."""
        link = self.topology.link(link_name)
        return self.link_load(link_name, src) / link.capacity
