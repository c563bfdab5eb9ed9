"""Summary snapshots: what a cell tells its parent aggregator.

Federation keeps intra-shard detail in the leaves; what travels up the
aggregation tree is a :class:`CellSummary` — epoch stamps, host membership
and aggregate capacities — plus :class:`SummaryEdge` bundles describing
the inter-shard (WAN) links the backbone cell observes.  Bundle semantics
reuse the :class:`~repro.core.collapse.CollapseTree` conventions:
capacity = sum over members, latency = min over members.

Everything here is immutable plain data: a :class:`FederationSummary` is
published by the aggregator with one atomic reference store, exactly like
a :class:`~repro.core.snapshot.Snapshot`, and readers never see a partial
merge.
"""

from __future__ import annotations

import heapq
import time
from dataclasses import dataclass
from typing import TYPE_CHECKING

from repro.util.errors import QueryError

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.collector.cell import Cell


@dataclass(frozen=True)
class CellSummary:
    """One shard's aggregate state, as seen from above.

    ``access_capacity``/``access_latency`` summarise the hosts' access
    links with bundle semantics (sum / min); ``host_count`` and
    ``total_compute_speed`` size the shard.  The epoch stamps let the
    aggregator detect movement without touching shard detail.
    """

    shard: str
    epoch: int
    generation: int
    structure_generation: int
    published_at: float
    hosts: frozenset[str]
    gateways: tuple[str, ...]
    host_count: int
    total_compute_speed: float
    access_capacity: float
    access_latency: float
    staleness_seconds: float | None

    def to_dict(self) -> dict:
        """Plain-data form for telemetry export."""
        return {
            "shard": self.shard,
            "epoch": self.epoch,
            "generation": self.generation,
            "structure_generation": self.structure_generation,
            "published_at": self.published_at,
            "host_count": self.host_count,
            "gateways": list(self.gateways),
            "total_compute_speed": self.total_compute_speed,
            "access_capacity": self.access_capacity,
            "access_latency": self.access_latency,
            "staleness_seconds": self.staleness_seconds,
        }


def summarize_cell(cell: "Cell") -> CellSummary:
    """Build a :class:`CellSummary` from a cell's current snapshot."""
    snapshot = cell.snapshot()
    topology = snapshot.view.topology
    hosts: list[str] = []
    total_speed = 0.0
    access_capacity = 0.0
    access_latency = float("inf")
    access_links = 0
    for node in topology.nodes:
        if not node.is_compute:
            continue
        hosts.append(node.name)
        total_speed += node.compute_speed
        for link in topology.links_at(node.name):
            access_links += 1
            access_capacity += link.capacity
            access_latency = min(access_latency, link.latency)
    return CellSummary(
        shard=cell.name,
        epoch=snapshot.epoch,
        generation=snapshot.generation,
        structure_generation=snapshot.structure_generation,
        published_at=snapshot.published_at,
        hosts=frozenset(hosts),
        gateways=cell.gateways,
        host_count=len(hosts),
        total_compute_speed=total_speed,
        access_capacity=access_capacity,
        # Guard on links seen, not host existence: linkless hosts would
        # otherwise leak inf into JSON telemetry.
        access_latency=access_latency if access_links else 0.0,
        staleness_seconds=cell.staleness_seconds(),
    )


@dataclass(frozen=True)
class SummaryEdge:
    """A bundle of physical WAN links between two shards.

    ``members`` are the physical link names in the owning backbone cell's
    view; ``capacity`` is their sum and ``latency`` their minimum (the
    CollapseTree bundle convention).  ``gateway_a``/``gateway_b`` name the
    border routers the bundle attaches to; ``owner`` names the aggregator
    whose backbone cell measures the members (cross-shard queries fetch
    live member availability from there).
    """

    a: str
    b: str
    gateway_a: str
    gateway_b: str
    members: tuple[str, ...]
    capacity: float
    latency: float
    owner: str

    def shards(self) -> frozenset[str]:
        """The unordered shard pair."""
        return frozenset((self.a, self.b))

    def gateway_of(self, shard: str) -> str:
        """The border router on *shard*'s side of the bundle."""
        if shard == self.a:
            return self.gateway_a
        if shard == self.b:
            return self.gateway_b
        raise QueryError(f"shard {shard!r} is not an endpoint of edge {self.a}|{self.b}")

    def other(self, shard: str) -> str:
        """The shard opposite *shard*."""
        if shard == self.a:
            return self.b
        if shard == self.b:
            return self.a
        raise QueryError(f"shard {shard!r} is not an endpoint of edge {self.a}|{self.b}")

    def to_dict(self) -> dict:
        """Plain-data form for telemetry export."""
        return {
            "a": self.a,
            "b": self.b,
            "gateway_a": self.gateway_a,
            "gateway_b": self.gateway_b,
            "members": list(self.members),
            "capacity": self.capacity,
            "latency_s": self.latency,
            "owner": self.owner,
        }


class FederationSummary:
    """One published epoch of the aggregation tree.

    Duck-compatible with :class:`~repro.core.snapshot.Snapshot` where the
    service plumbing needs it (``epoch``, ``generation``,
    ``structure_generation``, ``age_seconds``, ``to_dict``), so health
    endpoints and SLO monitors work unchanged against a federation.
    """

    __slots__ = (
        "name",
        "epoch",
        "published_at",
        "cells",
        "edges",
        "generation",
        "structure_generation",
        "_adjacency",
        "_paths",
        "_init_done",
    )

    def __init__(
        self,
        name: str,
        epoch: int,
        cells: dict[str, CellSummary],
        edges: tuple[SummaryEdge, ...],
        published_at: float | None = None,
    ):
        object.__setattr__(self, "name", name)
        object.__setattr__(self, "epoch", epoch)
        object.__setattr__(self, "cells", dict(cells))
        object.__setattr__(self, "edges", tuple(edges))
        object.__setattr__(
            self,
            "published_at",
            time.time() if published_at is None else published_at,
        )
        object.__setattr__(
            self, "generation", sum(c.generation for c in cells.values())
        )
        object.__setattr__(
            self,
            "structure_generation",
            sum(c.structure_generation for c in cells.values()),
        )
        adjacency: dict[str, list[SummaryEdge]] = {shard: [] for shard in cells}
        for edge in self.edges:
            adjacency.setdefault(edge.a, []).append(edge)
            adjacency.setdefault(edge.b, []).append(edge)
        object.__setattr__(self, "_adjacency", adjacency)
        #: (src_shard, dst_shard) -> summary path, filled lazily with fully
        #: built tuples (the dict-of-immutables pattern, docs/CONCURRENCY.md).
        object.__setattr__(self, "_paths", {})
        object.__setattr__(self, "_init_done", True)

    def __setattr__(self, name, value):
        if getattr(self, "_init_done", False):
            raise AttributeError(
                f"FederationSummary is immutable; cannot set {name!r}"
            )
        object.__setattr__(self, name, value)

    # -- inspection --------------------------------------------------------------

    def cell(self, shard: str) -> CellSummary:
        """Summary of one shard (raises QueryError for unknown shards)."""
        try:
            return self.cells[shard]
        except KeyError:
            raise QueryError(f"no shard {shard!r} in federation {self.name!r}") from None

    def edge_between(self, a: str, b: str) -> SummaryEdge | None:
        """The direct bundle between two shards, if any."""
        for edge in self._adjacency.get(a, ()):
            if edge.other(a) == b:
                return edge
        return None

    def summary_path(self, src_shard: str, dst_shard: str) -> tuple[SummaryEdge, ...]:
        """Shortest inter-shard route as a chain of summary edges.

        Dijkstra over the summary graph weighted by bundle latency, ties
        broken by hop count then shard name — deterministic, like the
        physical routing table.  Raises :class:`QueryError` when the
        shards are disconnected at summary level.  The summary never
        changes, so each pair's path is computed once per summary; a
        failure is not remembered and raises again on every call.
        """
        key = (src_shard, dst_shard)
        path = self._paths.get(key)
        if path is None:
            path = self._paths[key] = self._shortest_path(src_shard, dst_shard)
        return path

    def _shortest_path(self, src_shard: str, dst_shard: str) -> tuple[SummaryEdge, ...]:
        self.cell(src_shard)
        self.cell(dst_shard)
        if src_shard == dst_shard:
            return ()
        best: dict[str, tuple[float, int, tuple[str, ...]]] = {
            src_shard: (0.0, 0, (src_shard,))
        }
        frontier: list[tuple[float, int, tuple[str, ...], str]] = [
            (0.0, 0, (src_shard,), src_shard)
        ]
        while frontier:
            cost, hops, path, shard = heapq.heappop(frontier)
            if best.get(shard) != (cost, hops, path):
                continue
            if shard == dst_shard:
                edges: list[SummaryEdge] = []
                for a, b in zip(path, path[1:]):
                    edge = self.edge_between(a, b)
                    assert edge is not None
                    edges.append(edge)
                return tuple(edges)
            for edge in self._adjacency.get(shard, ()):
                neighbor = edge.other(shard)
                candidate = (cost + edge.latency, hops + 1, path + (neighbor,))
                current = best.get(neighbor)
                if current is None or candidate < current:
                    best[neighbor] = candidate
                    heapq.heappush(frontier, (*candidate, neighbor))
        raise QueryError(
            f"no summary path between shards {src_shard!r} and {dst_shard!r}"
        )

    def age_seconds(self, now: float | None = None) -> float:
        """Wall-clock seconds since this summary was published."""
        reference = time.time() if now is None else now
        return max(0.0, reference - self.published_at)

    def to_dict(self) -> dict:
        """Plain-data form for telemetry export."""
        return {
            "name": self.name,
            "epoch": self.epoch,
            "generation": self.generation,
            "structure_generation": self.structure_generation,
            "published_at": self.published_at,
            "age_seconds": self.age_seconds(),
            "shards": {shard: c.to_dict() for shard, c in self.cells.items()},
            "edges": [edge.to_dict() for edge in self.edges],
        }

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<FederationSummary {self.name!r} epoch={self.epoch} "
            f"shards={sorted(self.cells)} edges={len(self.edges)}>"
        )
