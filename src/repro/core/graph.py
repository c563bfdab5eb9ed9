"""The logical topology graph returned by ``remos_get_graph``.

"The graph presented to the user is intended only to represent how the
network behaves as seen by the user" (§4.3): nodes are compute or network
nodes, edges carry static capacity/latency plus per-direction *available
bandwidth* quartile measures for the query's timeframe.

The graph also offers the derived views applications actually consume —
path availability between two hosts and the all-pairs distance matrix the
clustering heuristic feeds on (§7.3).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import networkx as nx

import numpy as np

from repro.core.jsontext import JSONWriter, string
from repro.net import Node, NodeKind
from repro.stats import StatMeasure
from repro.util.errors import QueryError


@dataclass(frozen=True)
class RemosNode:
    """A node of the logical topology.

    Under hierarchical collapse a node may be an *aggregate*: one logical
    node standing in for ``member_count`` physical switches (a pod's
    aggregation tier, the core).  Aggregates are named ``agg:<group>``;
    their ``internal_bandwidth`` is the sum over members.  Physical nodes
    (including singleton groups, which keep their physical name) have
    ``aggregate=False`` and ``member_count=1``.
    """

    name: str
    kind: NodeKind
    internal_bandwidth: float = float("inf")
    compute_speed: float = 0.0
    memory_bytes: float = 0.0
    aggregate: bool = False
    member_count: int = 1

    @classmethod
    def of(cls, node: Node, name: str | None = None) -> "RemosNode":
        """The physical *node* as a logical one (under *name* if given)."""
        return cls(
            name=node.name if name is None else name,
            kind=node.kind,
            internal_bandwidth=node.internal_bandwidth,
            compute_speed=node.compute_speed,
            memory_bytes=node.memory_bytes,
        )

    @property
    def is_compute(self) -> bool:
        """True for application-capable hosts."""
        return self.kind is NodeKind.COMPUTE


@dataclass
class RemosEdge:
    """A logical link: possibly several physical links collapsed into one.

    ``available`` maps each endpoint name to the StatMeasure of bandwidth
    available in the direction *leaving* that endpoint.
    """

    name: str
    a: str
    b: str
    capacity: float
    latency: float
    available: dict[str, StatMeasure] = field(default_factory=dict)
    physical_links: tuple[str, ...] = ()

    def other(self, node: str) -> str:
        """The endpoint opposite *node*."""
        if node == self.a:
            return self.b
        if node == self.b:
            return self.a
        raise QueryError(f"{node!r} is not an endpoint of logical link {self.name!r}")

    def available_from(self, node: str) -> StatMeasure:
        """Available bandwidth leaving *node* over this edge."""
        self.other(node)  # endpoint check
        try:
            return self.available[node]
        except KeyError:
            raise QueryError(
                f"logical link {self.name!r} has no availability data from {node!r}"
            ) from None


class RemosGraph:
    """Logical topology with annotations and derived metrics."""

    def __init__(self, query_nodes: list[str]):
        self.query_nodes = list(query_nodes)
        #: Which collapse produced this graph: ``"flat"`` (chain collapse
        #: only, every node physical) or ``"hier"`` (aggregate nodes).
        self.collapse = "flat"
        self._nodes: dict[str, RemosNode] = {}
        self._edges: dict[str, RemosEdge] = {}
        self._adjacency: dict[str, list[str]] = {}
        self._json: str | None = None  #: the body :meth:`to_json` wrote, kept

    # -- construction (used by the Modeler) ------------------------------------

    def _check_open(self) -> None:
        if self._json is not None:
            raise QueryError("logical graph is read-only once written as JSON")

    def add_node(self, node: RemosNode) -> None:
        """Insert a node (names unique)."""
        self._check_open()
        if node.name in self._nodes:
            raise QueryError(f"duplicate logical node {node.name!r}")
        self._nodes[node.name] = node
        self._adjacency[node.name] = []

    def add_edge(self, edge: RemosEdge) -> None:
        """Insert an edge between existing nodes."""
        self._check_open()
        for endpoint in (edge.a, edge.b):
            if endpoint not in self._nodes:
                raise QueryError(f"edge endpoint {endpoint!r} not in logical graph")
        if edge.name in self._edges:
            raise QueryError(f"duplicate logical edge {edge.name!r}")
        self._edges[edge.name] = edge
        self._adjacency[edge.a].append(edge.name)
        self._adjacency[edge.b].append(edge.name)

    # -- inspection ---------------------------------------------------------------

    @property
    def nodes(self) -> list[RemosNode]:
        """All logical nodes."""
        return list(self._nodes.values())

    @property
    def edges(self) -> list[RemosEdge]:
        """All logical edges."""
        return list(self._edges.values())

    @property
    def compute_nodes(self) -> list[RemosNode]:
        """Hosts only."""
        return [n for n in self._nodes.values() if n.is_compute]

    def node(self, name: str) -> RemosNode:
        """Logical node by name."""
        try:
            return self._nodes[name]
        except KeyError:
            raise QueryError(f"no node {name!r} in logical graph") from None

    def edge(self, name: str) -> RemosEdge:
        """Logical edge by name."""
        try:
            return self._edges[name]
        except KeyError:
            raise QueryError(f"no edge {name!r} in logical graph") from None

    def edges_at(self, node: str) -> list[RemosEdge]:
        """Edges attached to *node*."""
        self.node(node)
        return [self._edges[name] for name in self._adjacency[node]]

    def has_node(self, name: str) -> bool:
        """True if the logical graph contains *name*."""
        return name in self._nodes

    def to_networkx(self) -> nx.Graph:
        """Export for algorithms/visualisation."""
        graph = nx.Graph()
        for node in self._nodes.values():
            graph.add_node(node.name, node=node)
        for edge in self._edges.values():
            graph.add_edge(
                edge.a, edge.b, capacity=edge.capacity, latency=edge.latency, edge=edge
            )
        return graph

    # -- derived application views ----------------------------------------------------

    def _shortest_path(self, src: str, dst: str) -> list[str]:
        self.node(src)
        self.node(dst)
        graph = self.to_networkx()
        try:
            return nx.shortest_path(graph, src, dst, weight="latency")
        except nx.NetworkXNoPath:
            raise QueryError(f"no logical path from {src!r} to {dst!r}") from None

    def path_latency(self, src: str, dst: str) -> float:
        """Total latency along the logical route."""
        path = self._shortest_path(src, dst)
        total = 0.0
        for a, b in zip(path, path[1:]):
            total += self._edge_between(a, b).latency
        return total

    def path_available(self, src: str, dst: str) -> StatMeasure:
        """Bottleneck available bandwidth from *src* to *dst*.

        Element-wise minimum over the directions traversed — the
        conservative combination recommended when distributions are
        unknown.
        """
        path = self._shortest_path(src, dst)
        if len(path) == 1:
            return StatMeasure.constant(float("inf"))
        result: StatMeasure | None = None
        for a, b in zip(path, path[1:]):
            measure = self._edge_between(a, b).available_from(a)
            result = measure if result is None else StatMeasure.min_of(result, measure)
        assert result is not None
        return result

    def path_edges(self, src: str, dst: str) -> list[tuple[RemosEdge, str]]:
        """The logical route as (edge, from-node) steps, in order.

        Adaptation layers use this to attribute per-direction loads (e.g.
        an application's own traffic) to the logical links it crosses.
        """
        path = self._shortest_path(src, dst)
        return [(self._edge_between(a, b), a) for a, b in zip(path, path[1:])]

    def _edge_between(self, a: str, b: str) -> RemosEdge:
        for edge in self.edges_at(a):
            if edge.other(a) == b:
                return edge
        raise QueryError(f"no logical edge between {a!r} and {b!r}")

    def distance_matrix(
        self, hosts: list[str] | None = None, quantile: str = "median"
    ) -> "tuple[list[str], np.ndarray]":
        """All-pairs communication distance for clustering (§7.3).

        Distance is the reciprocal of the bottleneck available bandwidth at
        the chosen quantile ("for our testbed, the distance is based only
        on bandwidth since latency ... is virtually the same").  Returns
        (host order, symmetric matrix); the diagonal is zero.
        """
        names = hosts if hosts is not None else [n.name for n in self.compute_nodes]
        size = len(names)
        rows = [[0.0] * size for _ in range(size)]
        for i, src in enumerate(names):
            for j, dst in enumerate(names):
                if i == j:
                    continue
                available = self.path_available(src, dst)
                value = getattr(available, quantile)
                rows[i][j] = 1.0 / max(value, 1.0)
        return names, np.asarray(rows)

    def to_dict(self) -> dict:
        """Plain-data form for JSON export."""
        return {
            "query_nodes": list(self.query_nodes),
            "collapse": self.collapse,
            "nodes": [
                {
                    "name": n.name,
                    "kind": n.kind.value,
                    "internal_bandwidth": (
                        None
                        if n.internal_bandwidth == float("inf")
                        else n.internal_bandwidth
                    ),
                    "compute_speed": n.compute_speed,
                    "memory_bytes": n.memory_bytes,
                    "aggregate": n.aggregate,
                    "member_count": n.member_count,
                }
                for n in self.nodes
            ],
            "edges": [
                {
                    "name": e.name,
                    "a": e.a,
                    "b": e.b,
                    "capacity": e.capacity,
                    "latency_s": e.latency,
                    "physical_links": list(e.physical_links),
                    "available": {
                        endpoint: measure.to_dict()
                        for endpoint, measure in e.available.items()
                    },
                }
                for e in self.edges
            ],
        }

    def to_json(self) -> str:
        """:meth:`to_dict` as compact JSON (non-finite figures are ``null``).

        Written once and kept: the modeler memoises a priced graph per
        epoch and its readers treat it as read-only, so a graph asked for
        again in the same epoch answers with the same text.  Once written,
        :meth:`add_node` and :meth:`add_edge` refuse.  Two readers racing
        on a fresh graph both write the same text; either one is kept.
        """
        text = self._json
        if text is None:
            text = self._json = self._write_json()
        return text

    def _write_json(self) -> str:
        writer = JSONWriter()
        v, measure = writer.value, writer.measure
        nodes = ",".join(
            [
                f'{{"name":{string(n.name)},"kind":{string(n.kind.value)},'
                f'"internal_bandwidth":{v(n.internal_bandwidth)},'
                f'"compute_speed":{v(n.compute_speed)},"memory_bytes":{v(n.memory_bytes)},'
                f'"aggregate":{v(n.aggregate)},"member_count":{v(n.member_count)}}}'
                for n in self._nodes.values()
            ]
        )

        def edge(e: RemosEdge) -> str:
            links = ",".join([string(link) for link in e.physical_links])
            available = ",".join(
                [f"{string(end)}:{measure(m)}" for end, m in e.available.items()]
            )
            return (
                f'{{"name":{string(e.name)},"a":{string(e.a)},"b":{string(e.b)},'
                f'"capacity":{v(e.capacity)},"latency_s":{v(e.latency)},'
                f'"physical_links":[{links}],"available":{{{available}}}}}'
            )

        edges = ",".join([edge(e) for e in self._edges.values()])
        query_nodes = ",".join([string(name) for name in self.query_nodes])
        return (
            f'{{"query_nodes":[{query_nodes}],"collapse":{string(self.collapse)},'
            f'"nodes":[{nodes}],"edges":[{edges}]}}'
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<RemosGraph nodes={len(self._nodes)} edges={len(self._edges)} "
            f"for {self.query_nodes}>"
        )
