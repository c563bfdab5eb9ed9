"""Summary snapshots and the aggregation tree."""

import json

import pytest

from repro.collector import Cell, MetricsStore
from repro.collector.base import NetworkView
from repro.core import Flow
from repro.federation import Aggregator, FederationSummary, summarize_cell
from repro.federation.summary import CellSummary, SummaryEdge
from repro.net import TopologyBuilder
from repro.util.errors import ConfigurationError, QueryError

from tests.federation.conftest import make_world
from tests.federation.test_cell_registry import StaticCollector


@pytest.fixture(scope="module")
def bundled_world():
    """2 shards joined by a 2-member WAN bundle."""
    world, remos, oracle = make_world(shards=2, wan_members=2, warmup=2.0)
    return world


class TestCellSummary:
    def test_summarize_counts_and_bundles(self, small_world):
        world, _remos, _oracle = small_world
        cell = world.cells["s0"]
        summary = summarize_cell(cell)
        assert summary.shard == "s0"
        assert summary.host_count == len(world.plan.hosts["s0"])
        assert summary.hosts == frozenset(world.plan.hosts["s0"])
        assert summary.gateways == ("s0-gw",)
        assert summary.epoch == cell.epoch
        # Access bundle semantics: capacity sums over host access links.
        topology = cell.view().topology
        expected = sum(
            link.capacity
            for node in topology.nodes
            if node.is_compute
            for link in topology.links_at(node.name)
        )
        assert summary.access_capacity == pytest.approx(expected)

    def test_linkless_hosts_stay_json_safe(self):
        # A scoped view can hold hosts whose access links it never saw;
        # the summary must not leak inf into telemetry JSON.
        topology = (
            TopologyBuilder("island").host("h1").router("r1").build(validate=False)
        )
        cell = Cell(
            "island",
            StaticCollector(NetworkView(topology=topology, metrics=MetricsStore())),
        )
        cell.refresh()
        summary = summarize_cell(cell)
        assert summary.host_count == 1
        assert summary.access_capacity == 0.0
        assert summary.access_latency == 0.0
        json.loads(json.dumps(summary.to_dict()))


class TestAggregator:
    def test_needs_children(self):
        with pytest.raises(ConfigurationError):
            Aggregator([])

    def test_refresh_is_stamp_gated(self, small_world):
        world, _remos, _oracle = small_world
        aggregator = world.aggregator
        first = aggregator.refresh()
        assert aggregator.refresh() is first  # no child moved: same object
        world.settle(2.0)
        world.cells["s0"].refresh()
        second = aggregator.refresh()
        assert second is not first
        assert second.epoch == first.epoch + 1

    def test_wan_bundles_merge_members(self, bundled_world):
        summary = bundled_world.aggregator.current()
        (edge,) = summary.edges
        assert edge.shards() == frozenset(("s0", "s1"))
        assert len(edge.members) == 2
        topology = bundled_world.backbone.view().topology
        assert edge.capacity == pytest.approx(
            sum(topology.link(m).capacity for m in edge.members)
        )
        assert edge.latency == pytest.approx(
            min(topology.link(m).latency for m in edge.members)
        )
        assert edge.gateway_of("s0") == "s0-gw"
        assert edge.other("s0") == "s1"
        with pytest.raises(QueryError):
            edge.gateway_of("s9")

    def test_nested_tree_tracks_leaf_movement(self):
        # A leaf moving under a *child* aggregator must invalidate the
        # parent's stamp: subtrees fold before the parent stamps, so the
        # child's epoch reflects the movement the parent gates on.
        world, _remos, _oracle = make_world(warmup=2.0)
        try:
            child = Aggregator([world.cells["s0"], world.cells["s1"]], name="west")
            root = Aggregator(
                [child, world.cells["s2"]], backbone=world.backbone, name="root"
            )
            first = root.refresh()
            assert set(first.cells) == {"s0", "s1", "s2"}
            assert len(first.edges) == 3  # full mesh survives the fold
            assert root.refresh() is first  # settled at every level
            world.settle(2.0)
            world.cells["s0"].refresh()  # leaf under the subtree moves
            second = root.refresh()
            assert second is not first
            assert second.epoch == first.epoch + 1
            assert second.cells["s0"].epoch == world.cells["s0"].epoch
            assert root.refresh() is second  # and settles again
        finally:
            world.stop()

    def test_summary_is_immutable(self, small_world):
        world, _remos, _oracle = small_world
        summary = world.aggregator.current()
        with pytest.raises(AttributeError):
            summary.epoch = 99


class TestSummaryPath:
    @staticmethod
    def _summary(edges, shards=("a", "b", "c", "d")):
        cells = {
            s: CellSummary(
                shard=s,
                epoch=1,
                generation=1,
                structure_generation=1,
                published_at=0.0,
                hosts=frozenset(),
                gateways=(f"{s}-gw",),
                host_count=0,
                total_compute_speed=0.0,
                access_capacity=0.0,
                access_latency=0.0,
                staleness_seconds=None,
            )
            for s in shards
        }
        return FederationSummary("test", epoch=1, cells=cells, edges=tuple(edges))

    @staticmethod
    def _edge(a, b, latency=1.0):
        return SummaryEdge(
            a=a,
            b=b,
            gateway_a=f"{a}-gw",
            gateway_b=f"{b}-gw",
            members=(f"wan:{a}|{b}",),
            capacity=1e9,
            latency=latency,
            owner="test",
        )

    def test_direct_edge_wins(self):
        summary = self._summary(
            [self._edge("a", "b"), self._edge("b", "c"), self._edge("a", "c", 3.0)]
        )
        path = summary.summary_path("a", "c")
        assert [e.shards() for e in path] == [
            frozenset(("a", "b")),
            frozenset(("b", "c")),
        ]

    def test_transit_on_a_ring(self):
        ring = [
            self._edge("a", "b"),
            self._edge("b", "c"),
            self._edge("c", "d"),
            self._edge("a", "d"),
        ]
        summary = self._summary(ring)
        path = summary.summary_path("a", "c")
        # Two equal-cost 2-hop paths; the lexicographically smaller shard
        # sequence (via "b") wins, deterministically.
        assert [e.other("a") for e in path[:1]] == ["b"]
        assert len(path) == 2

    def test_same_shard_is_empty(self):
        summary = self._summary([self._edge("a", "b")])
        assert summary.summary_path("a", "a") == ()

    def test_disconnected_raises(self):
        summary = self._summary([self._edge("a", "b")])
        with pytest.raises(QueryError, match="no summary path"):
            summary.summary_path("a", "d")

    def test_unknown_shard_raises(self):
        summary = self._summary([self._edge("a", "b")])
        with pytest.raises(QueryError):
            summary.summary_path("a", "zz")

    def test_disconnected_pair_raises_on_every_call(self, monkeypatch):
        runs = count_dijkstras(monkeypatch)
        summary = self._summary([self._edge("a", "b")])
        for _ in range(2):
            with pytest.raises(QueryError, match="no summary path"):
                summary.summary_path("a", "d")
        assert runs == [("a", "d")] * 2  # the failure is not remembered


def count_dijkstras(monkeypatch) -> list:
    """Record every summary-graph Dijkstra run as its (src, dst) pair."""
    runs = []
    original = FederationSummary._shortest_path

    def counted(self, src_shard, dst_shard):
        runs.append((src_shard, dst_shard))
        return original(self, src_shard, dst_shard)

    monkeypatch.setattr(FederationSummary, "_shortest_path", counted)
    return runs


def test_each_summary_computes_each_path_once(monkeypatch):
    """All-pairs cross flows over 4 one-host shards: 12 Dijkstras on the
    first query over a summary, none on the second, 12 again after a new
    merge publishes a new summary."""
    world, remos, _oracle = make_world(
        shards=4, leaves=1, spines=1, hosts_per_leaf=1, warmup=2.0
    )
    try:
        hosts = [world.plan.hosts[shard][0] for shard in world.plan.shards]
        flows = [Flow(src, dst) for src in hosts for dst in hosts if src != dst]
        assert len(flows) == 12
        runs = count_dijkstras(monkeypatch)

        first = remos.flow_info(variable_flows=flows)
        assert len(runs) == 12
        assert len(set(runs)) == 12
        second = remos.flow_info(variable_flows=flows)
        assert len(runs) == 12
        assert second.to_dict() == first.to_dict()

        summary = remos.snapshot()
        world.settle(2.0)
        world.refresh_all()
        assert remos.snapshot() is not summary
        remos.flow_info(variable_flows=flows)
        assert len(runs) == 24
    finally:
        world.stop()
