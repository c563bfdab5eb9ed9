"""Hierarchical collapse: differential answer preservation + epoch lifecycle.

The contracts under test (docs/TOPOLOGIES.md):

* on a two-level tree — where every hierarchy group is a singleton — the
  hierarchical graph is **bit-identical** to the flat one, for arbitrary
  randomized loads;
* on multipath fabrics the collapsed graph preserves path-level answers
  exactly when bundle loads are uniform (and conservatively otherwise);
* flow and admission queries through the lazy :class:`CapacityView` are
  bit-identical to the eager whole-network snapshots, for arbitrary
  randomized loads — the pruning argument;
* the collapse tree survives metrics-only sweeps and is shared across
  snapshot epochs (identity), and a structural change rebuilds it.
"""

import random

import pytest

from repro.core import (
    AUTO_COLLAPSE_THRESHOLD,
    Flow,
    Remos,
    SnapshotPublisher,
    Timeframe,
    plan,
)
from repro.fairshare import FlowRequest
from repro.fairshare.admission import admission_report
from repro.net import TopologyBuilder, fat_tree, leaf_spine
from repro.util import mbps
from repro.util.errors import QueryError

from benchmarks._reference import eager_pricer
from tests.core.conftest import line_topology, measured_view


def random_view(topology, rng, high=mbps(80), samples=12):
    """Every direction measured with its own random flat load."""
    loads = {
        (d.link.name, d.src): rng.uniform(0.0, high)
        for d in topology.iter_directions()
    }
    return measured_view(topology, loads, samples=samples)


def router_ring(routers=3, hosts_per_router=2):
    """Routers in a cycle, hosts on each: a flat (non-hierarchical) fabric."""
    builder = TopologyBuilder("ring")
    for r in range(routers):
        builder.router(f"r{r}")
        for m in range(hosts_per_router):
            host = f"r{r}-h{m}"
            builder.host(host).link(host, f"r{r}", "1Gbps", "0.1ms")
    for r in range(routers):
        builder.link(f"r{r}", f"r{(r + 1) % routers}", "10Gbps", "0.5ms")
    return builder.build()


def two_level_tree(leaves=4, hosts_per_leaf=3):
    builder = TopologyBuilder("tree").router("core")
    for j in range(leaves):
        leaf = f"leaf{j}"
        builder.router(leaf).link(leaf, "core", "1Gbps", "0.5ms")
        for m in range(hosts_per_leaf):
            host = f"h{j}-{m}"
            builder.host(host).link(host, leaf, "100Mbps", "0.1ms")
    return builder.build()


def canonical(graph):
    """Orientation-independent content: nodes by name, edges by endpoints."""
    nodes = {n.name: n for n in graph.nodes}
    edges = {}
    for e in graph.edges:
        edges[frozenset((e.a, e.b))] = (
            e.name,
            e.capacity,
            e.latency,
            dict(e.available),
            tuple(sorted(e.physical_links)),
        )
    return nodes, edges


class TestTwoLevelBitIdentity:
    """Singleton groups collapse to nothing: hier == flat, bit for bit."""

    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_full_graph_identical_under_random_loads(self, seed):
        rng = random.Random(seed)
        topology = two_level_tree()
        remos = Remos(random_view(topology, rng))
        hosts = sorted(n.name for n in topology.compute_nodes)
        timeframe = Timeframe.history(30.0)
        flat = remos.get_graph(hosts, timeframe, collapse="flat")
        hier = remos.get_graph(hosts, timeframe, collapse="hier")
        assert flat.collapse == "flat" and hier.collapse == "hier"
        assert canonical(flat) == canonical(hier)

    def test_subset_query_identical(self):
        rng = random.Random(42)
        topology = two_level_tree()
        remos = Remos(random_view(topology, rng))
        subset = ["h0-0", "h2-1", "h3-2"]
        timeframe = Timeframe.current()
        flat = remos.get_graph(subset, timeframe, collapse="flat")
        hier = remos.get_graph(subset, timeframe, collapse="hier")
        assert canonical(flat) == canonical(hier)

    def test_single_tor_query_shows_only_that_tor(self):
        topology = two_level_tree()
        remos = Remos(measured_view(topology, {}))
        hier = remos.get_graph(["h1-0", "h1-2"], Timeframe.current(), collapse="hier")
        assert {n.name for n in hier.nodes} == {"h1-0", "h1-2", "leaf1"}
        flat = remos.get_graph(["h1-0", "h1-2"], Timeframe.current(), collapse="flat")
        assert canonical(flat) == canonical(hier)


class TestMultipathFabrics:
    """Aggregates appear; path answers stay exact under uniform bundles."""

    @pytest.mark.parametrize("seed", [5, 6])
    def test_fat_tree_path_answers(self, seed):
        rng = random.Random(seed)
        topology = fat_tree(4)
        # Uniform load on every switch-switch direction; random loads on
        # the host access links.
        loads = {}
        for d in topology.iter_directions():
            host_side = topology.node(d.link.a).is_compute or topology.node(
                d.link.b
            ).is_compute
            loads[(d.link.name, d.src)] = (
                rng.uniform(0.0, mbps(300)) if host_side else mbps(400)
            )
        remos = Remos(measured_view(topology, loads))
        hosts = sorted(n.name for n in topology.compute_nodes)
        timeframe = Timeframe.history(30.0)
        flat = remos.get_graph(hosts, timeframe, collapse="flat")
        hier = remos.get_graph(hosts, timeframe, collapse="hier")
        pairs = [
            ("p0-e0-h0", "p3-e1-h1"),  # cross-pod
            ("p1-e0-h0", "p1-e1-h0"),  # cross-ToR, same pod
            ("p2-e0-h0", "p2-e0-h1"),  # same ToR
        ]
        for src, dst in pairs:
            assert hier.path_latency(src, dst) == pytest.approx(
                flat.path_latency(src, dst)
            )
            assert hier.path_available(src, dst) == flat.path_available(src, dst)

    def test_leaf_spine_aggregate_shape(self):
        topology = leaf_spine(4, 3, 2)
        remos = Remos(measured_view(topology, {}))
        hosts = sorted(n.name for n in topology.compute_nodes)
        hier = remos.get_graph(hosts, Timeframe.current(), collapse="hier")
        spine = hier.node("agg:spine")
        assert spine.aggregate and spine.member_count == 3
        assert not hier.node("leaf0").aggregate
        # One bundle per leaf, rolling up its 3 spine uplinks.
        bundle = next(e for e in hier.edges if {e.a, e.b} == {"leaf2", "agg:spine"})
        assert len(bundle.physical_links) == 3
        assert bundle.capacity == pytest.approx(3 * 10e9)
        # Serialisation carries the collapse markers.
        payload = hier.to_dict()
        assert payload["collapse"] == "hier"
        exported = {n["name"]: n for n in payload["nodes"]}
        assert exported["agg:spine"]["aggregate"] is True
        assert exported["agg:spine"]["member_count"] == 3

    def test_bundle_availability_is_conservative(self):
        # One hot uplink out of three: the bundle advertises the minimum.
        topology = leaf_spine(2, 3, 2)
        loads = {}
        for d in topology.iter_directions():
            if d.link.a == "leaf0" and d.link.b == "spine1" and d.src == "leaf0":
                loads[(d.link.name, d.src)] = mbps(900)
        remos = Remos(measured_view(topology, loads))
        hosts = sorted(n.name for n in topology.compute_nodes)
        hier = remos.get_graph(hosts, Timeframe.history(30.0), collapse="hier")
        bundle = next(e for e in hier.edges if {e.a, e.b} == {"leaf0", "agg:spine"})
        assert bundle.available["leaf0"].median == pytest.approx(10e9 - mbps(900))


class TestFlowAnswerPreservation:
    """Lazy capacity views == eager whole-network snapshots, bit for bit."""

    @pytest.mark.parametrize("seed", [7, 8, 9])
    def test_flow_info_pruned_equals_full(self, seed):
        rng = random.Random(seed)
        topology = fat_tree(4)
        remos = Remos(random_view(topology, rng))
        timeframe = Timeframe.history(30.0)
        flows = dict(
            fixed_flows=[Flow("p0-e0-h0", "p2-e1-h1", requested=mbps(40))],
            variable_flows=[
                Flow("p0-e0-h0", "p3-e0-h0"),
                Flow("p1-e1-h1", "p0-e0-h1"),
                Flow("p2-e0-h0", "p2-e1-h0"),
            ],
            independent_flows=[Flow("p3-e1-h0", "p0-e1-h0")],
        )
        pruned = remos.flow_info(timeframe=timeframe, **flows)
        modeler = remos._modeler()
        full = plan.evaluate(
            plan.LocalSource(modeler, timeframe).resolve,
            eager_pricer(modeler, timeframe),
            flows["fixed_flows"],
            flows["variable_flows"],
            flows["independent_flows"],
            timeframe,
        )
        assert pruned == full

    @pytest.mark.parametrize("seed", [10, 11])
    def test_admission_pruned_equals_full(self, seed):
        rng = random.Random(seed)
        topology = leaf_spine(4, 2, 3)
        remos = Remos(random_view(topology, rng))
        timeframe = Timeframe.history(30.0)
        flows = [
            Flow("leaf0-h0", "leaf3-h2", requested=mbps(500)),
            Flow("leaf1-h1", "leaf3-h2", requested=mbps(700)),
            Flow("leaf2-h0", "leaf0-h1", requested=mbps(50)),
        ]
        report = remos.check_admission(flows, timeframe)
        modeler = remos._modeler()
        requests = [
            FlowRequest(
                flow_id=flow.label(index, "fixed"),
                resources=modeler.resources_for_route(flow.src, flow.dst),
                requested=flow.requested,
                cap=flow.requested,
            )
            for index, flow in enumerate(flows)
        ]
        oracle = admission_report(
            modeler.available_capacities(timeframe, quantile="median"), requests
        )
        assert report == oracle

    def test_capacity_view_matches_eager_dict(self):
        rng = random.Random(12)
        topology = two_level_tree()
        remos = Remos(random_view(topology, rng))
        modeler = remos._modeler()
        timeframe = Timeframe.history(30.0)
        view = modeler.capacity_view(timeframe, quantile="q1")
        eager = modeler.available_capacities(timeframe, quantile="q1")
        for key, value in eager.items():
            assert view[key] == value
            assert key in view
        # Absent keys miss exactly like a dict.
        assert ("no-such-link", "a", "b") not in view
        assert view.get(("no-such-link", "a", "b"), -1.0) == -1.0
        with pytest.raises(KeyError):
            view[("xbar", "core")]  # infinite crossbar: omitted, like eager


class TestCollapseModes:
    def test_invalid_mode_rejected(self, idle_remos):
        with pytest.raises(QueryError, match="collapse"):
            idle_remos.get_graph(["h1", "h3"], collapse="bogus")

    def test_line_infers_two_tier_hierarchy(self):
        # The line is a legitimate two-tier shape (r1/r3 ToRs under r2).
        # The flat path chain-collapses the degree-2 spine (r1~r3) where
        # the hier path keeps it as a singleton group node, so the graphs
        # differ in resolution — but every path-level answer is identical.
        remos = Remos(measured_view(line_topology(), {("t23", "r2"): mbps(60)}))
        timeframe = Timeframe.history(30.0)
        hier = remos.get_graph(["h1", "h3"], timeframe, collapse="hier")
        flat = remos.get_graph(["h1", "h3"], timeframe, collapse="flat")
        assert hier.has_node("r2") and not flat.has_node("r2")
        assert hier.path_latency("h1", "h3") == pytest.approx(
            flat.path_latency("h1", "h3")
        )
        assert hier.path_available("h1", "h3") == flat.path_available("h1", "h3")

    def test_hier_on_non_hierarchical_topology_raises(self):
        remos = Remos(measured_view(router_ring(3, 2), {}))
        with pytest.raises(QueryError, match="hierarchical collapse unavailable"):
            remos.get_graph(["r0-h0", "r2-h1"], collapse="hier")
        # The failed inference is memoised; the second attempt answers the
        # same without re-walking the topology.
        with pytest.raises(QueryError, match="hierarchical collapse unavailable"):
            remos.get_graph(["r0-h0", "r2-h1"], collapse="hier")

    def test_auto_threshold(self):
        topology = leaf_spine(9, 2, 8)  # 72 hosts
        remos = Remos(measured_view(topology, {}))
        hosts = sorted(n.name for n in topology.compute_nodes)
        below = remos.get_graph(hosts[:AUTO_COLLAPSE_THRESHOLD], Timeframe.current())
        assert below.collapse == "flat"
        above = remos.get_graph(hosts, Timeframe.current())
        assert above.collapse == "hier"

    def test_single_switch_star_degenerates_cleanly(self):
        # One big star is the degenerate single-ToR hierarchy: auto mode
        # may collapse it, and the result equals the flat graph exactly
        # (the lone group is a singleton).
        builder = TopologyBuilder("star").router("sw")
        names = [f"h{i}" for i in range(72)]
        for name in names:
            builder.host(name).link(name, "sw", "1Gbps", "0.1ms")
        remos = Remos(measured_view(builder.build(), {}))
        auto = remos.get_graph(names, Timeframe.current())
        assert auto.collapse == "hier"
        flat = remos.get_graph(names, Timeframe.current(), collapse="flat")
        assert canonical(auto) == canonical(flat)

    def test_auto_falls_back_flat_without_hierarchy(self):
        # 72 hosts on a router ring (a flat multi-ToR fabric): inference
        # refuses, and auto mode must quietly keep the flat path.
        topology = router_ring(6, 12)
        names = sorted(n.name for n in topology.compute_nodes)
        remos = Remos(measured_view(topology, {}))
        graph = remos.get_graph(names, Timeframe.current())
        assert graph.collapse == "flat"


class TestEpochLifecycle:
    def test_metrics_only_sweep_keeps_tree(self):
        topology = leaf_spine(3, 2, 2)
        view = measured_view(topology, {})
        remos = Remos(view)
        hosts = sorted(n.name for n in topology.compute_nodes)
        remos.get_graph(hosts, Timeframe.history(30.0), collapse="hier")
        modeler = remos._modeler()
        tree = modeler._collapse
        assert tree is not None
        view.metrics.record("leaf0-h0--leaf0", "leaf0-h0", 30.0, mbps(10))
        view.record_sweep({("leaf0-h0--leaf0", "leaf0-h0")})
        remos.get_graph(hosts, Timeframe.history(30.0), collapse="hier")
        assert remos._modeler()._collapse is tree

    def test_structural_change_rebuilds_tree(self):
        topology = leaf_spine(3, 2, 2)
        view = measured_view(topology, {})
        remos = Remos(view)
        hosts = sorted(n.name for n in topology.compute_nodes)
        remos.get_graph(hosts, Timeframe.current(), collapse="hier")
        tree = remos._modeler()._collapse
        # The collector replaces the topology object on a discovery change.
        view.topology = leaf_spine(4, 2, 2)
        view.record_structure_change()
        new_hosts = sorted(n.name for n in view.topology.compute_nodes)
        graph = remos.get_graph(new_hosts, Timeframe.current(), collapse="hier")
        assert len(graph.query_nodes) == 8
        new_tree = remos._modeler()._collapse
        assert new_tree is not None and new_tree is not tree

    def test_snapshot_epochs_share_tree(self):
        topology = leaf_spine(3, 2, 2)
        view = measured_view(topology, {})
        publisher = SnapshotPublisher(view)
        first = publisher.refresh()
        hosts = sorted(n.name for n in topology.compute_nodes)
        first.modeler.logical_graph(hosts, Timeframe.history(30.0), collapse="hier")
        tree = first.modeler._collapse
        assert tree is not None
        view.metrics.record("leaf1-h0--leaf1", "leaf1-h0", 40.0, mbps(25))
        view.record_sweep({("leaf1-h0--leaf1", "leaf1-h0")})
        second = publisher.refresh()
        assert second is not first
        assert second.modeler._collapse is tree

    def test_fork_drops_tree_on_structural_change(self):
        topology = leaf_spine(3, 2, 2)
        view = measured_view(topology, {})
        publisher = SnapshotPublisher(view)
        first = publisher.refresh()
        hosts = sorted(n.name for n in topology.compute_nodes)
        first.modeler.logical_graph(hosts, Timeframe.current(), collapse="hier")
        assert first.modeler._collapse is not None
        view.topology = leaf_spine(3, 3, 2)
        view.record_structure_change()
        second = publisher.refresh()
        assert second.modeler._collapse is None
