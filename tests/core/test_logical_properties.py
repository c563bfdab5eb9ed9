"""Property tests: logical topologies stay faithful to physical behaviour."""

import random

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.core import Flow, Remos, Timeframe
from repro.net import NodeKind, RoutingTable, Topology, fat_tree, leaf_spine
from repro.util import make_rng

from tests.core.conftest import measured_view
from tests.core.test_price_memo import sampled_view, tree_topology


def random_topology(seed: int) -> tuple[Topology, list[str]]:
    """Random host/router tree with occasional extra cross links."""
    rng = make_rng(seed)
    topology = Topology(name=f"prop{seed}")
    n_routers = int(rng.integers(1, 5))
    routers = [f"r{i}" for i in range(n_routers)]
    for router in routers:
        topology.add_network_node(router)
    for i in range(1, n_routers):
        j = int(rng.integers(0, i))
        topology.add_link(
            routers[i],
            routers[j],
            float(rng.choice([10e6, 100e6, 1e9])),
            float(rng.uniform(1e-4, 5e-3)),
        )
    hosts = [f"h{i}" for i in range(int(rng.integers(2, 7)))]
    for host in hosts:
        topology.add_compute_node(host)
        router = routers[int(rng.integers(0, n_routers))]
        topology.add_link(
            host, router, float(rng.choice([10e6, 100e6])), float(rng.uniform(1e-4, 1e-3))
        )
    return topology, hosts


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(min_value=0, max_value=100_000))
def test_logical_graph_invariants(seed):
    topology, hosts = random_topology(seed)
    remos = Remos(measured_view(topology, {}))
    graph = remos.get_graph(hosts, Timeframe.current())

    # Every queried node survives pruning.
    for host in hosts:
        assert graph.has_node(host)

    # No pass-through degree-2 router without a host neighbour remains.
    for node in graph.nodes:
        if node.kind is NodeKind.NETWORK:
            edges = graph.edges_at(node.name)
            host_neighbour = any(
                graph.node(e.other(node.name)).is_compute for e in edges
            )
            assert host_neighbour or len(edges) != 2 or node.internal_bandwidth != float("inf")

    routing = RoutingTable(topology)
    for src in hosts:
        for dst in hosts:
            if src == dst:
                continue
            route = routing.route(src, dst)
            # Latency is preserved through collapses.
            assert graph.path_latency(src, dst) == pytest.approx(route.latency, rel=1e-9)
            # Idle-network availability equals the physical bottleneck.
            assert graph.path_available(src, dst).median == pytest.approx(
                route.capacity, rel=1e-9
            )


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(min_value=0, max_value=100_000))
def test_logical_graph_is_smaller_or_equal(seed):
    """Information hiding: the logical graph never exceeds the physical."""
    topology, hosts = random_topology(seed)
    remos = Remos(measured_view(topology, {}))
    graph = remos.get_graph(hosts, Timeframe.current())
    assert len(graph.nodes) <= len(topology.nodes)
    assert len(graph.edges) <= len(topology.links)


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(min_value=0, max_value=100_000))
def test_subset_queries_are_consistent(seed):
    """A two-node query agrees with the all-hosts query on their pair."""
    topology, hosts = random_topology(seed)
    if len(hosts) < 3:
        return
    remos = Remos(measured_view(topology, {}))
    full = remos.get_graph(hosts, Timeframe.current())
    pair = remos.get_graph(hosts[:2], Timeframe.current())
    src, dst = hosts[0], hosts[1]
    assert pair.path_available(src, dst).median == pytest.approx(
        full.path_available(src, dst).median, rel=1e-9
    )
    assert pair.path_latency(src, dst) == pytest.approx(
        full.path_latency(src, dst), rel=1e-9
    )


# -- flows predicted on the graph (Eyraud-Dubois et al.'s validity bar) ------

FABRICS = {
    "tree": lambda: tree_topology(16),
    "fat_tree": lambda: fat_tree(4),
    "leaf_spine": lambda: leaf_spine(4, 2, 4),
}
LEVELS = ("minimum", "q1", "median", "q3", "maximum", "mean")
PROPERTY_TIMEFRAMES = (Timeframe.current(), Timeframe.history(5.0), Timeframe.static())


@pytest.fixture(scope="module", params=sorted(FABRICS))
def fabric(request):
    topology = FABRICS[request.param]()
    remos = Remos(sampled_view(topology, random.Random(request.param)))
    return remos, sorted(host.name for host in topology.compute_nodes)


@settings(
    max_examples=20,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(data=st.data())
def test_flows_predicted_on_the_graph_match_flow_info(fabric, data):
    """A single flow predicted on the returned graph gets what ``flow_info``
    grants it: exactly on the flat graph, never more on a rolled-up one."""
    remos, hosts = fabric
    nodes = data.draw(st.lists(st.sampled_from(hosts), min_size=2, max_size=8, unique=True))
    timeframe = data.draw(st.sampled_from(PROPERTY_TIMEFRAMES))
    flat = remos.get_graph(nodes, timeframe, collapse="flat")
    hier = remos.get_graph(nodes, timeframe, collapse="hier")
    for src in nodes:
        for dst in nodes:
            if src == dst:
                continue
            granted = remos.flow_info(
                variable_flows=[Flow(src, dst)], timeframe=timeframe
            ).variable[0].bandwidth
            exact, rolled = flat.path_available(src, dst), hier.path_available(src, dst)
            for level in LEVELS:
                assert getattr(exact, level) == getattr(granted, level)
                assert getattr(rolled, level) <= getattr(granted, level)
