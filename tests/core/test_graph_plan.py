"""Graph plans: the collapsed graph is built once per structure, priced per epoch.

Counts, not times: across metrics-only sweeps a repeated ``get_graph``
builds no plan and routes nothing; a structural change rebuilds it; the
cache off-switch changes no answer; racing readers agree on one graph.
"""

import random
import sys
import threading

import pytest

from repro.core import Remos, Timeframe
from repro.core import modeler as modeler_module
from repro.net import RoutingTable, TopologyBuilder

from tests.core.test_price_memo import sampled_view

TIMEFRAMES = (Timeframe.current(), Timeframe.history(5.0), Timeframe.static())


def tree(compute_speed: float = 1e8):
    """core -- two leaf routers -- four hosts each."""
    builder = TopologyBuilder("tree8").router("core")
    for leaf in range(2):
        builder.router(f"leaf{leaf}").link(f"leaf{leaf}", "core", "1Gbps", "0.5ms")
        for index in range(4 * leaf, 4 * leaf + 4):
            builder.host(f"h{index}", compute_speed=compute_speed)
            builder.link(f"h{index}", f"leaf{leaf}", "100Mbps", "0.1ms")
    return builder.build()


def sweep(view, now: float, rng: random.Random) -> None:
    """A metrics-only sweep touching every direction."""
    touched = set()
    for direction in view.topology.iter_directions():
        load = rng.uniform(0.0, 0.5) * direction.capacity
        view.metrics.record(direction.link.name, direction.src, now, load)
        touched.add((direction.link.name, direction.src))
    view.record_sweep(touched)


@pytest.fixture
def routing_calls(monkeypatch):
    """Calls of ``RoutingTable.next_hop`` and ``.route`` on every table."""
    calls = {"next_hop": 0, "route": 0}
    for name in calls:
        original = getattr(RoutingTable, name)

        def counted(self, *args, _name=name, _original=original):
            calls[_name] += 1
            return _original(self, *args)

        monkeypatch.setattr(RoutingTable, name, counted)
    return calls


def plan_counts(remos) -> dict:
    return remos.cache_stats.per_cache["graph_plan"]


class TestPlanCounts:
    @pytest.mark.parametrize("collapse", ["flat", "hier"])
    def test_metrics_only_sweeps_build_no_plan_and_route_nothing(
        self, routing_calls, collapse
    ):
        view = sampled_view(tree(), random.Random(3))
        remos, cold = Remos(view), Remos(view, enable_cache=False)
        nodes = ["h5", "h0", "h3", "h6"]
        for timeframe in TIMEFRAMES:
            remos.get_graph(nodes, timeframe, collapse)
        if collapse == "flat":
            assert routing_calls["next_hop"] > 0  # the counter sees a build
        assert plan_counts(remos) == {"hits": 2, "misses": 1}

        rng = random.Random(4)
        for now in (12.0, 13.0, 14.0):
            sweep(view, now, rng)
            for timeframe in TIMEFRAMES:
                before = dict(routing_calls)
                answer = remos.get_graph(nodes, timeframe, collapse)
                assert routing_calls == before
                assert answer.to_dict() == cold.get_graph(nodes, timeframe, collapse).to_dict()
                assert remos.get_graph(nodes, timeframe, collapse) is answer
        assert plan_counts(remos) == {"hits": 2 + 3 * len(TIMEFRAMES), "misses": 1}

    def test_structural_change_rebuilds_the_plan(self):
        view = sampled_view(tree(), random.Random(5))
        remos = Remos(view)
        nodes = ["h1", "h6"]
        assert remos.get_graph(nodes).node("h1").compute_speed == 1e8
        # Same links, different node attributes: the routing table is kept,
        # but a plan froze the old nodes and must go.
        view.topology = tree(compute_speed=3e8)
        view.record_structure_change()
        assert remos.get_graph(nodes).node("h1").compute_speed == 3e8
        assert plan_counts(remos) == {"hits": 0, "misses": 2}
        assert remos.cache_stats.routing_rebuilds == 0

    def test_plans_are_bounded_oldest_first(self, monkeypatch):
        monkeypatch.setattr(modeler_module, "_MAX_GRAPH_PLANS", 3)
        remos = Remos(sampled_view(tree(), random.Random(6)))
        orders = [["h0", "h4"], ["h4", "h0"], ["h1", "h5"], ["h5", "h1"], ["h2", "h7"]]
        for nodes in orders:
            remos.get_graph(nodes)
        plans = remos._modeler()._graph_plans.plans
        assert [list(key[0]) for key in plans] == orders[2:]
        remos.get_graph(orders[0], Timeframe.static())  # rebuilt on demand
        assert plan_counts(remos) == {"hits": 0, "misses": 6}


class TestRacingReaders:
    def test_readers_racing_to_build_one_plan_get_one_graph(self):
        view = sampled_view(tree(), random.Random(7))
        remos, cold = Remos(view), Remos(view, enable_cache=False)
        remos.publish()
        hosts = [f"h{i}" for i in range(8)]
        rng = random.Random(8)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for _ in range(10):
                nodes = rng.sample(hosts, 5)  # a fresh plan key each round
                barrier = threading.Barrier(8)
                graphs = []

                def read():
                    barrier.wait(timeout=10)
                    graphs.append(remos.get_graph(nodes, Timeframe.current()))

                threads = [threading.Thread(target=read) for _ in range(8)]
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join(timeout=30)
                assert not any(thread.is_alive() for thread in threads)
                assert len(graphs) == 8
                # Losers of the race are handed the winner's graph.
                assert all(graph is graphs[0] for graph in graphs)
                assert graphs[0].to_dict() == cold.get_graph(nodes).to_dict()
        finally:
            sys.setswitchinterval(interval)
        assert len(remos._modeler()._graph_plans.plans) == 10
