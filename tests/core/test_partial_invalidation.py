"""Sweeps under the incremental view pipeline stay bit-exact.

The contract under test (docs/PERFORMANCE.md, "Invalidation model"): a
metrics-only sweep starts a new epoch that reprices from the swept series,
while the structural layers — graph plans, routing tables — survive it;
every answer is **bit-identical** to a full recompute, including the case
where advancing the evaluation clock ages samples out of an *untouched*
direction's summary window.
"""

import random

import pytest

from repro.collector import CollectorMaster, MetricsStore
from repro.collector.base import NetworkView
from repro.core import Flow, Remos, Timeframe
from repro.util import mbps

from tests.collector.test_master_incremental import ScriptedCollector
from tests.core.conftest import line_topology, measured_view


def _flows(remos, timeframe):
    return remos.flow_info(
        variable_flows=[Flow("h1", "h3"), Flow("h2", "h4")], timeframe=timeframe
    )


class TestPartialEviction:
    def test_metrics_only_sweep_evicts_only_touched_entries(self):
        view = measured_view(line_topology(), {("t23", "r2"): mbps(20)})
        remos = Remos(view)
        cold = Remos(view, enable_cache=False)
        timeframe = Timeframe.history(30.0)
        before = _flows(remos, timeframe)
        # Enough heavy samples to move the 30 s-window median, at times
        # close enough that nothing ages out of the untouched windows.
        for i in range(25):
            view.metrics.record("t23", "r2", 20.0 + 0.4 * i, mbps(80))
        view.record_sweep({("t23", "r2")})
        after = _flows(remos, timeframe)
        assert after != before
        assert after.variable[0].bandwidth.median < before.variable[0].bandwidth.median
        assert after == _flows(cold, timeframe)

    def test_graph_cache_survives_sweeps_off_its_links(self):
        """What a metrics-only sweep leaves of a graph: its plan."""
        view = measured_view(line_topology(), {})
        remos = Remos(view)
        cold = Remos(view, enable_cache=False)
        stats = remos.cache_stats
        timeframe = Timeframe.history(30.0)
        first = remos.get_graph(["h1", "h2"], timeframe)  # h1-r1-h2: no trunk
        assert stats.per_cache["graph_plan"] == {"hits": 0, "misses": 1}

        view.metrics.record("t23", "r2", 20.0, mbps(50))
        view.record_sweep({("t23", "r2")})
        again = remos.get_graph(["h1", "h2"], timeframe)
        assert again.to_dict() == first.to_dict()
        assert stats.per_cache["graph_plan"] == {"hits": 1, "misses": 1}

        # A sweep touching a link the graph *does* cross moves the answer;
        # the plan still stands.
        link = view.topology.links_at("h1")[0].name
        view.metrics.record(link, "h1", 21.0, mbps(50))
        view.record_sweep({(link, "h1")})
        moved = remos.get_graph(["h1", "h2"], timeframe)
        assert moved.to_dict() == cold.get_graph(["h1", "h2"], timeframe).to_dict()
        assert moved.to_dict() != first.to_dict()
        assert stats.per_cache["graph_plan"] == {"hits": 2, "misses": 1}

    def test_window_aging_of_untouched_direction_is_detected(self):
        # t12 has only old samples; sweeping t23 alone jumps the evaluation
        # clock far enough that they age out of t12's 30 s history window,
        # so the untouched direction's price moves with the new epoch.
        topology = line_topology()
        metrics = MetricsStore()
        for i in range(5):
            metrics.record("t12", "r1", float(i), mbps(50))
        metrics.record("t23", "r2", 0.0, mbps(10))
        view = NetworkView(topology=topology, metrics=metrics)
        cached = Remos(view)
        uncached = Remos(view, enable_cache=False)
        timeframe = Timeframe.history(30.0)
        assert _flows(cached, timeframe) == _flows(uncached, timeframe)
        metrics.record("t23", "r2", 40.0, mbps(10))
        view.record_sweep({("t23", "r2")})
        assert _flows(cached, timeframe) == _flows(uncached, timeframe)

    def test_in_place_structure_change_revalidates_routing(self):
        view = measured_view(line_topology(), {})
        remos = Remos(view)
        remos.get_graph(["h1", "h3"])
        routing = remos._modeler().routing
        # Identical rebuild: the table survives, rebased onto the new object.
        view.topology = line_topology()
        view.record_structure_change()
        remos.get_graph(["h1", "h3"])
        assert remos._modeler().routing is routing
        assert remos._modeler().routing.topology is view.topology
        assert remos.cache_stats.routing_rebuilds == 0
        # A genuinely different structure forces a rebuild.
        grown = line_topology()
        grown.add_compute_node("h5")
        grown.add_link("h5", "r1", mbps(100), 1e-4, name="l-h5")
        view.topology = grown
        view.record_structure_change()
        remos.get_graph(["h1", "h5"])
        assert remos._modeler().routing is not routing
        assert remos.cache_stats.routing_rebuilds == 1


class TestIncrementalMatchesFullRebuild:
    """Randomized sweep sequences: incremental == full-rebuild, bit for bit."""

    @pytest.mark.parametrize("seed", [7, 1998])
    def test_randomized_sweeps_differential(self, seed):
        rng = random.Random(seed)
        child1, child2 = self._children()
        collectors = [child1, child2]
        incremental = CollectorMaster(None, [c for c in collectors])
        rebuild = CollectorMaster(None, [c for c in collectors], full_rebuild=True)
        remos_inc = Remos(incremental)
        remos_ref = Remos(rebuild, enable_cache=False)
        keys = {child1: self._keys(child1, "h1", "h2"), child2: self._keys(child2, "h3", "h4")}
        keys[child2][0] = ("t12", "r1")  # deliberate series conflict with child1
        timeframes = (Timeframe.current(), Timeframe.history(15.0), Timeframe.future(20.0))
        for round_no in range(20):
            time = 5.0 * (round_no + 1)
            for child in collectors:
                touched = set()
                for key in keys[child]:
                    if rng.random() < 0.5:
                        self._sample(child, key, time, rng)
                        touched.add(key)
                if round_no == 8 and child is child1:
                    child.view().bump_generation()  # journal gap
                elif round_no == 13 and child is child2:
                    # Identical rebuild: structural stamp, same structure.
                    view = child.view()
                    view.topology = self._line()
                    view.record_structure_change()
                else:
                    child.view().record_sweep(touched)
            incremental.refresh()
            rebuild.refresh()
            for timeframe in timeframes:
                assert _flows(remos_inc, timeframe) == _flows(remos_ref, timeframe)
            graph_inc = remos_inc.get_graph(["h1", "h3", "h4"], Timeframe.history(15.0))
            graph_ref = remos_ref.get_graph(["h1", "h3", "h4"], Timeframe.history(15.0))
            assert graph_inc.to_dict() == graph_ref.to_dict()
            assert remos_inc.node_info("h1") == remos_ref.node_info("h1")
            assert remos_inc.node_info("h3") == remos_ref.node_info("h3")
        # The point of the exercise: most refreshes really were incremental.
        assert incremental.delta_merges >= 10
        assert rebuild.delta_merges == 0

    @staticmethod
    def _line():
        return line_topology()

    def _children(self):
        return (
            ScriptedCollector(NetworkView(topology=self._line(), metrics=MetricsStore())),
            ScriptedCollector(NetworkView(topology=self._line(), metrics=MetricsStore())),
        )

    @staticmethod
    def _keys(child, *hosts):
        topo = child.view().topology
        keys = [("t12", "r1"), ("t12", "r2"), ("t23", "r2"), ("t23", "r3")]
        for host in hosts:
            keys.append((topo.links_at(host)[0].name, host))
            keys.append(("cpu", host))
        return keys

    @staticmethod
    def _sample(child, key, time, rng):
        link, src = key
        metrics = child.view().metrics
        if link == "cpu":
            metrics.record_cpu(src, time + rng.random(), rng.uniform(0.1, 0.9))
        else:
            metrics.record(link, src, time + rng.random(), rng.uniform(0.0, mbps(80)))
