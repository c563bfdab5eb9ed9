"""The generation-stamped query cache: correctness, invalidation, stats.

The staleness contract under test (docs/PERFORMANCE.md): a cached answer
is exact for its generation and is never served across generations —
identical queries against one generation are pure cache hits with equal
answers, and any collector sweep that changes utilization must change the
answers.
"""

import pytest

from repro.collector import MetricsStore, SNMPCollector
from repro.collector.base import NetworkView
from repro.core import Flow, Remos, Timeframe
from repro.net import RoutingTable
from repro.testbed import World
from repro.util import mbps

from tests.core.conftest import line_topology, measured_view


def _query(remos):
    return remos.flow_info(
        variable_flows=[Flow("h1", "h3"), Flow("h2", "h4")],
        timeframe=Timeframe.history(30.0),
    )


class TestCachedEqualsUncached:
    def test_flow_info_identical_with_and_without_cache(self):
        view = measured_view(line_topology(), {("t23", "r2"): mbps(60)})
        cached = Remos(view)
        uncached = Remos(view, enable_cache=False)
        assert _query(cached) == _query(uncached)
        # A second pass through the warm cache still matches the cold path.
        assert _query(cached) == _query(uncached)
        assert cached.cache_stats.hits > 0
        assert uncached.cache_stats.hits == 0 and uncached.cache_stats.misses == 0

    def test_uncached_array_path_records_no_hits(self):
        """A 12-flow query takes the array path (numpy live); off is off."""
        view = measured_view(line_topology(), {("t23", "r2"): mbps(60)})
        hosts = ["h1", "h2", "h3", "h4"]
        flows = [Flow(a, b) for a in hosts for b in hosts if a != b]
        cached, uncached = Remos(view), Remos(view, enable_cache=False)
        for timeframe in (Timeframe.history(30.0), Timeframe.current()):
            for _ in range(2):
                assert cached.flow_info(
                    variable_flows=flows, timeframe=timeframe
                ) == uncached.flow_info(variable_flows=flows, timeframe=timeframe)
        assert cached.cache_stats.hits > 0
        assert uncached.cache_stats.hits == 0 and uncached.cache_stats.misses == 0
        assert uncached.cache_stats.hit_rate == 0.0

    def test_get_graph_identical_with_and_without_cache(self):
        view = measured_view(line_topology(), {("t12", "r1"): mbps(30)})
        cached = Remos(view)
        uncached = Remos(view, enable_cache=False)
        nodes = ["h1", "h3", "h4"]
        timeframe = Timeframe.history(30.0)
        warm = cached.get_graph(nodes, timeframe)
        warm_again = cached.get_graph(nodes, timeframe)
        cold = uncached.get_graph(nodes, timeframe)
        assert warm.to_dict() == cold.to_dict()
        assert warm_again is warm  # second query is the cached object

    def test_node_info_identical_with_and_without_cache(self):
        topology = line_topology()
        metrics = MetricsStore()
        for i in range(10):
            metrics.record_cpu("h1", float(i), 0.25 + 0.01 * i)
        view = NetworkView(topology=topology, metrics=metrics)
        cached, uncached = Remos(view), Remos(view, enable_cache=False)
        assert cached.node_info("h1") == uncached.node_info("h1")


class TestPureHitsWithinGeneration:
    def test_second_identical_flow_query_is_pure_hit(self):
        view = measured_view(line_topology(), {("t23", "r2"): mbps(40)})
        remos = Remos(view)
        first = _query(remos)
        misses_after_first = remos.cache_stats.misses
        hits_after_first = remos.cache_stats.hits
        second = _query(remos)
        assert first == second
        # Pure hit: no new misses, only hits, no invalidation.
        assert remos.cache_stats.misses == misses_after_first
        assert remos.cache_stats.hits > hits_after_first
        assert remos.cache_stats.invalidations == 0

    def test_graph_cache_respects_query_order(self):
        view = measured_view(line_topology(), {})
        remos = Remos(view)
        timeframe = Timeframe.current()
        forward = remos.get_graph(["h1", "h3"], timeframe)
        backward = remos.get_graph(["h3", "h1"], timeframe)
        assert forward.query_nodes == ["h1", "h3"]
        assert backward.query_nodes == ["h3", "h1"]

    def test_query_stats_are_recorded(self):
        remos = Remos(measured_view(line_topology(), {}))
        _query(remos)
        remos.get_graph(["h1", "h4"])
        stats = remos.cache_stats
        assert stats.queries == 2
        assert stats.query_time > 0.0
        assert 0.0 <= stats.hit_rate <= 1.0
        assert set(stats.to_dict()) >= {"hits", "misses", "invalidations", "queries"}


class TestGenerationInvalidation:
    def test_bumped_generation_drops_cached_answers(self):
        topology = line_topology()
        view = measured_view(topology, {("t23", "r2"): mbps(20)})
        remos = Remos(view)
        before = _query(remos)
        # New sweep: heavier load on t23 eastbound, stamped as a new
        # generation exactly like a collector would.
        for i in range(20, 40):
            view.metrics.record("t23", "r2", float(i), mbps(80))
        view.bump_generation()
        after = _query(remos)
        assert remos.cache_stats.invalidations >= 1
        assert after != before
        assert (
            after.variable[0].bandwidth.median < before.variable[0].bandwidth.median
        )

    def test_collector_sweep_changes_flow_info_answers(self):
        """End to end: SNMP sweeps bump generations; answers track traffic."""
        world = World.from_topology(line_topology(), poll_interval=1.0)
        remos = world.start_monitoring(warmup=3.0)
        idle = remos.flow_info(
            variable_flows=[Flow("h1", "h3")], timeframe=Timeframe.current()
        )
        generation_idle = world.collector.view().generation
        # External traffic crossing the backbone, then more sweeps.
        world.net.open_flow("h2", "h4", demand=mbps(60), weight=1000.0)
        world.settle(5.0)
        loaded = remos.flow_info(
            variable_flows=[Flow("h1", "h3")], timeframe=Timeframe.current()
        )
        assert world.collector.view().generation > generation_idle
        assert (
            loaded.variable[0].bandwidth.median < idle.variable[0].bandwidth.median
        )
        # Since the incremental rework a sweep that enumerates what it
        # touched is applied as a partial invalidation; either way the
        # stale entries must have been dropped.
        assert (
            remos.cache_stats.invalidations + remos.cache_stats.partial_invalidations
            >= 1
        )

    def test_generation_monotone_per_sweep(self):
        world = World.from_topology(line_topology(), poll_interval=1.0)
        world.start_monitoring()
        view = world.collector.view()
        first = view.generation
        world.settle(3.0)
        assert view.generation > first
        assert view.generation - first == pytest.approx(3, abs=1)


class TestFutureCacheInvalidation:
    def test_future_entry_not_served_across_time_shift(self):
        """A FUTURE answer never survives an advancing evaluation clock.

        The metrics-only sweep touches *only* h4's access link — every
        series on the queried h1->h3 path is untouched, so their version
        stamps still match — yet ``Modeler.now`` (the latest timestamp
        across the whole store) has advanced, which moves the forecast
        origin.  The cached FUTURE entries must be recomputed, not served
        stale.
        """
        topology = line_topology()
        view = measured_view(topology, {("t23", "r2"): mbps(30)})
        remos = Remos(view)
        timeframe = Timeframe.future(10.0, predictor="ewma", window=60.0)

        def query():
            return remos.flow_info(
                variable_flows=[Flow("h1", "h3")], timeframe=timeframe
            )

        query()
        backtester = remos._modeler().evaluator.backtester
        recorded_first = backtester.recorded
        assert recorded_first > 0

        # Partial sweep off the queried path, advancing the clock 19 -> 100.
        view.metrics.record("h4--r3", "h4", 100.0, 0.0)
        view.record_sweep({("h4--r3", "h4")})

        misses_before = remos.cache_stats.per_cache["bandwidth"]["misses"]
        query()
        # Recomputed (bandwidth misses grew beyond the one touched entry),
        # and the evaluator filed fresh predictions at the new origin
        # (recording is deduped per made_at, so stale reuse records nothing).
        assert remos.cache_stats.per_cache["bandwidth"]["misses"] > misses_before
        assert backtester.recorded > recorded_first
        assert remos.cache_stats.invalidations == 0  # partial path, not a flush

    def test_history_entry_survives_the_same_time_shift(self):
        """Contrast: a HISTORY window that provably did not move survives
        the identical sweep — only FUTURE is time-origin-bound
        unconditionally."""
        topology = line_topology()
        view = measured_view(topology, {("t23", "r2"): mbps(30)})
        remos = Remos(view)

        def query():
            return remos.flow_info(
                variable_flows=[Flow("h1", "h3")],
                timeframe=Timeframe.history(1000.0),
            )

        before = query()
        view.metrics.record("h4--r3", "h4", 100.0, 0.0)
        view.record_sweep({("h4--r3", "h4")})
        misses_before = remos.cache_stats.per_cache["bandwidth"]["misses"]
        after = query()
        assert after == before
        # No sample ages out of the 1000 s windows: every path entry
        # revalidates; only the swept (off-path) direction could miss.
        assert (
            remos.cache_stats.per_cache["bandwidth"]["misses"] == misses_before
        )


class TestModelerReuseAcrossRefreshes:
    def test_routing_table_survives_in_place_refresh(self):
        world = World.from_topology(line_topology(), poll_interval=1.0)
        remos = world.start_monitoring(warmup=2.0)
        remos.get_graph(["h1", "h3"])
        modeler = remos._modeler()
        routing = modeler.routing
        world.settle(3.0)  # more sweeps, same topology object
        remos.get_graph(["h1", "h3"])
        # Snapshot publication forks a fresh Modeler per epoch, but the
        # routing table (topology unchanged) is shared across the fork.
        assert remos._modeler().routing is routing
        assert remos.cache_stats.routing_rebuilds == 0

    def test_routing_validity_check(self):
        topo_a = line_topology()
        topo_b = line_topology()  # structurally identical, distinct object
        routing = RoutingTable(topo_a)
        assert routing.is_valid_for(topo_a)
        assert routing.is_valid_for(topo_b)
        # A structural change (different latency) invalidates the table.
        from repro.net import TopologyBuilder

        different = (
            TopologyBuilder("line")
            .hosts(["h1", "h2", "h3", "h4"])
            .router("r1")
            .router("r2")
            .router("r3")
            .link("h1", "r1", "100Mbps", "0.1ms")
            .link("h2", "r1", "100Mbps", "0.1ms")
            .link("r1", "r2", "100Mbps", "5ms", name="t12")
            .link("r2", "r3", "100Mbps", "1ms", name="t23")
            .link("h3", "r3", "100Mbps", "0.1ms")
            .link("h4", "r3", "100Mbps", "0.1ms")
            .build()
        )
        assert not routing.is_valid_for(different)


class TestMetricsStoreTimestamp:
    def test_latest_timestamp_tracks_all_series(self):
        metrics = MetricsStore()
        assert metrics.latest_timestamp() == 0.0
        metrics.record("l1", "a", 5.0, 1.0)
        metrics.record("l2", "b", 9.0, 1.0)
        metrics.record("l1", "a", 7.0, 1.0)
        assert metrics.latest_timestamp() == 9.0

    def test_latest_timestamp_after_merge(self):
        left, right = MetricsStore(), MetricsStore()
        left.record("l1", "a", 3.0, 1.0)
        right.record("l2", "b", 11.0, 1.0)
        left.merge_from(right)
        assert left.latest_timestamp() == 11.0

    def test_modeler_now_matches_store(self):
        view = measured_view(line_topology(), {}, samples=5)
        from repro.core import Modeler

        assert Modeler(view).now == view.metrics.latest_timestamp() == 4.0
