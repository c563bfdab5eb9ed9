"""Integration: a real query over the testbed emits the promised telemetry.

Enables the full observability layer, runs the CMU testbed with its SNMP
collector, issues ``remos_flow_info`` / ``remos_get_graph`` calls, and
asserts the span tree, counters, and combined telemetry snapshot that
``docs/OBSERVABILITY.md`` documents.
"""

import pytest

from repro import obs
from repro.core import Flow, MulticastFlow, Timeframe, remos_flow_info
from repro.core.snaparrays import vectorizable
from repro.fairshare import vectorized
from repro.testbed import build_cmu_testbed

HOSTS = ["m-1", "m-4", "m-6"]
WARMUP = 5.0


@pytest.fixture()
def remos():
    obs.configure_observability(metrics=True, tracing=True, logging=False)
    world = build_cmu_testbed(poll_interval=1.0)
    return world.start_monitoring(warmup=WARMUP)


def query(remos, hosts=HOSTS):
    flows = [
        Flow(src, dst, name=f"{src}->{dst}")
        for src in hosts
        for dst in hosts
        if src != dst
    ]
    return remos_flow_info(
        remos, variable_flows=flows, timeframe=Timeframe.history(WARMUP)
    )


def on_array_path(n_flows: int) -> bool:
    """Would a query of *n_flows* unicast flows take the array evaluator?
    It allocates all six levels under one span; the scalar plan one each."""
    return vectorizable([], [Flow("m-1", "m-4")] * n_flows, [])


class TestFlowInfoSpanTree:
    def test_cold_query_builds_routing_inside_the_query_span(self, remos):
        query(remos)
        trace = obs.get_tracer().last_trace("query.flow_info")
        assert trace is not None
        child_names = [child.name for child in trace.children()]
        # The first query constructs the Modeler, whose routing table fills
        # lazily (one per-source Dijkstra span per node the query touches)
        # inside the query — then one fair-share allocation per
        # availability quantile (5 quartiles + mean).
        assert child_names.count("routing.build") >= 1
        assert child_names.count("fairshare.allocate") == (1 if on_array_path(6) else 6)

    def test_warm_query_span_tree_and_attributes(self, remos):
        query(remos)
        result = query(remos)
        assert len(result.variable) == len(HOSTS) * (len(HOSTS) - 1)

        trace = obs.get_tracer().last_trace("query.flow_info")
        assert [child.name for child in trace.children()] == [
            "fairshare.allocate"
        ] * (1 if on_array_path(6) else 6)
        assert trace.attributes["flow_count"] == 6
        assert trace.attributes["variable"] == 6
        assert trace.attributes["generation"] >= 1
        # The warm pass is served from the generation-stamped caches.
        assert trace.attributes["cache_hits"] > 0
        assert trace.attributes["cache_misses"] == 0
        for child in trace.children():
            assert child.trace_id == trace.trace_id
            assert child.attributes["resources"] > 0
        assert trace.duration > 0

    def test_warm_array_path_query_allocates_under_one_span(self, remos):
        hosts = [*HOSTS, "m-8"]  # 12 flows: the array evaluator's side
        if not on_array_path(12):
            pytest.skip("array kernel off (no numpy or REPRO_VECTORIZE=0)")
        query(remos, hosts)
        result = query(remos, hosts)
        assert len(result.variable) == 12

        trace = obs.get_tracer().last_trace("query.flow_info")
        (child,) = trace.children()
        assert child.name == "fairshare.allocate"
        assert child.trace_id == trace.trace_id
        assert child.attributes["levels"] == 6
        assert child.attributes["variable"] == 12
        assert child.attributes["resources"] > 0
        assert trace.attributes["cache_misses"] == 0

    def test_warm_multicast_query_allocates_under_one_span(self, remos):
        # Multicast never takes the array evaluator; the plan answers it,
        # and from MIN_DEMANDS flows up its allocate stage is one call
        # over all six levels.
        flows = [
            MulticastFlow(src, [dst for dst in HOSTS if dst != src]) for src in HOSTS
        ] * 4
        assert len(flows) == 12 and not vectorizable([], flows, [])
        if not vectorized._use_vectorized(len(flows)):
            pytest.skip("array kernel off (no numpy or REPRO_VECTORIZE=0)")
        timeframe = Timeframe.history(WARMUP)
        remos_flow_info(remos, variable_flows=flows, timeframe=timeframe)
        result = remos_flow_info(remos, variable_flows=flows, timeframe=timeframe)
        assert len(result.variable) == 12

        trace = obs.get_tracer().last_trace("query.flow_info")
        (child,) = trace.children()
        assert child.name == "fairshare.allocate"
        assert child.attributes["levels"] == 6
        assert child.attributes["variable"] == 12
        assert child.attributes["resources"] > 0

    def test_collector_sweeps_are_detached_root_traces(self, remos):
        query(remos)
        sweeps = [
            trace
            for trace in obs.get_tracer().traces
            if trace.name == "collector.sweep"
        ]
        assert sweeps, "warmup should have recorded sweep spans"
        for sweep in sweeps:
            assert sweep.parent_id is None
            assert sweep.attributes["collector"] == "snmp"

    def test_get_graph_traced_too(self, remos):
        remos.get_graph(HOSTS, Timeframe.history(WARMUP))
        trace = obs.get_tracer().last_trace("query.get_graph")
        assert trace is not None
        assert trace.attributes["node_count"] == len(HOSTS)


class TestMetricsAndTelemetry:
    def test_counters_and_stage_histograms_populated(self, remos):
        query(remos)
        metrics = obs.get_registry().to_dict()
        sweep_series = metrics["remos_collector_sweeps_total"]["series"]
        assert sweep_series[0]["labels"] == {"collector": "snmp"}
        assert sweep_series[0]["value"] >= WARMUP  # one sweep per second

        stage_labels = {
            series["labels"]["stage"]
            for series in metrics[obs.STAGE_HISTOGRAM]["series"]
        }
        assert {"query.flow_info", "fairshare.allocate", "collector.sweep"} <= stage_labels

        query_series = metrics["remos_query_seconds"]["series"]
        assert {"query": "flow_info"} in [series["labels"] for series in query_series]

    def test_telemetry_snapshot_combines_everything(self, remos):
        query(remos)
        query(remos)
        telemetry = remos.telemetry()
        assert telemetry["observability_enabled"] is True
        assert telemetry["queries_answered"] == 2
        assert telemetry["cache"]["hit_rate"] > 0
        assert telemetry["collector"]["type"] == "SNMPCollector"
        assert telemetry["collector"]["sweeps"] >= 1
        assert telemetry["view"]["generation"] >= 1
        assert telemetry["view"]["staleness_seconds"] is not None
        assert obs.STAGE_HISTOGRAM in telemetry["metrics"]
        # The folded CacheStats gauges agree with the live counters.
        registry = obs.get_registry()
        assert registry.gauge("remos_queries_total").value == 2.0
        assert registry.gauge("remos_cache_hit_rate").value == pytest.approx(
            telemetry["cache"]["hit_rate"]
        )

    def test_prometheus_export_of_a_real_run(self, remos):
        query(remos)
        remos.telemetry()  # publishes the facade gauges
        text = obs.get_registry().to_prometheus()
        assert 'remos_collector_sweeps_total{collector="snmp"}' in text
        assert 'remos_stage_seconds{stage="query.flow_info",quantile="0.5"}' in text
        assert "# TYPE remos_cache_hit_rate gauge" in text
