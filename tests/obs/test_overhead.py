"""The acceptance bound: disabled instrumentation costs < 5% on warm queries.

Direct A/B wall-clock comparison of the same workload with and without
instrumentation is noisy in CI (the difference is nanoseconds per hook
against milliseconds per query).  Instead we bound the overhead from its
parts, which is both tighter and stable:

    overhead <= hooks_per_query x cost_per_disabled_hook

``hooks_per_query`` is counted (not guessed) by enabling tracing/metrics
for one warm query and reading the span/sample counts back; the per-hook
cost is measured on a tight loop of the real disabled-path verbs.  The
product must stay under 5% of the measured warm-query time.
"""

import time

import pytest

from repro import obs
from repro.core import Flow, Timeframe
from repro.core.snaparrays import vectorizable
from repro.testbed import build_cmu_testbed

HOSTS = ["m-1", "m-4", "m-6", "m-8"]
WARMUP = 5.0


def build_workload():
    world = build_cmu_testbed(poll_interval=1.0)
    remos = world.start_monitoring(warmup=WARMUP)
    flows = [
        Flow(src, dst, name=f"{src}->{dst}")
        for src in HOSTS
        for dst in HOSTS
        if src != dst
    ]
    timeframe = Timeframe.history(WARMUP)
    return remos, flows, timeframe


def measure_noop_hook_cost(iterations: int = 20_000) -> float:
    """Seconds per disabled span+counter+histogram hook triple."""
    assert not obs.observability_enabled()
    started = time.perf_counter()
    for _ in range(iterations):
        with obs.span("overhead.probe"):
            pass
        obs.inc("overhead_probe_total")
        obs.observe("overhead_probe_seconds", 0.0)
    return (time.perf_counter() - started) / iterations


def count_hooks_per_query() -> int:
    """How many instrumentation hooks one warm flow_info query fires."""
    obs.configure_observability(metrics=True, tracing=True, logging=False)
    try:
        remos, flows, timeframe = build_workload()
        remos.flow_info(variable_flows=flows, timeframe=timeframe)  # warm caches
        tracer = obs.get_tracer()
        query_times = obs.get_registry().histogram(
            "remos_query_seconds", labels={"query": "flow_info"}
        )
        spans_before = tracer.spans_finished
        samples_before = query_times.count
        remos.flow_info(variable_flows=flows, timeframe=timeframe)
        spans = tracer.spans_finished - spans_before
        samples = query_times.count - samples_before
        # Query root + its allocations: the array path (these 12 flows)
        # solves all six levels under one span, the scalar plan one each.
        assert spans == 1 + (1 if vectorizable([], flows, []) else 6)
        return spans + samples
    finally:
        obs.reset_observability()


def measure_warm_query_seconds(repeats: int = 5) -> float:
    """Best-of-N warm flow_info time with observability fully disabled."""
    assert not obs.observability_enabled()
    remos, flows, timeframe = build_workload()
    remos.flow_info(variable_flows=flows, timeframe=timeframe)  # warm caches
    best = float("inf")
    for _ in range(repeats):
        started = time.perf_counter()
        remos.flow_info(variable_flows=flows, timeframe=timeframe)
        best = min(best, time.perf_counter() - started)
    return best


def test_disabled_overhead_below_five_percent():
    hooks = count_hooks_per_query()
    per_hook = measure_noop_hook_cost()
    query_seconds = measure_warm_query_seconds()
    overhead = hooks * per_hook
    budget = 0.05 * query_seconds
    assert overhead < budget, (
        f"{hooks} hooks x {per_hook * 1e9:.0f}ns = {overhead * 1e6:.1f}us "
        f"exceeds 5% of the {query_seconds * 1e3:.3f}ms warm query "
        f"({budget * 1e6:.1f}us)"
    )


def test_disabled_hooks_leave_no_state_behind():
    measure_noop_hook_cost(iterations=100)
    assert len(obs.get_registry()) == 0
    assert len(obs.get_tracer().traces) == 0


def test_noop_span_is_allocation_free():
    # The disabled span verb must hand back the one shared sentinel — the
    # no-allocation property the < 5% bound leans on.
    spans = {id(obs.span(f"stage.{i}")) for i in range(100)}
    assert spans == {id(obs.NOOP_SPAN)}


def test_warm_query_is_actually_warm():
    remos, flows, timeframe = build_workload()
    remos.flow_info(variable_flows=flows, timeframe=timeframe)
    hits_before = remos.cache_stats.hits
    misses_before = remos.cache_stats.misses
    remos.flow_info(variable_flows=flows, timeframe=timeframe)
    assert remos.cache_stats.hits > hits_before
    assert remos.cache_stats.misses == misses_before


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(pytest.main([__file__, "-v"]))
