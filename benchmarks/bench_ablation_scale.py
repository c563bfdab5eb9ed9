"""Ablation H — scaling behaviour (§5: "dealing with very large networks").

"We are also looking into the problem of dealing with very large
networks, where multiple collectors will have to collaborate."  We sweep
the network size (balanced router trees with 8..256 hosts) and measure:

* SNMP discovery cost (requests to map the topology),
* per-sweep polling cost (requests per counter sweep),
* the query-engine workload an adaptive application actually issues: a
  ``get_graph`` over a handful of spread-out hosts plus a batched
  flow-scenario sweep, with the lazy routing-build count and max-min
  iteration count alongside the wall times,
* the all-hosts ``get_graph``: exact (flat) with the full distance
  matrix up to 64 hosts, and above that under hierarchical collapse
  (``collapse="auto"`` infers the tree's hierarchy and aggregates it)
  without the distance matrix — the matrix is cubic in queried hosts,
  an application-side cost the collapse does not change,

then two head-to-heads:

* the §5 multi-collector answer — two collectors each covering half of a
  32-host network discover in parallel and merge, reducing time-to-ready
  versus one collector walking everything;
* the scalable-query-engine speedup — the 256-host few-node selection
  sweep (``get_graph`` over the pool + greedy flow-aware selection via
  ``flow_info_batch``) against the frozen pre-rewrite kernels in
  :mod:`benchmarks._reference` (eager all-pairs routing, full-capacity
  staged max-min per candidate per quantile).  Both engines must pick
  the same cluster; the new one must be at least 3x faster.

``test_scale_report`` renders the paper-style table and writes the
machine-readable trajectory to ``BENCH_scale.json`` at the repo root.
"""

from __future__ import annotations

import json
import time
from pathlib import Path

import pytest

from repro.adapt import select_nodes_flow_aware
from repro.bench import Table
from repro.collector import CollectorMaster, MetricsStore, SNMPCollector
from repro.collector.base import NetworkView
from repro.core import Flow, FlowQuery, Remos, Timeframe
from repro.core.modeler import Modeler
from repro.fairshare import Demand, FlowRequest, MaxMinProblem
from repro.net import TopologyBuilder
from repro.netsim import FluidNetwork
from repro.sim import Engine
from repro.snmp import SNMPAgent

from benchmarks._experiments import emit
from benchmarks._reference import ReferenceRoutingTable, reference_allocate_three_stage

_results: dict = {}

SWEEP_SIZES = [8, 16, 32, 64, 128, 256]
#: Above this size the all-hosts get_graph switches to the hierarchical
#: collapsed path and drops the distance matrix (cubic in the queried
#: host count); see the module docstring.
ALL_HOSTS_GRAPH_LIMIT = 64
_LEVELS = ("minimum", "q1", "median", "q3", "maximum", "mean")


def build_tree(n_hosts: int, hosts_per_router: int = 4):
    """Balanced two-level tree: core router, leaf routers, hosts."""
    builder = TopologyBuilder(f"tree{n_hosts}").router("core")
    n_leaves = (n_hosts + hosts_per_router - 1) // hosts_per_router
    hosts = []
    for leaf in range(n_leaves):
        router = f"leaf{leaf}"
        builder.router(router)
        builder.link(router, "core", "1Gbps", "0.5ms")
        for slot in range(hosts_per_router):
            index = leaf * hosts_per_router + slot
            if index >= n_hosts:
                break
            host = f"h{index}"
            hosts.append(host)
            builder.host(host)
            builder.link(host, router, "100Mbps", "0.1ms")
    return builder.build(), hosts


def spread_hosts(hosts: list[str], count: int) -> list[str]:
    """*count* hosts spread evenly across the tree (distinct leaf routers)."""
    n = len(hosts)
    picks = sorted({i * (n - 1) // (count - 1) for i in range(count)})
    return [hosts[i] for i in picks]


def scale_point(n_hosts: int) -> dict:
    topology, hosts = build_tree(n_hosts)
    env = Engine()
    net = FluidNetwork(env, topology)
    routers = [n.name for n in topology.network_nodes]
    agents = {name: SNMPAgent(name, net) for name in routers}
    collector = SNMPCollector(net, agents, poll_interval=2.0)
    env.run(until=collector.start())
    discovery_requests = collector.client.requests_sent
    before_requests = collector.client.requests_sent
    before_polls = collector.polls_completed
    # Run until exactly one more full sweep has completed.
    while collector.polls_completed == before_polls:
        env.run(until=env.now + 0.5)
    sweep_requests = collector.client.requests_sent - before_requests

    remos = Remos(collector)
    query_hosts = spread_hosts(hosts, min(5, n_hosts))
    timeframe = Timeframe.current()

    # Warm-up query: pay one-time costs (lazy module imports, per-epoch
    # snapshot materialisation, routing builds for the queried sources)
    # outside the timed region, so query_graph_ms measures the steady
    # state an application sees — not a cold-start artifact that used to
    # dwarf the 8-host points.
    remos.get_graph(query_hosts, timeframe).distance_matrix(query_hosts)

    # The few-node application workload the engine optimisations target.
    t0 = time.perf_counter()
    graph = remos.get_graph(query_hosts, timeframe)
    graph.distance_matrix(query_hosts)
    query_graph_wall = time.perf_counter() - t0
    modeler = remos._modeler()
    source_builds = modeler.routing.source_builds

    scenarios = [
        FlowQuery(
            variable=[
                Flow(src, dst, requested=1.0, name=f"{src}->{dst}")
                for src in query_hosts
                for dst in query_hosts
                if src != dst and src != left_out and dst != left_out
            ],
            name=f"without-{left_out}",
        )
        for left_out in query_hosts
    ]
    t0 = time.perf_counter()
    remos.flow_info_batch(scenarios, timeframe)
    flow_batch_wall = time.perf_counter() - t0

    # Max-min filling steps for the all-to-all allocation at median load.
    demands = [
        Demand(f"{src}->{dst}", modeler.resources_for_route(src, dst))
        for src in query_hosts
        for dst in query_hosts
        if src != dst
    ]
    capacities = modeler.available_capacities(timeframe, quantile="median")
    iterations = MaxMinProblem(demands).solve(capacities).iterations

    result = {
        "hosts": n_hosts,
        "discovery_requests": discovery_requests,
        "sweep_requests": sweep_requests,
        "query_graph_ms": query_graph_wall * 1e3,
        "routing_source_builds": source_builds,
        "flow_batch_ms": flow_batch_wall * 1e3,
        "maxmin_iterations": iterations,
        "graph_all_hosts_ms": None,
        "logical_nodes": None,
        "graph_mode": None,
    }
    if n_hosts <= ALL_HOSTS_GRAPH_LIMIT:
        t0 = time.perf_counter()
        graph = remos.get_graph(hosts, timeframe)
        graph.distance_matrix(hosts)
        result["graph_all_hosts_ms"] = (time.perf_counter() - t0) * 1e3
    else:
        # collapse="auto" infers the tree's hierarchy and aggregates it;
        # the cubic distance matrix is an application-side cost, skipped.
        t0 = time.perf_counter()
        graph = remos.get_graph(hosts, timeframe)
        result["graph_all_hosts_ms"] = (time.perf_counter() - t0) * 1e3
    result["logical_nodes"] = len(graph.nodes)
    result["graph_mode"] = graph.collapse
    return result


@pytest.mark.parametrize("n_hosts", SWEEP_SIZES, ids=lambda n: f"hosts{n}")
def test_scale_point(benchmark, n_hosts):
    result = benchmark.pedantic(lambda: scale_point(n_hosts), rounds=1, iterations=1)
    _results[n_hosts] = result
    # Collection cost grows linearly-ish with interfaces, not explosively.
    assert result["sweep_requests"] < 10 * n_hosts
    # The few-node query must stay lazy: sources built are bounded by the
    # queried hosts plus the routers between them (at most ~11 for a
    # 5-host query on this tree), never the whole node set.
    assert result["routing_source_builds"] <= 20


def test_costs_scale_linearly(benchmark):
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)
    if 8 not in _results or 64 not in _results:
        pytest.skip("scale points did not run")
    small, large = _results[8], _results[64]
    ratio = large["sweep_requests"] / small["sweep_requests"]
    assert ratio < 12  # 8x hosts => ~8x sweeps, no quadratic blowup


def reference_selection_sweep(topology, view, pool, k, timeframe):
    """The pre-rewrite engine answering the same selection question.

    Eager all-pairs routing at construction, then per candidate per
    quantile a fresh staged max-min over the *full* capacity dict — the
    one-query-at-a-time cost profile the batch API replaced.  Returns the
    selected cluster (for the equivalence assertion).
    """
    inf = float("inf")
    routing = ReferenceRoutingTable(topology)
    modeler = Modeler(view, routing)
    modeler.logical_graph(list(pool), timeframe).distance_matrix(list(pool))
    snapshots = {
        level: modeler.available_capacities(timeframe, quantile=level)
        for level in _LEVELS
    }

    def resources(src, dst):
        route = routing.route(src, dst)
        keys = [hop.key for hop in route.hops]
        for name in route.node_sequence:
            if topology.node(name).internal_bandwidth != inf:
                keys.append(("xbar", name))
        return tuple(keys)

    cluster = [pool[0]]
    while len(cluster) < k:
        candidates = [host for host in pool if host not in cluster]
        best_host, best_score = None, float("-inf")
        for candidate in candidates:
            group = cluster + [candidate]
            requests = [
                FlowRequest(flow_id=f"{s}->{d}", resources=resources(s, d), requested=1.0)
                for s in group
                for d in group
                if s != d
            ]
            rates_by_level = {}
            for level in _LEVELS:
                rates, _, _, _ = reference_allocate_three_stage(
                    snapshots[level], variable=requests
                )
                rates_by_level[level] = rates
            score = min(rates_by_level["median"].values())
            if score > best_score + 1e-15:
                best_host, best_score = candidate, score
        cluster.append(best_host)
    return cluster


def test_engine_speedup_at_256_hosts(benchmark):
    """Few-node get_graph + selection sweep: new engine vs frozen kernels."""
    topology, hosts = build_tree(256)
    pool = spread_hosts(hosts, 8)
    timeframe = Timeframe.static()
    k = 4

    def experiment():
        view = NetworkView(topology=topology, metrics=MetricsStore())
        t0 = time.perf_counter()
        remos = Remos(view)
        remos.get_graph(pool, timeframe).distance_matrix(pool)
        selected = select_nodes_flow_aware(remos, pool, k, pool[0], timeframe)
        engine_wall = time.perf_counter() - t0

        reference_view = NetworkView(topology=topology, metrics=MetricsStore())
        t0 = time.perf_counter()
        reference_cluster = reference_selection_sweep(
            topology, reference_view, pool, k, timeframe
        )
        reference_wall = time.perf_counter() - t0
        return selected, reference_cluster, engine_wall, reference_wall

    selected, reference_cluster, engine_wall, reference_wall = benchmark.pedantic(
        experiment, rounds=1, iterations=1
    )
    # Same answer, much faster.
    assert selected.hosts == reference_cluster
    speedup = reference_wall / engine_wall
    _results["speedup"] = {
        "hosts": 256,
        "pool": pool,
        "k": k,
        "selected": selected.hosts,
        "engine_ms": engine_wall * 1e3,
        "reference_ms": reference_wall * 1e3,
        "speedup": speedup,
    }
    assert speedup >= 3.0


#: Absolute floor for the array evaluator: 256-host 16-scenario batches
#: answered per second (measured ~45-50/s on the 2-vCPU reference box).
VECTORIZED_GATE_BATCHES_PER_S = 20.0


def test_vectorized_kernel_throughput_at_256_hosts(benchmark):
    """Array allocation kernels vs the scalar loop — same process, same answers.

    A 256-host leave-one-out selection sweep (16 spread hosts, 16
    scenarios of 210 variable flows each) answered twice by the *same*
    Remos instance: once with the numpy kernels forced on, once with the
    scalar waterfilling loop forced.  The answers must be bit-identical
    (the vectorized path is a reordering of the same float operations,
    not an approximation) and the array path must clear an absolute
    batches-per-second floor.  The scalar/vectorized ratio is reported,
    not gated: a change that speeds up both sides (the epoch price memo
    took the scalar side from ~200 to ~120 ms and the array side from ~27
    to ~22 ms) lowers it while improving every figure that matters.
    """
    from repro.fairshare import vectorized

    if not vectorized.HAVE_NUMPY:
        pytest.skip("numpy not installed; no vectorized kernel to measure")

    topology, hosts = build_tree(256)
    pool = spread_hosts(hosts, 16)
    timeframe = Timeframe.current()
    scenarios = [
        FlowQuery(
            variable=[
                Flow(src, dst, requested=1.0, name=f"{src}->{dst}")
                for src in pool
                for dst in pool
                if src != dst and src != left_out and dst != left_out
            ],
            name=f"without-{left_out}",
        )
        for left_out in pool
    ]
    view = NetworkView(topology=topology, metrics=MetricsStore())
    remos = Remos(view)

    def timed(mode: bool, reps: int = 5):
        vectorized.set_vectorized(mode)
        try:
            remos.flow_info_batch(scenarios, timeframe)  # warm run
            best, answer = float("inf"), None
            for _ in range(reps):
                t0 = time.perf_counter()
                answer = remos.flow_info_batch(scenarios, timeframe)
                best = min(best, time.perf_counter() - t0)
            return best, answer
        finally:
            vectorized.set_vectorized(None)

    def experiment():
        scalar_wall, scalar_answer = timed(False)
        vector_wall, vector_answer = timed(True)
        return scalar_wall, scalar_answer, vector_wall, vector_answer

    scalar_wall, scalar_answer, vector_wall, vector_answer = benchmark.pedantic(
        experiment, rounds=1, iterations=1
    )
    assert scalar_answer == vector_answer  # bit-identical, not approximately
    _results["vectorized"] = {
        "hosts": 256,
        "pool": len(pool),
        "scenarios": len(scenarios),
        "flows_per_scenario": len(scenarios[0].variable),
        "scalar_ms": scalar_wall * 1e3,
        "vectorized_ms": vector_wall * 1e3,
        "batches_per_s": 1.0 / vector_wall,
        "speedup": scalar_wall / vector_wall,
        "bit_identical": scalar_answer == vector_answer,
        "gate_batches_per_s": VECTORIZED_GATE_BATCHES_PER_S,
    }
    assert 1.0 / vector_wall >= VECTORIZED_GATE_BATCHES_PER_S


#: Demand counts of the crossover sweep: the first n ordered pairs among
#: six spread hosts, either side of ``vectorized.MIN_DEMANDS``.
CROSSOVER_DEMANDS = (2, 4, 6, 8, 10, 12, 14, 16, 20, 24)


def test_array_evaluator_vs_scalar_plan_crossover(benchmark):
    """Where the array evaluator starts to win — reported, not gated.

    One warm ``Remos`` on the 64-host tree answers the same ``flow_info``
    (n variable flows, all six availability levels) by both evaluators:
    the array path (``snaparrays.evaluate_flow_query``: one filling run
    over the level matrix) and the scalar plan (``plan.evaluate``: one
    pure-Python solve per level).  Auto mode switches between them at
    ``vectorized.MIN_DEMANDS``; this table is the data to re-fit that
    constant from (ROADMAP item 5).  Answers must be equal at every size.
    """
    from repro.fairshare import vectorized

    if not vectorized.HAVE_NUMPY:
        pytest.skip("numpy not installed; no array evaluator to measure")

    topology, hosts = build_tree(64)
    pool = spread_hosts(hosts, 6)
    pairs = [(src, dst) for src in pool for dst in pool if src != dst]
    remos = Remos(NetworkView(topology=topology, metrics=MetricsStore()))
    timeframe = Timeframe.current()

    def timed(mode: bool, flows, calls: int = 300):
        # Best single call: sub-millisecond walls on a shared box are
        # only repeatable as a floor, not as a mean.
        vectorized.set_vectorized(mode)
        try:
            answer = remos.flow_info(variable_flows=flows, timeframe=timeframe)  # warm
            best = float("inf")
            for _ in range(calls):
                t0 = time.perf_counter()
                remos.flow_info(variable_flows=flows, timeframe=timeframe)
                best = min(best, time.perf_counter() - t0)
            return best, answer
        finally:
            vectorized.set_vectorized(None)

    def experiment():
        rows = []
        for n in CROSSOVER_DEMANDS:
            flows = [Flow(src, dst, name=f"{src}->{dst}") for src, dst in pairs[:n]]
            scalar_wall, scalar_answer = timed(False, flows)
            array_wall, array_answer = timed(True, flows)
            assert scalar_answer == array_answer
            rows.append(
                {
                    "demands": n,
                    "scalar_plan_ms": scalar_wall * 1e3,
                    "array_ms": array_wall * 1e3,
                    "scalar_over_array": scalar_wall / array_wall,
                }
            )
        return rows

    _results["crossover"] = {
        "hosts": 64,
        "levels": len(_LEVELS),
        "min_demands": vectorized.MIN_DEMANDS,
        "rows": benchmark.pedantic(experiment, rounds=1, iterations=1),
    }


def test_two_collectors_split_the_work(benchmark):
    """The §5 multi-collector idea, measured."""

    def experiment():
        topology, hosts = build_tree(32)
        routers = [n.name for n in topology.network_nodes]
        half = len(routers) // 2

        # One collector walking everything.
        env1 = Engine()
        net1 = FluidNetwork(env1, topology)
        agents1 = {name: SNMPAgent(name, net1) for name in routers}
        solo = SNMPCollector(net1, agents1, poll_interval=2.0)
        env1.run(until=solo.start())
        solo_ready = env1.now

        # Two collaborating collectors, each seeded into its half.  Agents
        # outside a collector's domain are absent from its agent map, so
        # discovery stops at the domain boundary.
        env2 = Engine()
        net2 = FluidNetwork(env2, topology)
        domain_a = {name: SNMPAgent(name, net2) for name in routers[:half] + ["core"]}
        domain_b = {name: SNMPAgent(name, net2) for name in routers[half:]}
        collector_a = SNMPCollector(net2, domain_a, poll_interval=2.0)
        collector_b = SNMPCollector(net2, domain_b, poll_interval=2.0)
        master = CollectorMaster(env2, [collector_a, collector_b])
        env2.run(until=master.start())
        master_ready = env2.now
        merged = master.view()
        return solo_ready, master_ready, len(merged.topology.nodes)

    solo_ready, master_ready, merged_nodes = benchmark.pedantic(
        experiment, rounds=1, iterations=1
    )
    _results["collab"] = (solo_ready, master_ready, merged_nodes)
    # Parallel domains come up faster and the merge covers the whole net.
    assert master_ready < solo_ready
    assert merged_nodes >= 32


def test_scale_report(benchmark):
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)
    table = Table(
        "Ablation H - scaling with network size (two-level router tree)",
        [
            "Hosts", "discovery reqs", "reqs/sweep", "5-node graph (ms)",
            "src builds", "flow batch (ms)", "maxmin iters", "all-hosts graph (ms)",
        ],
    )
    sweep = []
    for n_hosts in SWEEP_SIZES:
        if n_hosts not in _results:
            continue
        r = _results[n_hosts]
        sweep.append(r)
        all_hosts_ms = (
            f"{r['graph_all_hosts_ms']:.1f} ({r['graph_mode']})"
            if r["graph_all_hosts_ms"] is not None
            else "-"
        )
        table.add_row(
            n_hosts, r["discovery_requests"], r["sweep_requests"],
            f"{r['query_graph_ms']:.1f}", r["routing_source_builds"],
            f"{r['flow_batch_ms']:.1f}", r["maxmin_iterations"], all_hosts_ms,
        )
    text = table.render()
    if "collab" in _results:
        solo_ready, master_ready, merged_nodes = _results["collab"]
        text += (
            f"\n32-host net, time-to-ready: one collector {solo_ready:.1f}s vs "
            f"two collaborating collectors {master_ready:.1f}s "
            f"(merged view: {merged_nodes} nodes)"
        )
    if "speedup" in _results:
        s = _results["speedup"]
        text += (
            f"\n256-host selection sweep: optimised engine {s['engine_ms']:.1f}ms vs "
            f"pre-rewrite kernels {s['reference_ms']:.1f}ms "
            f"({s['speedup']:.1f}x, same cluster {s['selected']})"
        )
    if "vectorized" in _results:
        v = _results["vectorized"]
        text += (
            f"\n256-host allocation kernels: vectorized {v['vectorized_ms']:.1f}ms "
            f"({v['batches_per_s']:.1f} batches/s, gate >= {v['gate_batches_per_s']:g}) vs "
            f"scalar {v['scalar_ms']:.1f}ms ({v['speedup']:.1f}x reported, bit-identical answers)"
        )
    if "crossover" in _results:
        c = _results["crossover"]
        text += (
            f"\n{c['hosts']}-host flow_info, {c['levels']} levels, array evaluator vs scalar plan "
            f"(auto mode switches at {c['min_demands']} demands; reported, not gated):"
        )
        for row in c["rows"]:
            text += (
                f"\n  {row['demands']:>3} demands: scalar plan {row['scalar_plan_ms']:.3f}ms, "
                f"array {row['array_ms']:.3f}ms ({row['scalar_over_array']:.2f}x)"
            )
    emit("\n" + text)

    if sweep:
        payload = {
            "benchmark": "bench_ablation_scale",
            "topology": "balanced two-level router tree, 4 hosts per leaf",
            "sweep": sweep,
            "engine_speedup": _results.get("speedup"),
            "vectorized_kernel": _results.get("vectorized"),
            "evaluator_crossover": _results.get("crossover"),
        }
        out = Path(__file__).resolve().parent.parent / "BENCH_scale.json"
        out.write_text(json.dumps(payload, indent=2) + "\n")
