"""Data-center-scale topologies under hierarchical logical collapse.

§5's "dealing with very large networks" concern, taken to fabric scale:
the balanced-tree sweep in :mod:`benchmarks.bench_ablation_scale` tops
out at 256 hosts, while real data-center fabrics (fat-trees, leaf-spine)
put thousands of hosts behind a two- or three-tier switch core.  This
suite measures the query engine on exactly those shapes:

* a **leaf-spine sweep** (256 / 1024 / 4096 hosts; 16384 behind
  ``REPRO_BENCH_XL=1``) timing the workload an adaptive application
  issues — an 8-host ``get_graph`` plus a batched leave-one-out
  ``flow_info`` sweep — and the all-hosts ``get_graph`` that the
  hierarchical collapse turns from quadratic-in-hosts into
  O(hosts + switch groups),
* a **fat-tree head-to-head** at 1024 hosts (k=16): the public API
  (auto collapse + lazy capacity views) against the flat baseline
  (exact route-union graph + eager whole-network capacity snapshots)
  answering the same queries, gated at a >=10x speedup, with the flow
  answers asserted bit-identical to the eager oracle,
* a **CI smoke** on a k=8 fat-tree (128 hosts) checking the collapse's
  structural invariants (aggregate naming, member counts, bundle
  capacity roll-ups) and the answer-preservation contract cheaply.

``test_topology_report`` renders the table and writes the
machine-readable results to ``BENCH_topology.json`` at the repo root.
The collapse model itself is documented in ``docs/TOPOLOGIES.md``.
"""

from __future__ import annotations

import gc
import json
import os
import time
from pathlib import Path

import pytest

from repro.bench import Table
from repro.collector import MetricsStore
from repro.collector.base import NetworkView
from repro.core import AUTO_COLLAPSE_THRESHOLD, Flow, FlowQuery, Remos, Timeframe, plan
from repro.net import fat_tree, leaf_spine

from benchmarks._experiments import emit
from benchmarks._reference import eager_pricer

_results: dict = {}

#: (leaves, spines, hosts_per_leaf) -> leaves * hosts_per_leaf hosts.
LEAF_SPINE_SIZES = [(16, 4, 16), (32, 8, 32), (64, 16, 64)]
if os.environ.get("REPRO_BENCH_XL"):
    LEAF_SPINE_SIZES.append((128, 32, 128))  # 16384 hosts


def spread_hosts(hosts: list[str], count: int) -> list[str]:
    """*count* hosts spread across the fabric (distinct leaves/pods)."""
    n = len(hosts)
    picks = sorted({i * (n - 1) // (count - 1) for i in range(count)})
    return [hosts[i] for i in picks]


def leave_one_out_scenarios(query_hosts: list[str]) -> list[FlowQuery]:
    """The greedy-selection workload: all-to-all minus one host, per host."""
    return [
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


def scale_point(leaves: int, spines: int, hosts_per_leaf: int) -> dict:
    topology = leaf_spine(leaves, spines, hosts_per_leaf)
    hosts = [n.name for n in topology.compute_nodes]
    remos = Remos(NetworkView(topology=topology, metrics=MetricsStore()))
    timeframe = Timeframe.static()

    # GC pauses over the big fabrics' object graphs dominate the noise at
    # 4096+ hosts; collect once, then keep the collector out of the timed
    # sections.  The bounded workload is best-of-3 over rotated host sets
    # (fresh Dijkstra sources each round) for the same reason.
    gc.collect()
    gc.disable()
    try:
        # The bounded application workload: 8 spread hosts, graph + flow
        # sweep.
        bounded_graph_wall = float("inf")
        flow_batch_wall = float("inf")
        for offset in (0, 7, 23):
            rotated = hosts[offset:] + hosts[:offset]
            query_hosts = spread_hosts(rotated, 8)
            t0 = time.perf_counter()
            bounded_graph = remos.get_graph(query_hosts, timeframe)
            bounded_graph_wall = min(bounded_graph_wall, time.perf_counter() - t0)
            t0 = time.perf_counter()
            remos.flow_info_batch(leave_one_out_scenarios(query_hosts), timeframe)
            flow_batch_wall = min(flow_batch_wall, time.perf_counter() - t0)

        # The all-hosts graph: auto collapse takes the hierarchical path.
        t0 = time.perf_counter()
        all_graph = remos.get_graph(hosts, timeframe)
        all_graph_wall = time.perf_counter() - t0
    finally:
        gc.enable()

    return {
        "hosts": len(hosts),
        "leaves": leaves,
        "spines": spines,
        "links": len(topology.links),
        "bounded_graph_ms": bounded_graph_wall * 1e3,
        "bounded_graph_mode": bounded_graph.collapse,
        "flow_batch_ms": flow_batch_wall * 1e3,
        "graph_all_hosts_ms": all_graph_wall * 1e3,
        "graph_all_hosts_mode": all_graph.collapse,
        "logical_nodes": len(all_graph.nodes),
        "per_host_us": all_graph_wall * 1e6 / len(hosts),
    }


@pytest.mark.parametrize(
    "shape", LEAF_SPINE_SIZES, ids=lambda s: f"hosts{s[0] * s[2]}"
)
def test_leaf_spine_point(benchmark, shape):
    leaves, spines, hosts_per_leaf = shape
    result = benchmark.pedantic(
        lambda: scale_point(leaves, spines, hosts_per_leaf), rounds=1, iterations=1
    )
    _results[result["hosts"]] = result
    # The 8-host query keeps its exact flat answer at every fabric size...
    assert result["bounded_graph_mode"] == "flat"
    # ...while the all-hosts graph goes hierarchical and stays small: the
    # queried hosts, one node per leaf (singleton group), one spine
    # aggregate.
    assert result["graph_all_hosts_mode"] == "hier"
    assert result["logical_nodes"] == result["hosts"] + leaves + 1


def test_bounded_query_sublinear(benchmark):
    """16x the hosts must cost far less than 16x per bounded query."""
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)
    if 256 not in _results or 4096 not in _results:
        pytest.skip("leaf-spine sweep points did not run")
    small, large = _results[256], _results[4096]
    host_ratio = large["hosts"] / small["hosts"]  # 16x
    graph_ratio = large["bounded_graph_ms"] / small["bounded_graph_ms"]
    flow_ratio = large["flow_batch_ms"] / small["flow_batch_ms"]
    all_hosts_ratio = large["graph_all_hosts_ms"] / small["graph_all_hosts_ms"]
    _results["sublinear"] = {
        "host_ratio": host_ratio,
        "bounded_graph_ratio": graph_ratio,
        "flow_batch_ratio": flow_ratio,
        "graph_all_hosts_ratio": all_hosts_ratio,
    }
    # The pruned flow sweep touches only the resources its flows cross:
    # its cost is nearly fabric-independent (well under the 16x growth).
    assert flow_ratio < 8
    # The collapsed all-hosts graph is O(hosts + groups): per-host cost
    # stays roughly constant instead of growing with the fabric.
    assert large["per_host_us"] < 2 * max(small["per_host_us"], 100.0)
    # The 8-host exact graph is dominated by its 8 lazy Dijkstra sources —
    # one pass over the fabric each, so ~linear in fabric size with a log
    # factor, but independent of how many hosts the *query* names.  Guard
    # against anything worse than that.
    assert graph_ratio < 2 * host_ratio


def test_fat_tree_head_to_head(benchmark):
    """Public API vs the flat baseline on a k=16 fat-tree (1024 hosts)."""
    topology = fat_tree(16)
    hosts = sorted(n.name for n in topology.compute_nodes)
    query_hosts = spread_hosts(hosts, 8)
    timeframe = Timeframe.static()
    scenarios = leave_one_out_scenarios(query_hosts)

    def experiment():
        remos = Remos(NetworkView(topology=topology, metrics=MetricsStore()))
        modeler = remos._modeler()
        gc.collect()

        # The optimised path: auto collapse + lazy capacity views.
        t0 = time.perf_counter()
        hier_graph = remos.get_graph(hosts, timeframe)
        pruned = remos.flow_info_batch(scenarios, timeframe)
        hier_wall = time.perf_counter() - t0

        # The flat baseline answering the same queries: exact route-union
        # graph over every host, eager whole-network capacity snapshots.
        t0 = time.perf_counter()
        flat_graph = remos.get_graph(hosts, timeframe, collapse="flat")
        resolve = plan.LocalSource(modeler, timeframe).resolve
        price = eager_pricer(modeler, timeframe)
        full = [
            plan.evaluate(resolve, price, [], query.variable, [], timeframe)
            for query in scenarios
        ]
        flat_wall = time.perf_counter() - t0
        return hier_graph, flat_graph, pruned, full, hier_wall, flat_wall

    hier_graph, flat_graph, pruned, full, hier_wall, flat_wall = benchmark.pedantic(
        experiment, rounds=1, iterations=1
    )
    assert hier_graph.collapse == "hier" and flat_graph.collapse == "flat"
    # Answer preservation: the pruned flow answers are bit-identical to the
    # eager whole-network oracle.
    assert pruned == full
    speedup = flat_wall / hier_wall
    _results["head_to_head"] = {
        "topology": "fat-tree k=16",
        "hosts": len(hosts),
        "hier_ms": hier_wall * 1e3,
        "flat_ms": flat_wall * 1e3,
        "hier_nodes": len(hier_graph.nodes),
        "flat_nodes": len(flat_graph.nodes),
        "speedup": speedup,
    }
    assert speedup >= 10.0


def test_smoke_fat_tree_collapse(benchmark):
    """Structural invariants + answer preservation on a k=8 fat-tree."""
    topology = fat_tree(8)
    hosts = sorted(n.name for n in topology.compute_nodes)
    assert len(hosts) == 128
    timeframe = Timeframe.static()

    def experiment():
        remos = Remos(NetworkView(topology=topology, metrics=MetricsStore()))
        all_graph = remos.get_graph(hosts, timeframe)
        small_graph = remos.get_graph(hosts[:AUTO_COLLAPSE_THRESHOLD], timeframe)
        query_hosts = spread_hosts(hosts, 6)
        scenarios = leave_one_out_scenarios(query_hosts)
        pruned = remos.flow_info_batch(scenarios, timeframe)
        modeler = remos._modeler()
        resolve = plan.LocalSource(modeler, timeframe).resolve
        price = eager_pricer(modeler, timeframe)
        full = [
            plan.evaluate(resolve, price, [], query.variable, [], timeframe)
            for query in scenarios
        ]
        return remos, all_graph, small_graph, pruned, full

    remos, all_graph, small_graph, pruned, full = benchmark.pedantic(
        experiment, rounds=1, iterations=1
    )
    # Above the threshold the auto path collapses; at or below it stays flat.
    assert all_graph.collapse == "hier"
    assert small_graph.collapse == "flat"
    # k=8: 128 hosts, 32 edge ToRs (singleton groups, physical names),
    # 8 pod aggregates of 4 aggregation switches, 1 core aggregate of 16.
    aggregates = {n.name: n for n in all_graph.nodes if n.aggregate}
    assert set(aggregates) == {f"agg:pod{p}" for p in range(8)} | {"agg:core"}
    assert all(aggregates[f"agg:pod{p}"].member_count == 4 for p in range(8))
    assert aggregates["agg:core"].member_count == 16
    assert len(all_graph.nodes) == 128 + 32 + 8 + 1
    # Bundle roll-up: each pod's uplink bundle sums its 16 physical
    # 10 Gbps agg->core links; latency is the min over members.
    bundle = next(
        e for e in all_graph.edges if {e.a, e.b} == {"agg:pod0", "agg:core"}
    )
    assert len(bundle.physical_links) == 16
    assert bundle.capacity == pytest.approx(16 * 10e9)
    assert bundle.latency == pytest.approx(10e-6)
    # Answer preservation: pruned flow answers == the eager oracle.
    assert pruned == full
    # And the collapse survives a metrics-only refresh (same structure).
    tree_before = remos._modeler()._collapse
    assert tree_before is not None


def test_topology_report(benchmark):
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)
    table = Table(
        "Data-center fabrics - hierarchical collapse (leaf-spine sweep)",
        [
            "Hosts", "links", "8-host graph (ms)", "flow batch (ms)",
            "all-hosts graph (ms)", "mode", "logical nodes", "us/host",
        ],
    )
    sweep = []
    for key in sorted(k for k in _results if isinstance(k, int)):
        r = _results[key]
        sweep.append(r)
        table.add_row(
            r["hosts"], r["links"], f"{r['bounded_graph_ms']:.1f}",
            f"{r['flow_batch_ms']:.1f}", f"{r['graph_all_hosts_ms']:.1f}",
            r["graph_all_hosts_mode"], r["logical_nodes"],
            f"{r['per_host_us']:.0f}",
        )
    text = table.render()
    if "head_to_head" in _results:
        h = _results["head_to_head"]
        text += (
            f"\n{h['topology']}, {h['hosts']} hosts, all-hosts graph + flow sweep: "
            f"hierarchical {h['hier_ms']:.0f}ms ({h['hier_nodes']} logical nodes) vs "
            f"flat {h['flat_ms']:.0f}ms ({h['flat_nodes']} nodes) "
            f"= {h['speedup']:.0f}x, flow answers bit-identical"
        )
    emit("\n" + text)

    if sweep:
        payload = {
            "benchmark": "bench_topology_scale",
            "topology": "leaf-spine (leaves x hosts_per_leaf, spine tier)",
            "sweep": sweep,
            "sublinear": _results.get("sublinear"),
            "head_to_head": _results.get("head_to_head"),
        }
        out = Path(__file__).resolve().parent.parent / "BENCH_topology.json"
        out.write_text(json.dumps(payload, indent=2) + "\n")
