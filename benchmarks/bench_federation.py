"""Federated Remos at scale: many cells, one query plane.

The federation's cost model is the claim under test: a cross-shard query
composes the endpoint shards' detail with the *summary* graph, so its
cost must track the summary's size (shards, WAN bundles) — **not** the
federation's total host count.  The suite measures:

* a **shard sweep** (4 / 8 / 16 shards x 64 hosts each = 256-1024
  hosts): warm intra- and cross-shard ``flow_info`` cost plus the
  aggregator's merge cost per point, and — reported, not gated — one
  all-pairs cross-shard query over one host per shard (12 / 56 / 240
  flows: the end-to-end ``fed_cross`` workload's cross-shard shape, large
  enough for the plan's level-axis allocation);
* a **host-scaling pair** at a fixed 8 shards (32 vs 128 hosts per
  shard: 256 -> 1024 total, a 4x host ratio): the warm cross-shard query
  cost must stay nearly flat — gated at ``host_ratio / cross_ratio >= 2``
  (i.e. cost grows at most half as fast as the host count);
* a **CI smoke** (2 shards) asserting the federation's differential
  contract cheaply: intra-shard answers bit-identical to a single-cell
  oracle over the same collectors, cross-shard answers conservative.

``test_federation_report`` renders the table and writes
``BENCH_federation.json`` at the repo root; ``bench_history.py`` tracks
the ``flatness`` headline.  The architecture is documented in
``docs/FEDERATION.md``, the measured curve in ``docs/PERFORMANCE.md``.
"""

from __future__ import annotations

import gc
import json
import time
from pathlib import Path

import pytest

from repro.bench import Table
from repro.core import Flow
from repro.federation import FederationWorld

from benchmarks._experiments import emit

_results: dict = {}

#: (shards, leaves, spines, hosts_per_leaf) -> shards * leaves * hpl hosts.
SHARD_SWEEP = [
    (4, 8, 2, 8),   # 256 hosts,   6 WAN bundles
    (8, 8, 2, 8),   # 512 hosts,  28 WAN bundles
    (16, 8, 2, 8),  # 1024 hosts, 120 WAN bundles
]

#: Fixed 8 shards, 4x the hosts per shard: the host-scaling pair.
HOST_PAIR = [(8, 4, 2, 8), (8, 16, 2, 8)]  # 256 vs 1024 hosts


def build_world(shards: int, leaves: int, spines: int, hosts_per_leaf: int):
    world = FederationWorld.build(
        poll_interval=5.0,
        shards=shards,
        leaves=leaves,
        spines=spines,
        hosts_per_leaf=hosts_per_leaf,
    )
    remos = world.start_monitoring(warmup=11.0)  # two polls past readiness
    return world, remos


def best_of(calls: int, fn) -> float:
    """Best wall-clock of *calls* invocations (seconds)."""
    best = float("inf")
    for _ in range(calls):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


def federation_point(shards: int, leaves: int, spines: int, hosts_per_leaf: int) -> dict:
    world, remos = build_world(shards, leaves, spines, hosts_per_leaf)
    try:
        plan = world.plan
        last = plan.shards[-1]
        intra = Flow(plan.hosts["s0"][0], plan.hosts["s0"][-1])
        cross = Flow(plan.hosts["s0"][0], plan.hosts[last][-1])
        firsts = [plan.hosts[shard][0] for shard in plan.shards]
        allpairs = [Flow(src, dst) for src in firsts for dst in firsts if src != dst]
        gc.collect()
        gc.disable()
        try:
            # Warm both planes (routes, capacity views), then time.
            remos.flow_info(variable_flows=[intra])
            remos.flow_info(variable_flows=[cross])
            remos.flow_info(variable_flows=allpairs)
            intra_wall = best_of(
                5, lambda: remos.flow_info(variable_flows=[intra])
            )
            cross_wall = best_of(
                5, lambda: remos.flow_info(variable_flows=[cross])
            )
            allpairs_wall = best_of(
                5, lambda: remos.flow_info(variable_flows=allpairs)
            )
            # Merge cost: force a full re-summarize by advancing every cell.
            world.settle(6.0)
            for cell in world.all_cells():
                cell.refresh()
            t0 = time.perf_counter()
            summary = world.aggregator.refresh()
            merge_wall = time.perf_counter() - t0
        finally:
            gc.enable()
        return {
            "shards": shards,
            "hosts": plan.host_count,
            "hosts_per_shard": leaves * hosts_per_leaf,
            "summary_edges": len(summary.edges),
            "intra_query_ms": intra_wall * 1e3,
            "cross_query_ms": cross_wall * 1e3,
            "allpairs_flows": len(allpairs),
            "allpairs_query_ms": allpairs_wall * 1e3,
            "merge_ms": merge_wall * 1e3,
        }
    finally:
        world.stop()


@pytest.mark.parametrize(
    "shape", SHARD_SWEEP, ids=lambda s: f"shards{s[0]}x{s[1] * s[3]}"
)
def test_shard_sweep_point(benchmark, shape):
    result = benchmark.pedantic(
        lambda: federation_point(*shape), rounds=1, iterations=1
    )
    _results[(result["shards"], result["hosts_per_shard"])] = result
    # A warm federated query is interactive at every federation size.
    assert result["cross_query_ms"] < 250.0


def test_cross_query_cost_tracks_summary_not_hosts(benchmark):
    """The gate: 4x the hosts at fixed shards, nearly flat cross cost."""

    def experiment():
        return [federation_point(*shape) for shape in HOST_PAIR]

    small, large = benchmark.pedantic(experiment, rounds=1, iterations=1)
    host_ratio = large["hosts"] / small["hosts"]
    cross_ratio = large["cross_query_ms"] / small["cross_query_ms"]
    flatness = host_ratio / cross_ratio
    _results["host_scaling"] = {
        "shards": small["shards"],
        "small": small,
        "large": large,
        "host_ratio": host_ratio,
        "cross_ratio": cross_ratio,
        "flatness": flatness,
    }
    # Same summary (8 shards, 28 bundles) on both sides: if cross-shard
    # cost tracked the host count it would grow ~4x; composition over the
    # summary + endpoint shards must hold it to at most half that.
    assert small["summary_edges"] == large["summary_edges"]
    assert flatness >= 2.0, (
        f"cross-shard query cost grew {cross_ratio:.2f}x for a "
        f"{host_ratio:.0f}x host increase (flatness {flatness:.2f} < 2)"
    )


def test_smoke_federation_differential(benchmark):
    """CI smoke: the federation contract on a 2-shard world, cheaply."""

    def experiment():
        world, remos = build_world(2, 2, 2, 2)
        try:
            oracle = world.oracle_remos()
            world.refresh_all()
            intra = Flow("s0-leaf0-h0", "s0-leaf1-h1")
            cross = Flow("s0-leaf0-h0", "s1-leaf1-h1")
            fed_intra = remos.flow_info(variable_flows=[intra]).variable[0]
            ref_intra = oracle.flow_info(variable_flows=[intra]).variable[0]
            fed_cross = remos.flow_info(variable_flows=[cross]).variable[0]
            ref_cross = oracle.flow_info(variable_flows=[cross]).variable[0]
            summary = remos.snapshot()
            return fed_intra, ref_intra, fed_cross, ref_cross, summary
        finally:
            world.stop()

    fed_intra, ref_intra, fed_cross, ref_cross, summary = benchmark.pedantic(
        experiment, rounds=1, iterations=1
    )
    # Intra-shard: bit-identical to the oracle (same series by reference).
    assert fed_intra.bandwidth == ref_intra.bandwidth
    assert fed_intra.hop_count == ref_intra.hop_count
    # Cross-shard: conservative — never more than the oracle grants.
    for level in ("minimum", "q1", "median", "q3", "maximum", "mean"):
        assert getattr(fed_cross.bandwidth, level) <= getattr(
            ref_cross.bandwidth, level
        ) * (1 + 1e-9)
    assert fed_cross.bandwidth.median > 0
    _results["smoke"] = {
        "shards": 2,
        "intra_bit_identical": True,
        "cross_conservative": True,
        "summary_edges": len(summary.edges),
    }


def test_federation_report(benchmark):
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)
    table = Table(
        "Federated Remos - shard sweep (64 hosts/shard, mesh WAN)",
        [
            "Shards", "hosts", "summary edges",
            "intra query (ms)", "cross query (ms)",
            "all-pairs flows", "all-pairs query (ms)", "merge (ms)",
        ],
    )
    sweep = []
    for key in sorted(k for k in _results if isinstance(k, tuple)):
        r = _results[key]
        if r["hosts_per_shard"] != 64:
            continue
        sweep.append(r)
        table.add_row(
            r["shards"], r["hosts"], r["summary_edges"],
            f"{r['intra_query_ms']:.2f}", f"{r['cross_query_ms']:.2f}",
            r["allpairs_flows"], f"{r['allpairs_query_ms']:.2f}",
            f"{r['merge_ms']:.2f}",
        )
    text = table.render()
    if "host_scaling" in _results:
        h = _results["host_scaling"]
        text += (
            f"\nhost scaling @ {h['shards']} shards: "
            f"{h['small']['hosts']} -> {h['large']['hosts']} hosts "
            f"({h['host_ratio']:.0f}x), cross-shard query "
            f"{h['small']['cross_query_ms']:.2f} -> "
            f"{h['large']['cross_query_ms']:.2f} ms "
            f"({h['cross_ratio']:.2f}x) = flatness {h['flatness']:.1f}"
        )
    emit("\n" + text)

    if sweep or "host_scaling" in _results:
        payload = {
            "benchmark": "bench_federation",
            "topology": "leaf-spine regions, one gateway each, mesh WAN",
            "sweep": sweep,
            "host_scaling": _results.get("host_scaling"),
            "smoke": _results.get("smoke"),
        }
        out = Path(__file__).resolve().parent.parent / "BENCH_federation.json"
        out.write_text(json.dumps(payload, indent=2) + "\n")
