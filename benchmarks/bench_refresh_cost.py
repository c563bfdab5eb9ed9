"""Steady-state refresh cost: incremental view pipeline vs full re-merge.

The scenario every long-running Remos deployment sits in: the network is
discovered, routes and graph plans are warm, and each collector sweep
touches a handful of link directions.  Before the incremental rework the
master re-merged every child view from scratch, so a *sparse* sweep cost
as much as a cold start.  With delta journalling the master applies the
sweep in place; the Modeler keeps every structural memo and reprices
just what the re-query crosses, from an empty per-epoch price memo.

The head-to-head drives one scripted 256-host child through sparse
metrics-only sweeps and, after every sweep, refreshes + re-queries two
otherwise identical stacks:

* **incremental** — the default ``CollectorMaster`` + warm ``Remos``;
* **full rebuild** — ``CollectorMaster(full_rebuild=True)`` + warm
  ``Remos``: the legacy rebuild-everything pipeline, kept exactly for this
  baseline.

Both stacks must return **bit-identical** answers every round (see
``tests/core/test_partial_invalidation.py`` for the randomized version),
and the incremental stack must sustain at least ``GATE_ROUNDS_PER_S``
refresh + re-query rounds per second.  The gate is that absolute figure,
not the ratio between the stacks: the ratio fell from 11.6x to ~3x when
pricing a cache miss got ~6x cheaper (the full-rebuild side is nearly all
misses, so it gained most), while both sides got faster.  The ratio is
still reported.  CI runs this as part of the scale smoke step.  Results
land in ``BENCH_refresh.json``.
"""

from __future__ import annotations

import json
import time
from pathlib import Path

from repro.collector import Collector, CollectorMaster, MetricsStore
from repro.collector.base import NetworkView
from repro.core import Flow, Remos, Timeframe
from repro.util import mbps

from benchmarks._experiments import emit
from benchmarks.bench_ablation_scale import build_tree, spread_hosts

N_HOSTS = 256
PREFILL_SAMPLES = 10
ROUNDS = 40
#: Incremental rounds/s floor: 15.7 ms/round (64 rounds/s) before the
#: columnar series, ~2.2 ms/round (~450 rounds/s) after; 150 leaves a slow
#: CI runner 3x slack and still fails a return to the old cost.
GATE_ROUNDS_PER_S = 150.0


class ScriptedCollector(Collector):
    """A ready collector whose view the benchmark drives by hand."""

    def __init__(self, view: NetworkView):
        super().__init__()
        self._view = view

    def start(self):  # pragma: no cover - driven by hand
        raise NotImplementedError

    def stop(self) -> None:
        pass


def build_child() -> tuple[ScriptedCollector, list[str]]:
    topology, hosts = build_tree(N_HOSTS)
    metrics = MetricsStore()
    for direction in topology.iter_directions():
        for i in range(PREFILL_SAMPLES):
            metrics.record(direction.link.name, direction.src, float(i), mbps(10))
    view = NetworkView(topology=topology, metrics=metrics)
    view.record_sweep(frozenset())
    return ScriptedCollector(view), hosts


def test_incremental_refresh_speedup(benchmark):
    def experiment():
        child, hosts = build_child()
        incremental = CollectorMaster(None, [child])
        rebuild = CollectorMaster(None, [child], full_rebuild=True)
        remos_inc = Remos(incremental)
        remos_full = Remos(rebuild)
        timeframe = Timeframe.current()
        query_hosts = spread_hosts(hosts, 5)
        flows = [
            Flow(query_hosts[0], query_hosts[2]),
            Flow(query_hosts[1], query_hosts[3]),
        ]
        # Sparse sweeps touch access links of hosts far from the queried
        # ones: the steady-state shape (most of the world is quiet).
        topo = child.view().topology
        touch_hosts = [h for h in hosts if h not in query_hosts][:8]
        touch_keys = [
            (topo.links_at(host)[0].name, host) for host in touch_hosts
        ]

        def refresh_and_query(master, remos):
            start = time.perf_counter()
            master.refresh()
            result = remos.flow_info(variable_flows=flows, timeframe=timeframe)
            graph = remos.get_graph(query_hosts, timeframe)
            return time.perf_counter() - start, result, graph

        # Warm both stacks (discovery-equivalent cold start; untimed).
        refresh_and_query(incremental, remos_inc)
        refresh_and_query(rebuild, remos_full)

        wall_inc = wall_full = 0.0
        for round_no in range(ROUNDS):
            key = touch_keys[round_no % len(touch_keys)]
            sweep_time = PREFILL_SAMPLES + 0.05 * round_no
            child.view().metrics.record(key[0], key[1], sweep_time, mbps(30))
            child.view().record_sweep({key})
            dt, flows_inc, graph_inc = refresh_and_query(incremental, remos_inc)
            wall_inc += dt
            dt, flows_full, graph_full = refresh_and_query(rebuild, remos_full)
            wall_full += dt
            assert flows_inc == flows_full
            assert graph_inc.to_dict() == graph_full.to_dict()
        return incremental, rebuild, wall_inc, wall_full

    incremental, rebuild, wall_inc, wall_full = benchmark.pedantic(
        experiment, rounds=1, iterations=1
    )
    # Every steady-state refresh really took the delta path (and the
    # baseline really rebuilt every time).
    assert incremental.delta_merges == ROUNDS
    assert incremental.full_merges == 1
    assert rebuild.full_merges == ROUNDS + 1
    speedup = wall_full / wall_inc
    rounds_per_s = ROUNDS / wall_inc
    emit(
        f"Steady-state refresh + warm re-query, {N_HOSTS} hosts, "
        f"{ROUNDS} sparse metrics-only sweeps:\n"
        f"  incremental pipeline  {wall_inc * 1e3 / ROUNDS:8.2f} ms/round\n"
        f"  full-rebuild pipeline {wall_full * 1e3 / ROUNDS:8.2f} ms/round\n"
        f"  incremental rate      {rounds_per_s:8.1f} rounds/s "
        f"(gate: >= {GATE_ROUNDS_PER_S:g}, answers bit-identical)\n"
        f"  full/incremental      {speedup:8.1f}x (reported, not gated)"
    )
    payload = {
        "benchmark": "bench_refresh_cost",
        "hosts": N_HOSTS,
        "rounds": ROUNDS,
        "incremental_ms_per_round": wall_inc * 1e3 / ROUNDS,
        "full_rebuild_ms_per_round": wall_full * 1e3 / ROUNDS,
        "incremental_rounds_per_s": rounds_per_s,
        "speedup": speedup,
        "gate_rounds_per_s": GATE_ROUNDS_PER_S,
    }
    out = Path(__file__).resolve().parent.parent / "BENCH_refresh.json"
    out.write_text(json.dumps(payload, indent=2) + "\n")
    assert rounds_per_s >= GATE_ROUNDS_PER_S
