"""The benchmark's workloads and their seeded request pools.

Each workload is one traffic mix against one server configuration; the
``why`` strings are the reasons recorded in ``BENCHMARK.json``.  A pool
holds :data:`POOL_SIZE` distinct requests built from ``--seed`` and the
order requests are sent in is drawn from the same seed, so equal seeds
give byte-identical request streams and the server receives nothing but
the generated requests.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass

from repro.federation import build_federation

import worlds

POOL_SIZE = 64
ORDER_LENGTH = 1 << 16  #: the order sequence repeats after this many requests

HISTORY = {"kind": "history", "window": 10.0}
FUTURE = {"kind": "future", "horizon": 10.0, "predictor": "auto"}
STATIC = {"kind": "static"}


@dataclass(frozen=True)
class Request:
    """One generated request: the wire form plus what the checker needs."""

    kind: str  #: "flow", "graph" or "node"
    method: str
    target: str
    body: bytes = b""
    pairs: tuple[tuple[str, str], ...] = ()  #: flow: ordered (src, dst) pairs
    nodes: tuple[str, ...] = ()  #: graph: the query nodes; node: the host
    timeframe: dict | None = None  #: JSON timeframe spec; None = CURRENT


def flow_request(hosts: list[str], timeframe: dict) -> Request:
    """All ordered pairs among *hosts* as variable flows.

    The all-to-all transpose an Fx program issues among its selected nodes.
    """
    pairs = tuple((a, b) for a in hosts for b in hosts if a != b)
    body = json.dumps(
        {"variable": [{"src": a, "dst": b} for a, b in pairs], "timeframe": timeframe}
    ).encode()
    return Request("flow", "POST", "/flow_info", body, pairs=pairs, timeframe=timeframe)


def graph_request(hosts: list[str]) -> Request:
    return Request("graph", "GET", "/graph?nodes=" + ",".join(hosts), nodes=tuple(hosts))


def node_request(host: str) -> Request:
    return Request("node", "GET", f"/node/{host}", nodes=(host,))


def _all_pairs_pool(sizes, timeframe):
    def build(rng: random.Random, hosts: list[str]) -> list[Request]:
        return [
            flow_request(rng.sample(hosts, sizes[i % len(sizes)]), timeframe)
            for i in range(POOL_SIZE)
        ]

    return build


def _graph_pool(rng: random.Random, hosts: list[str]) -> list[Request]:
    return [graph_request(rng.sample(hosts, (4, 8, 16)[i % 3])) for i in range(POOL_SIZE)]


def _small_rpc_pool(rng: random.Random, hosts: list[str]) -> list[Request]:
    return [
        flow_request(rng.sample(hosts, 2), STATIC)
        if i % 2
        else node_request(rng.choice(hosts))
        for i in range(POOL_SIZE)
    ]


def _fed_pool(rng: random.Random, hosts: dict[str, list[str]]) -> list[Request]:
    shards = sorted(hosts)
    pool = []
    for i in range(POOL_SIZE):
        if i % 2:  # one host per shard: every flow crosses the WAN
            picked = [rng.choice(hosts[shard]) for shard in shards]
        else:  # four hosts of one shard: answered by that cell alone
            picked = rng.sample(hosts[rng.choice(shards)], 4)
        pool.append(flow_request(picked, HISTORY))
    return pool


@dataclass(frozen=True)
class Workload:
    name: str
    why: str  #: one line: which layers it loads and which it bypasses
    stream: str  #: workloads sharing a stream send byte-identical requests
    build_pool: object
    sweep_interval: float  #: wall seconds between sweeper iterations
    world: str = "tree64"
    #: Open loop at this many requests/s (None = closed loop).  flow_open's
    #: rate is half of flow_churn's closed-loop qps at the seed commit.
    rate: float | None = None
    connections: int = 2  #: keep-alive connections, one generator thread each
    #: Latency limit for ``within_limit_share``: 3 x the workload's p50 at
    #: the seed commit, frozen here so later commits are held to the same limit.
    limit_ms: float = 0.0


_FLOW_POOL = _all_pairs_pool((2, 6, 10), HISTORY)

WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "flow_steady",
            "HISTORY all-pairs flow queries, ~1 publish/s: caches stay warm, so fairshare "
            "solve, core.api request building and answer encoding do the work.",
            "flow_hist", _FLOW_POOL, sweep_interval=1.0, limit_ms=41.0,
        ),
        Workload(
            "flow_churn",
            "Same request stream beside ~8 publishes/s: every publish evicts cache entries, "
            "so modeler pricing on miss, collector refresh and writer GIL time show.",
            "flow_hist", _FLOW_POOL, sweep_interval=0.1, limit_ms=59.0,
        ),
        Workload(
            "flow_open",
            "Same stream and server as flow_churn, open loop at a fixed rate timed from the "
            "due time: the only place queueing, coalescing and head-of-line blocking show.",
            "flow_hist", _FLOW_POOL, sweep_interval=0.1, rate=40.0, connections=16,
            limit_ms=48.0,
        ),
        Workload(
            "future_churn",
            "FUTURE(auto) flow queries under churn: core.evaluator and stats predictors do "
            "the work; against flow_churn it gives the FUTURE/HISTORY cost ratio.",
            "flow_future", _all_pairs_pool((2, 2, 3), FUTURE), sweep_interval=0.1,
            limit_ms=100.0,
        ),
        Workload(
            "graph_mix",
            "GET /graph over 4-16 hosts: logical_graph, routing and 8-32 KB JSON bodies "
            "dominate; fairshare does nothing, so a kernel change must read no change here.",
            "graph", _graph_pool, sweep_interval=0.1, limit_ms=20.5,
        ),
        Workload(
            "small_rpc",
            "Smallest messages (node info and 1-pair STATIC flows, ~1 ms): per-request cost "
            "of service.aio parse/write and service.app routing; engine layers idle.",
            "small", _small_rpc_pool, sweep_interval=1.0, limit_ms=7.2,
        ),
        Workload(
            "fed_cross",
            "4-shard federation, half intra-shard and half cross-shard all-pairs: "
            "federation.api and aggregator merge, which the single-cell path never runs.",
            "fed", _fed_pool, sweep_interval=0.1, world="fed4", limit_ms=49.0,
        ),
    )
}


def build_requests(workload: Workload, seed: int, hosts) -> tuple[list[Request], list[int]]:
    """``(pool, order)``: the distinct requests and the index sequence to send."""
    pool = workload.build_pool(random.Random(f"pool-{workload.stream}-{seed}"), hosts)
    order_rng = random.Random(f"order-{workload.stream}-{seed}")
    return pool, [order_rng.randrange(len(pool)) for _ in range(ORDER_LENGTH)]


def world_hosts(world: str):
    """The host names of *world* without building its simulation."""
    if world == "tree64":
        return worlds.build_tree()[1]
    plan = build_federation(**worlds.FED_SHAPE)
    return {shard: list(names) for shard, names in plan.hosts.items()}
