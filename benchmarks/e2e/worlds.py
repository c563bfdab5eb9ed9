"""The two simulated worlds the benchmark serves, built from a seed.

Both the server launcher (``server.py``) and the in-process oracle
(``verify.py``) build their world here, so equal seeds give equal worlds.
"""

from __future__ import annotations

import random

from repro.federation import FederationWorld
from repro.net.builder import TopologyBuilder
from repro.testbed import World
from repro.traffic import TrafficScenario, TrafficSpec

WARMUP_S = 20.0  #: simulated seconds of measurement before the first publish
POLL_INTERVAL = 1.0
N_HOSTS = 64
HOSTS_PER_LEAF = 4
BACKGROUND_STREAMS = 12
FED_SHAPE = dict(shards=4, leaves=2, spines=2, hosts_per_leaf=8)

#: world name -> capacity (bits/s) of the link each host hangs on: the most
#: any single flow can be granted.
ACCESS_CAPACITY = {"tree64": 100e6, "fed4": 1e9}
WORLDS = tuple(ACCESS_CAPACITY)


def build_tree(n_hosts: int = N_HOSTS, hosts_per_router: int = HOSTS_PER_LEAF):
    """Balanced two-level router tree: 100 Mbps access, 1 Gbps uplinks.

    The shape ``BENCH_concurrency``/``BENCH_scale`` use, so their numbers
    can be read against this benchmark's.
    """
    builder = TopologyBuilder(f"tree{n_hosts}").router("core")
    hosts = []
    for leaf in range((n_hosts + hosts_per_router - 1) // hosts_per_router):
        router = f"leaf{leaf}"
        builder.router(router)
        builder.link(router, "core", "1Gbps", "0.5ms")
        for index in range(leaf * hosts_per_router, (leaf + 1) * hosts_per_router):
            if index >= n_hosts:
                break
            host = f"h{index}"
            hosts.append(host)
            builder.host(host)
            builder.link(host, router, "100Mbps", "0.1ms")
    return builder.build(), hosts


def background_traffic(hosts: list[str], seed: int, scale: float) -> TrafficScenario:
    """Seeded cbr/on-off streams so link series are not constant.

    *scale* is the access-link capacity in Mbps; rates stay below it so
    the streams load links without saturating them.
    """
    rng = random.Random(f"traffic-{seed}")
    specs = []
    for index in range(BACKGROUND_STREAMS):
        src, dst = rng.sample(hosts, 2)
        rate = f"{rng.uniform(0.1, 0.5) * scale:.3f}Mbps"
        if index % 2:
            specs.append(
                TrafficSpec(src, dst, kind="onoff", rate=rate, mean_on=2.0, mean_off=2.0)
            )
        else:
            specs.append(TrafficSpec(src, dst, kind="cbr", rate=rate))
    return TrafficScenario(f"background-{seed}", specs)


def build_world(name: str, seed: int):
    """The named world with its seeded background traffic running."""
    if name == "tree64":
        topology, hosts = build_tree()
        world = World.from_topology(topology, poll_interval=POLL_INTERVAL)
    elif name == "fed4":
        world = FederationWorld.build(poll_interval=POLL_INTERVAL, **FED_SHAPE)
        hosts = [host for names in world.plan.hosts.values() for host in names]
    else:
        raise ValueError(f"unknown world {name!r}; expected one of {WORLDS}")
    background_traffic(hosts, seed, ACCESS_CAPACITY[name] / 1e6).start(world.net, rng=seed)
    return world
