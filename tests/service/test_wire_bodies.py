"""What goes on the wire: compact JSON that parses to exactly ``to_dict()``.

The service is started and then left alone (its sweeper sleeps for an
hour), so the in-process facade and the HTTP server answer from the same
epoch and bodies can be compared to the bit.
"""

import json
import subprocess
import sys
from http.client import HTTPConnection
from pathlib import Path

import pytest

from repro.core import Flow, Timeframe
from repro.service import RemosService, serve_aio
from repro.testbed import CMU_HOSTS, build_cmu_testbed


@pytest.fixture(scope="module")
def parked():
    world = build_cmu_testbed(poll_interval=0.5)
    service = RemosService.from_world(world, sweep_interval=3600.0)
    service.start(warmup=5.0)
    server = serve_aio(service, port=0)
    yield service, server.address
    server.stop()
    service.stop()


def exchange(address, method: str, target: str, body: bytes | None = None):
    conn = HTTPConnection(address[0], address[1], timeout=10)
    try:
        conn.request(method, target, body=body)
        response = conn.getresponse()
        return response.status, response.headers, response.read()
    finally:
        conn.close()


def wire_form(answer) -> object:
    return json.loads(json.dumps(answer.to_dict()))


def check(status, headers, body, expected) -> None:
    assert status == 200
    assert int(headers["Content-Length"]) == len(body)
    assert b"\n" not in body and b": " not in body  # compact separators
    assert json.loads(body) == wire_form(expected)
    # Finite answers go out as one plain compact dump, byte for byte.
    assert body == json.dumps(expected.to_dict(), separators=(",", ":")).encode()


def test_flow_info_body(parked):
    service, address = parked
    hosts = CMU_HOSTS[:4]
    pairs = [(a, b) for a in hosts for b in hosts if a != b]
    timeframe = {"kind": "history", "window": 10.0}
    request = json.dumps(
        {"variable": [{"src": a, "dst": b} for a, b in pairs], "timeframe": timeframe}
    ).encode()
    expected = service.remos.flow_info(
        variable_flows=[Flow(a, b) for a, b in pairs],
        timeframe=Timeframe.history(10.0),
    )
    check(*exchange(address, "POST", "/flow_info", request), expected)


def strict_loads(body: bytes):
    """``json.loads`` as RFC 8259 parsers behave: Infinity/NaN are errors."""

    def refuse(token):
        raise AssertionError(f"{token} is not JSON")

    return json.loads(body, parse_constant=refuse)


@pytest.mark.parametrize(
    "flows",
    [[("m-3", "m-3")], [("m-1", "m-4"), ("m-3", "m-3")]],
    ids=["alone", "beside-routed"],
)
def test_same_host_flow_answers_json_with_null_for_unbounded(parked, flows):
    """Two tasks on one node cross no resource: the allocation is
    unbounded, and the body must still be JSON (``null``, not Infinity)."""
    service, address = parked
    request = json.dumps({"variable": [{"src": a, "dst": b} for a, b in flows]})
    status, _, body = exchange(address, "POST", "/flow_info", request.encode())
    assert status == 200
    assert b"Infinity" not in body and b"NaN" not in body
    answers = strict_loads(body)["variable"]
    expected = service.remos.flow_info(variable_flows=[Flow(a, b) for a, b in flows])
    for (src, dst), answer, exact in zip(flows, answers, wire_form(expected)["variable"]):
        if src == dst:
            assert answer["bandwidth"]["min"] is None
            assert answer["bandwidth"]["median"] is None
            assert answer["bottleneck"] is None
        else:
            assert answer == exact  # the routed flow's figures are untouched


def test_graph_body(parked):
    service, address = parked
    hosts = CMU_HOSTS[:5]
    expected = service.remos.get_graph(hosts)
    check(*exchange(address, "GET", "/graph?nodes=" + ",".join(hosts)), expected)


def test_node_body(parked):
    service, address = parked
    expected = service.remos.node_info(CMU_HOSTS[2])
    check(*exchange(address, "GET", f"/node/{CMU_HOSTS[2]}"), expected)


GRAPH_BODY = """
import sys
from repro.net import TopologyBuilder, fat_tree
from repro.service import RemosService
from repro.service.app import Request, handle_request
from repro.testbed import World

if sys.argv[1] == "tree":
    builder = TopologyBuilder("tree16").router("core")
    for leaf in range(4):
        builder.router(f"leaf{leaf}").link(f"leaf{leaf}", "core", "1Gbps", "0.5ms")
        for index in range(4 * leaf, 4 * leaf + 4):
            builder.host(f"h{index}").link(f"h{index}", f"leaf{leaf}", "100Mbps", "0.1ms")
    topology, nodes = builder.build(), [f"h{i}" for i in (3, 14, 0, 9, 6, 12)]
else:
    topology = fat_tree(4)
    nodes = [host.name for host in topology.compute_nodes][::-1]
world = World.from_topology(topology, poll_interval=1.0)
world.net.open_flow(nodes[0], nodes[1], demand=3e7)
service = RemosService.from_world(world, sweep_interval=3600.0).prepare(5.0)
response = handle_request(service, Request("GET", "/graph?nodes=" + ",".join(nodes)))
assert response.status == 200, response.status
sys.stdout.buffer.write(response.body)
"""


@pytest.mark.parametrize("topology", ["tree", "fat_tree"])
def test_graph_body_does_not_depend_on_the_hash_seed(topology):
    """Edge order (and a parallel chain's ``~n`` suffix) used to follow set
    iteration order, so ``--workers`` processes answered different bytes."""
    src = str(Path(__file__).resolve().parents[2] / "src")
    bodies = set()
    for seed in ("1", "2", "3"):
        proc = subprocess.run(
            [sys.executable, "-c", GRAPH_BODY, topology],
            capture_output=True,
            timeout=120,
            env={"PYTHONPATH": src, "PYTHONHASHSEED": seed, "PATH": "/usr/bin:/bin"},
        )
        assert proc.returncode == 0, proc.stderr.decode()
        bodies.add(proc.stdout)
    assert len(bodies) == 1
