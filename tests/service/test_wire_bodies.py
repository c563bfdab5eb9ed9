"""What goes on the wire: compact JSON that parses to exactly ``to_dict()``.

The service is started and then left alone (its sweeper sleeps for an
hour), so the in-process facade and the HTTP server answer from the same
epoch and bodies can be compared to the bit.
"""

import json
from http.client import HTTPConnection

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
