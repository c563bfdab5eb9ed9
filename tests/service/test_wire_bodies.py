"""What goes on the wire: compact JSON that parses to exactly ``to_dict()``.

The service is started and then left alone (its sweeper sleeps for an
hour), so the in-process facade and the HTTP server answer from the same
epoch and bodies can be compared to the bit.
"""

import json
import subprocess
import sys
import threading
from http.client import HTTPConnection
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from repro.core import Flow, FlowAnswer, FlowInfoResult, MulticastFlow, NodeAnswer
from repro.core import RemosEdge, RemosGraph, RemosNode, Timeframe
from repro.net import NodeKind
from repro.service import RemosService, serve_aio
from repro.service.app import Request, _finite, _query_response, handle_request
from repro.stats import StatMeasure
from repro.testbed import CMU_HOSTS, build_cmu_testbed
from repro.util.errors import QueryError


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


# -- one writer per answer: to_json() is the dict form dumped as the wire did --


def dumped(payload: dict) -> str:
    """What the service wrote before the writers: the dict form, dumped."""
    return json.dumps(_finite(payload), separators=(",", ":"), allow_nan=False)


SPECIAL_FLOATS = [
    -0.0, 0.0, float("nan"), float("inf"), -float("inf"), 5e-324, 2.2250738585072014e-308,
    1e16, 1e-05, 0.1, 1.0, 1e22, 123456789.12345679,
]
#: Ints and bools beside equal floats (1 == 1.0 == True): the float memo
#: must never hand an int or a bool a float's text.
ODD_NUMBERS = [0, 1, -1, 2**53 + 1, True, False]

names = st.text(
    alphabet=st.sampled_from('ab"\\/\x00\x1f\x7f é€\U0001f600 \ud800'), max_size=6
) | st.text(max_size=6)


@st.composite
def number_pools(draw):
    """A few values that every figure of one answer is drawn from, so they repeat."""
    return draw(
        st.lists(
            st.sampled_from(SPECIAL_FLOATS) | st.floats() | st.sampled_from(ODD_NUMBERS),
            min_size=1,
            max_size=5,
        )
    )


def measures_from(draw, pool, count):
    """*count* measures over *pool*; some answers share one measure object."""
    made = []
    for _ in range(count):
        if made and draw(st.booleans()):
            made.append(draw(st.sampled_from(made)))
            continue
        quartiles = [draw(st.sampled_from(pool)) for _ in range(5)]
        made.append(
            StatMeasure.presorted(
                quartiles,
                mean=draw(st.sampled_from(pool)),
                n_samples=draw(st.integers(0, 10**6)),
                accuracy=draw(st.sampled_from([0.0, 1.0, 0.25, 1 / 3])),
            )
        )
    return made


timeframes = st.sampled_from(
    [Timeframe.static(), Timeframe.current(), Timeframe.history(30.0),
     Timeframe.future(5.0, predictor="auto", window=60.0)]
)


@st.composite
def flow_results(draw):
    pool = draw(number_pools())
    count = draw(st.integers(0, 8))
    measures = measures_from(draw, pool, 2 * count)
    answers = []
    for i in range(count):
        src = draw(names)
        if draw(st.booleans()):
            flow = Flow(src, draw(names), name=draw(st.none() | names))
        else:
            flow = MulticastFlow(src, draw(st.lists(names, min_size=1, max_size=3)))
        bottleneck = draw(
            st.none()
            | st.tuples(names, names)
            | st.tuples(st.just("fed"), names, names)
        )
        answers.append(
            FlowAnswer(
                flow=flow,
                label=flow.label(i, "variable") if draw(st.booleans()) else draw(names),
                bandwidth=measures[2 * i],
                latency=measures[2 * i + 1],
                hop_count=draw(st.integers(0, 12)),
                satisfied=draw(st.sampled_from([None, True, False])),
                bottleneck=bottleneck,
            )
        )
    cut = sorted(draw(st.lists(st.integers(0, count), min_size=2, max_size=2)))
    return FlowInfoResult(
        timeframe=draw(timeframes),
        fixed=answers[: cut[0]],
        variable=answers[cut[0] : cut[1]],
        independent=answers[cut[1] :],
    )


@st.composite
def graphs(draw):
    pool = draw(number_pools())
    collapse = draw(st.sampled_from(["flat", "hier", "federated"]))
    node_names = draw(st.lists(names, min_size=1, max_size=6, unique=True))
    graph = RemosGraph(draw(st.lists(st.sampled_from(node_names), max_size=4)))
    graph.collapse = collapse
    for name in node_names:
        aggregate = collapse == "hier" and draw(st.booleans())
        graph.add_node(
            RemosNode(
                name="agg:" + name if aggregate else name,
                kind=draw(st.sampled_from(list(NodeKind))),
                internal_bandwidth=float("inf") if aggregate else draw(st.sampled_from(pool)),
                compute_speed=draw(st.sampled_from(pool)),
                memory_bytes=draw(st.sampled_from(pool)),
                aggregate=aggregate,
                member_count=draw(st.integers(2, 9)) if aggregate else 1,
            )
        )
    ends = [node.name for node in graph.nodes]
    pairs = draw(st.lists(st.tuples(st.sampled_from(ends), st.sampled_from(ends)), max_size=6))
    measures = measures_from(draw, pool, 2 * len(pairs))
    for i, (a, b) in enumerate(pairs):
        name = f"fed:{a}|{b}~{i}" if collapse == "federated" else f"{a}--{b}~{i}"
        available = {a: measures[2 * i]}
        if a != b and draw(st.booleans()):
            available[b] = measures[2 * i + 1]
        graph.add_edge(
            RemosEdge(
                name=name, a=a, b=b,
                capacity=draw(st.sampled_from(pool)),
                latency=draw(st.sampled_from(pool)),
                available=available,
                physical_links=tuple(draw(st.lists(names, max_size=3))),
            )
        )
    return graph


@st.composite
def node_answers(draw):
    pool = draw(number_pools())
    load, available = measures_from(draw, pool, 2)
    return NodeAnswer(
        name=draw(names),
        compute_speed=draw(st.sampled_from(pool)),
        memory_bytes=draw(st.sampled_from(pool)),
        cpu_load=load,
        cpu_available=available,
    )


answers_of_every_type = flow_results() | graphs() | node_answers()


@settings(max_examples=300, deadline=None)
@given(answer=answers_of_every_type)
def test_to_json_is_the_dict_form_dumped_as_the_wire_dumps_it(answer):
    assert answer.to_json() == dumped(answer.to_dict())


@settings(max_examples=100, deadline=None)
@given(answer=answers_of_every_type)
def test_a_degraded_answer_carries_the_flag_last(answer):
    """Admission appends ``timeframe_degraded`` where the dict form did."""
    response = _query_response(answer.to_json(), degraded=True)
    assert response.content_type == "application/json"
    assert response.headers["X-Remos-Degraded"] == "future->current"
    assert response.body == dumped({**answer.to_dict(), "timeframe_degraded": True}).encode()


def test_each_distinct_float_is_formatted_once(monkeypatch):
    """A body repeats its numbers; the writer formats each one once."""
    from repro.core import jsontext

    calls = []
    real_repr = float.__repr__

    class CountingFloats(jsontext._Floats):
        def __missing__(self, value):
            calls.append(real_repr(value))
            return super().__missing__(value)

    monkeypatch.setattr(jsontext, "_Floats", CountingFloats)
    rates = [1.5e6, 2.5e6, 1.5e6 + 0.0, 0.0, -0.0]
    answers = [
        FlowAnswer(
            flow=Flow("a", "b"),
            label=f"f{i}",
            bandwidth=StatMeasure.presorted([rate] * 5, rate, 3, 0.5),
            latency=StatMeasure.constant(0.002),
            hop_count=2,
        )
        for i, rate in enumerate(rates * 6)
    ]
    result = FlowInfoResult(timeframe=Timeframe.current(), variable=answers)
    assert result.to_json() == dumped(result.to_dict())
    # 1.5e6, 2.5e6, 0.5 and 0.002 once each; the zeros every time they occur
    # (0.0 and -0.0 are one dict key with two spellings).
    assert sorted(set(calls) - {"0.0", "-0.0"}) == ["0.002", "0.5", "1500000.0", "2500000.0"]
    assert calls.count("0.0") + calls.count("-0.0") == 2 * 6 * 6


# -- the kept graph body -------------------------------------------------------


def test_a_written_graph_is_read_only():
    graph = RemosGraph(["a"])
    graph.add_node(RemosNode("a", NodeKind.COMPUTE))
    graph.add_node(RemosNode("r", NodeKind.NETWORK))
    text = graph.to_json()
    with pytest.raises(QueryError, match="read-only"):
        graph.add_node(RemosNode("b", NodeKind.COMPUTE))
    with pytest.raises(QueryError, match="read-only"):
        graph.add_edge(RemosEdge("a--r", "a", "r", 1e8, 0.0))
    assert graph.to_json() is text
    assert [node.name for node in graph.nodes] == ["a", "r"]


@pytest.fixture
def fresh_service():
    world = build_cmu_testbed(poll_interval=0.5)
    service = RemosService.from_world(world, sweep_interval=3600.0)
    service.prepare(warmup=5.0)
    yield service
    service.stop()


def publish(service) -> None:
    before = service.remos.publisher.current().generation
    service._env.run(until=service._env.now + 1.0)
    service.remos.publish()
    assert service.remos.publisher.current().generation != before


GRAPH_TARGET = "/graph?nodes=" + ",".join(CMU_HOSTS[:5])


def test_a_graph_asked_twice_in_one_epoch_is_written_once(fresh_service, monkeypatch):
    writes = []
    real_write = RemosGraph._write_json

    def counting(graph):
        writes.append(graph)
        return real_write(graph)

    monkeypatch.setattr(RemosGraph, "_write_json", counting)
    bodies = [handle_request(fresh_service, Request("GET", GRAPH_TARGET)).body for _ in range(3)]
    assert len(writes) == 1 and len(set(bodies)) == 1
    publish(fresh_service)
    body = handle_request(fresh_service, Request("GET", GRAPH_TARGET)).body
    assert len(writes) == 2
    graph = fresh_service.remos.get_graph(CMU_HOSTS[:5])
    assert graph is writes[1]  # the epoch's memo, written once
    assert body == dumped(graph.to_dict()).encode()


def test_readers_racing_on_a_fresh_graph_get_identical_bytes(fresh_service):
    publish(fresh_service)
    start = threading.Barrier(8)
    bodies: list[bytes] = []

    def read():
        start.wait()
        bodies.append(handle_request(fresh_service, Request("GET", GRAPH_TARGET)).body)

    readers = [threading.Thread(target=read) for _ in range(8)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)  # switch threads mid-write
    try:
        for reader in readers:
            reader.start()
        for reader in readers:
            reader.join(timeout=30)
    finally:
        sys.setswitchinterval(interval)
    assert not any(reader.is_alive() for reader in readers)
    assert len(bodies) == 8 and len(set(bodies)) == 1
    graph = fresh_service.remos.get_graph(CMU_HOSTS[:5])
    assert bodies[0] == dumped(graph.to_dict()).encode()
