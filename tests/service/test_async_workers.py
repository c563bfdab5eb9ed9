"""The asyncio front end and the multi-process epoch handoff.

The asyncio server must honour the observability contract of
:func:`repro.service.app.handle_request` on the wire: traceparent echo on
every response including errors, keep-alive connection reuse, structured
status codes — and client garbage, at the parser or in a well-formed body
of the wrong shape, is answered once with a 4xx/501, never a 500 or a
bare close.  The worker tests pin the handoff protocol: a
:class:`WorkerReplica` fed pickled frozen views over a pipe republishes
them locally (epoch advances, queries answer), always jumping to the
latest pending view, and an end-to-end pre-forked server serves real
HTTP from every worker while only the parent sweeps.
"""

import json
import multiprocessing
import socket
import time
import urllib.error
import urllib.request
from http.client import HTTPConnection

import pytest

from repro import obs
from repro.core import Flow
from repro.service import MultiProcessServer, RemosService, serve_aio
from repro.service.workers import WorkerReplica
from repro.testbed import build_cmu_testbed


@pytest.fixture(scope="module")
def live():
    obs.configure_observability(metrics=True, tracing=True, logging=False)
    world = build_cmu_testbed(poll_interval=0.5)
    service = RemosService.from_world(
        world, sweep_interval=0.05, slow_query_threshold=0.0
    )
    service.start(warmup=5.0)
    server = serve_aio(service, port=0)
    base = f"http://{server.address[0]}:{server.address[1]}"
    yield service, server, base
    server.stop()
    service.stop()


@pytest.fixture
def unhandled(live):
    """What reaches the server loop's exception handler during one test."""
    loop, seen = live[1]._loop, []
    loop.call_soon_threadsafe(
        loop.set_exception_handler, lambda _loop, context: seen.append(context)
    )
    yield seen
    loop.call_soon_threadsafe(loop.set_exception_handler, None)


def raw_exchange(server, payload: bytes) -> bytes:
    """Everything the server answers *payload* with before it closes."""
    with socket.create_connection(server.address, timeout=10) as sock:
        sock.sendall(payload)
        chunks = []
        while chunk := sock.recv(65536):
            chunks.append(chunk)
    return b"".join(chunks)


def fetch(url: str, data: bytes | None = None, headers: dict | None = None):
    request = urllib.request.Request(url, data=data, headers=headers or {})
    try:
        with urllib.request.urlopen(request, timeout=10) as response:
            return response.status, response.read(), dict(response.headers)
    except urllib.error.HTTPError as error:
        return error.code, error.read(), dict(error.headers)


class TestAsyncFrontEnd:
    def test_healthz_and_traceparent_echo(self, live):
        _, _, base = live
        sent = "00-12345678123456781234567812345678-1234567812345678-01"
        status, body, headers = fetch(base + "/healthz", headers={"traceparent": sent})
        assert status == 200
        assert json.loads(body)["status"] == "ok"
        echoed = {k.lower(): v for k, v in headers.items()}["traceparent"]
        assert echoed.split("-")[1] == sent.split("-")[1]  # same trace
        assert echoed != sent  # new span id

    def test_errors_carry_traceparent(self, live):
        _, _, base = live
        status, body, headers = fetch(base + "/graph")  # no nodes -> 400
        assert status == 400
        assert "error" in json.loads(body)
        assert "traceparent" in {k.lower() for k in headers}
        status, _, headers = fetch(base + "/definitely-not-a-path")
        assert status == 404
        assert "traceparent" in {k.lower() for k in headers}

    def test_flow_info_post(self, live):
        _, _, base = live
        payload = json.dumps(
            {"variable": [{"src": "m-1", "dst": "m-4"}]}
        ).encode()
        status, body, _ = fetch(
            base + "/flow_info", data=payload,
            headers={"Content-Type": "application/json"},
        )
        assert status == 200
        result = json.loads(body)
        assert result["variable"]
        assert all("bandwidth" in answer for answer in result["variable"])

    def test_keep_alive_reuses_connection(self, live):
        _, server, _ = live
        conn = HTTPConnection(server.address[0], server.address[1], timeout=10)
        try:
            for _ in range(3):
                conn.request("GET", "/healthz")
                response = conn.getresponse()
                response.read()
                assert response.status == 200
                assert response.headers.get("Connection") == "keep-alive"
        finally:
            conn.close()

    def test_connection_close_honoured(self, live):
        _, server, _ = live
        conn = HTTPConnection(server.address[0], server.address[1], timeout=10)
        try:
            conn.request("GET", "/healthz", headers={"Connection": "close"})
            response = conn.getresponse()
            response.read()
            assert response.status == 200
            assert response.headers.get("Connection") == "close"
        finally:
            conn.close()

    def test_malformed_request_line_answers_400(self, live, unhandled):
        _, server, _ = live
        reply = raw_exchange(server, b"NONSENSE\r\n\r\n")
        assert reply.startswith(b"HTTP/1.1 400")
        assert reply.count(b"HTTP/1.1 ") == 1 and not unhandled

    @pytest.mark.parametrize(
        "payload",
        [
            b"GET /healthz HTTP/1.1\r\nX-Pad: " + b"a" * 70_000 + b"\r\n\r\n",
            b"GET /" + b"a" * 70_000 + b" HTTP/1.1\r\n\r\n",
        ],
        ids=["header", "target"],
    )
    def test_overlong_line_answers_431(self, live, unhandled, payload):
        _, server, _ = live
        reply = raw_exchange(server, payload)
        head, _, body = reply.partition(b"\r\n\r\n")
        assert head.startswith(b"HTTP/1.1 431") and b"Connection: close" in head
        assert "error" in json.loads(body)
        assert reply.count(b"HTTP/1.1 ") == 1 and not unhandled

    def test_chunked_body_answers_one_501(self, live, unhandled):
        _, server, _ = live
        chunk = b'{"variable": [{"src": "m-1", "dst": "m-4"}]}'
        reply = raw_exchange(
            server,
            b"POST /flow_info HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n"
            + f"{len(chunk):x}\r\n".encode() + chunk + b"\r\n0\r\n\r\n",
        )
        assert reply.startswith(b"HTTP/1.1 501") and b"Connection: close" in reply
        assert reply.count(b"HTTP/1.1 ") == 1 and not unhandled

    def test_http_1_0_is_answered_and_closed(self, live, unhandled):
        _, server, _ = live
        # raw_exchange reads to EOF, as an HTTP/1.0 client does: it returns
        # only because the server closes.
        reply = raw_exchange(server, b"GET /healthz HTTP/1.0\r\n\r\n")
        assert reply.startswith(b"HTTP/1.1 200") and b"Connection: close" in reply
        assert reply.count(b"HTTP/1.1 ") == 1 and not unhandled

    def test_http_1_0_keep_alive_is_honoured(self, live, unhandled):
        _, server, _ = live
        ask = b"GET /healthz HTTP/1.0\r\nConnection: keep-alive\r\n\r\n"
        reply = raw_exchange(
            server, ask + b"GET /healthz HTTP/1.0\r\n\r\n"
        )
        assert reply.count(b"HTTP/1.1 200") == 2
        assert reply.count(b"Connection: keep-alive") == 1 and not unhandled

    def test_expect_100_continue_is_told_to_send_the_body(self, live, unhandled):
        _, server, _ = live
        body = json.dumps({"variable": [FLOW]}).encode()
        with socket.create_connection(server.address, timeout=10) as sock:
            started = time.perf_counter()
            sock.sendall(
                b"POST /flow_info HTTP/1.1\r\nExpect: 100-continue\r\n"
                b"Connection: close\r\n"
                + f"Content-Length: {len(body)}\r\n\r\n".encode()
            )
            # As curl does: hold the body back until the server asks for it.
            assert sock.recv(65536) == b"HTTP/1.1 100 Continue\r\n\r\n"
            sock.sendall(body)
            chunks = []
            while chunk := sock.recv(65536):
                chunks.append(chunk)
        reply = b"".join(chunks)
        # curl gives up waiting for the 100 after 1 s and sends anyway: that
        # second is what a server that ignores Expect costs it.
        assert time.perf_counter() - started < 0.5
        assert reply.startswith(b"HTTP/1.1 200")
        assert json.loads(reply.partition(b"\r\n\r\n")[2])["variable"]
        assert reply.count(b"HTTP/1.1 ") == 1 and not unhandled

    def test_http_1_0_expectations_are_ignored(self, live, unhandled):
        _, server, _ = live
        body = json.dumps({"variable": [FLOW]}).encode()
        reply = raw_exchange(
            server,
            b"POST /flow_info HTTP/1.0\r\nExpect: the-moon\r\n"
            + f"Content-Length: {len(body)}\r\n\r\n".encode()
            + body,
        )
        assert reply.startswith(b"HTTP/1.1 200") and b"Connection: close" in reply
        assert reply.count(b"HTTP/1.1 ") == 1 and not unhandled

    def test_any_other_expectation_answers_one_417(self, live, unhandled):
        _, server, _ = live
        reply = raw_exchange(
            server,
            b"POST /flow_info HTTP/1.1\r\nExpect: the-moon\r\nContent-Length: 2\r\n\r\n{}",
        )
        assert reply.startswith(b"HTTP/1.1 417") and b"Connection: close" in reply
        assert reply.count(b"HTTP/1.1 ") == 1 and not unhandled

    def test_metrics_exposes_snapshot_gauges(self, live):
        _, _, base = live
        status, body, _ = fetch(base + "/metrics")
        assert status == 200
        assert b"remos_snapshot_epoch" in body
        assert b"remos_queries_total" in body

    def test_slow_queries_recorded(self, live):
        service, _, base = live
        payload = json.dumps(
            {"variable": [{"src": "m-2", "dst": "m-6"}]}
        ).encode()
        fetch(base + "/flow_info", data=payload,
              headers={"Content-Type": "application/json"})
        status, body, _ = fetch(base + "/debug/slow")
        assert status == 200
        records = json.loads(body)["records"]
        assert any(r["endpoint"] == "flow_info" for r in records)


class TestShutdown:
    def test_stop_with_an_idle_connection_is_silent(self, capfd, caplog):
        obs.configure_observability(metrics=True, tracing=True, logging=False)
        world = build_cmu_testbed(poll_interval=0.5)
        service = RemosService.from_world(world, sweep_interval=0.05)
        service.start(warmup=2.0)
        server = serve_aio(service, port=0)
        try:
            with socket.create_connection(server.address, timeout=10) as sock:
                sock.sendall(b"GET /healthz HTTP/1.1\r\n\r\n")
                assert sock.recv(65536).startswith(b"HTTP/1.1 200")
                started = time.perf_counter()
                server.stop()  # the connection is still open, parked in readline
                assert time.perf_counter() - started < 1.0
                assert sock.recv(65536) == b""  # closed by the server, cleanly
        finally:
            server.stop()
            service.stop()
        # asyncio reports a callback that raised through its logger (which
        # pytest captures) or, with no handler, straight to stderr.
        assert "Exception in callback" not in caplog.text + capfd.readouterr().err


FLOW = {"src": "m-1", "dst": "m-4"}

#: Well-formed JSON / query strings of the wrong shape -> the field the 400 names.
WRONG_SHAPES = [
    ("/flow_info", [], "body"),
    ("/flow_info", 7, "body"),
    ("/flow_info", {"variable": 5}, "variable"),
    ("/flow_info", {"timeframe": "current"}, "timeframe"),
    ("/flow_info", {"variable": [{**FLOW, "requested": None}]}, "requested"),
    ("/flow_info", {"variable": [{**FLOW, "src": ["m-1"]}]}, "src"),
    ("/flow_info", {"timeframe": {"kind": "history", "window": None}}, "window"),
    ("/node/m-1?timeframe=future&horizon=nan", None, "horizon"),
    ("/graph?nodes=m-1,m-4&timeframe=history&window=inf", None, "window"),
    # A JSON integer past float range overflows float(); a JSON true is no number.
    ("/flow_info", {"variable": [{**FLOW, "requested": 10**400}]}, "requested"),
    ("/flow_info", {"variable": [{**FLOW, "cap": 10**400}]}, "cap"),
    ("/flow_info", {"timeframe": {"kind": "history", "window": 10**400}}, "window"),
    ("/flow_info", {"timeframe": {"kind": "future", "horizon": 10**400}}, "horizon"),
    ("/flow_info", {"variable": [{**FLOW, "requested": True}]}, "requested"),
    ("/flow_info", {"timeframe": {"kind": "history", "window": True}}, "window"),
]

#: More garbage, held only to "never a 5xx".
GARBAGE = [
    ("/flow_info", b"\xff\xfe"),
    ("/flow_info", b"{not json"),
    ("/flow_info", b'{"variable": null}'),
    ("/flow_info", b'{"variable": [7]}'),
    ("/flow_info", b'{"variable": [{"src": null, "dst": "m-4"}]}'),
    ("/flow_info", b'{"variable": [{"src": "m-1", "dst": "m-4", "name": ["x"]}]}'),
    ("/flow_info", b'{"variable": [{"src": "m-1", "dst": "m-4", "cap": NaN}]}'),
    ("/flow_info", b'{"variable": [{"src": "m-1", "dst": "m-4", "requested": Infinity}]}'),
    ("/flow_info", b'{"timeframe": []}'),
    ("/flow_info", b'{"timeframe": {"kind": ["history"]}}'),
    ("/flow_info", b'{"timeframe": {"kind": "future", "horizon": 5, "predictor": ["x"]}}'),
    ("/flow_info", b'{"timeframe": {"kind": "future", "horizon": {}}}'),
    ("/no-such-path", b"[]"),
    ("/graph?nodes=m-1&timeframe=bogus", None),
    ("/graph?nodes=m-1,m-4&timeframe=future&horizon=-1", None),
    ("/node/?timeframe=history&window=", None),
    ("/debug/slow?limit=many", None),
    ("/debug/profile?seconds=nan", None),
    ("/debug/profile?seconds=0.05&interval=nan", None),
    ("/debug/profile?seconds=0.05&interval=inf", None),
]


class TestClientGarbage:
    @pytest.mark.parametrize("target,body,field", WRONG_SHAPES)
    def test_wrong_shape_answers_400_naming_the_field(self, live, target, body, field):
        _, _, base = live
        sent = "00-12345678123456781234567812345678-1234567812345678-01"
        status, reply, headers = fetch(
            base + target,
            data=None if body is None else json.dumps(body).encode(),
            headers={"traceparent": sent},
        )
        assert status == 400
        assert field in json.loads(reply)["error"]
        echoed = {k.lower(): v for k, v in headers.items()}["traceparent"]
        assert echoed.split("-")[1] == sent.split("-")[1]

    def test_no_garbage_is_ever_a_5xx(self, live):
        _, _, base = live
        shapes = [
            (target, None if body is None else json.dumps(body).encode())
            for target, body, _ in WRONG_SHAPES
        ]
        for target, data in shapes + GARBAGE:
            status, _, _ = fetch(base + target, data=data)
            assert 400 <= status < 500, f"{target} {data!r} answered {status}"


class TestWorkerHandoff:
    def test_replica_republishes_piped_epochs(self):
        """The handoff protocol in-process: pipe -> install -> publish."""
        obs.configure_observability(metrics=True, tracing=False, logging=False)
        world = build_cmu_testbed(poll_interval=0.5)
        service = RemosService.from_world(world, sweep_interval=0.05)
        service.prepare(warmup=5.0)
        parent_conn, child_conn = multiprocessing.Pipe()
        replica = WorkerReplica(child_conn, workers=2)
        try:
            first = service.remos.publisher.current()
            parent_conn.send(first.view)  # pickled through the pipe
            replica.start()
            assert replica.running
            assert replica.snapshot().epoch == 1
            answer = replica.flow_info(
                variable_flows=[Flow(src="m-1", dst="m-4")]
            )
            assert answer.answers

            # Publish two more epochs in the parent; the replica must end
            # up on the latest (it drains the pipe, skipping stale views).
            for _ in range(2):
                service._env.run(until=service._env.now + 1.0)
                service.remos.publish()
                parent_conn.send(service.remos.publisher.current().view)
            target = service.remos.publisher.current().generation
            deadline = time.time() + 5.0
            while (
                replica.snapshot().generation != target
                and time.time() < deadline
            ):
                time.sleep(0.05)
            assert replica.snapshot().generation == target
            assert replica.sweep_errors == 0

            # The sentinel shuts the listener down.
            parent_conn.send(None)
            assert replica.closed.wait(timeout=5.0)
        finally:
            replica.stop()
            parent_conn.close()
            service.stop()

    def test_preforked_server_end_to_end(self):
        """Two forked workers on one socket, parent sweeping, real HTTP."""
        obs.configure_observability(metrics=True, tracing=True, logging=False)
        world = build_cmu_testbed(poll_interval=0.5)
        service = RemosService.from_world(
            world, sweep_interval=0.05, slow_query_threshold=0.0
        )
        server = MultiProcessServer(service, port=0, workers=2, warmup=5.0)
        server.start()
        try:
            assert len(server.pids) == 2
            base = f"http://{server.address[0]}:{server.address[1]}"
            status, body, headers = fetch(base + "/healthz")
            assert status == 200
            first_epoch = json.loads(body)["epoch"]
            assert first_epoch >= 1
            assert "traceparent" in {k.lower() for k in headers}

            payload = json.dumps(
                {"variable": [{"src": "m-1", "dst": "m-4"}]}
            ).encode()
            status, body, _ = fetch(
                base + "/flow_info", data=payload,
                headers={"Content-Type": "application/json"},
            )
            assert status == 200
            assert json.loads(body)["variable"]

            # The parent sweeper publishes ~20/s and broadcasts at 4/s;
            # worker epochs must advance.
            deadline = time.time() + 10.0
            advanced = False
            while time.time() < deadline and not advanced:
                time.sleep(0.3)
                _, body, _ = fetch(base + "/healthz")
                advanced = json.loads(body)["epoch"] > first_epoch
            assert advanced, "workers never received a newer epoch"
        finally:
            server.stop()
        assert not server.pids
