"""End-to-end request-scoped observability over the HTTP front end.

One live service + server per module (they take seconds to warm up);
every test talks real HTTP.  The trace-propagation, slow-query-forensics
and health-flip acceptance criteria from docs/OBSERVABILITY.md are
asserted here against the wire format, not internals.
"""

import http.client
import io
import json
import socket
import threading
import time
import urllib.error
import urllib.request

import pytest

from repro import obs
from repro.core import Flow
from repro.obs.promparse import parse as prom_parse
from repro.service import RemosService, app, serve_aio
from repro.testbed import build_cmu_testbed

TRACEPARENT = "00-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01"
TRACE_ID = "4bf92f3577b34da6a3ce929d0e0e4736"


@pytest.fixture(scope="module")
def live():
    """(base_url, service, log_stream) against a warm, traced service."""
    obs.reset_observability()
    stream = io.StringIO()
    obs.configure_observability(
        metrics=True, tracing=True, logging=True,
        log_stream=stream, log_timestamps=False,
    )
    world = build_cmu_testbed(poll_interval=0.5)
    service = RemosService.from_world(
        world,
        sweep_interval=0.01,
        sim_step=0.5,
        slow_query_threshold=0.0,  # record every query: forensics under test
    )
    service.start(warmup=5.0)
    server = serve_aio(service, port=0)
    try:
        yield f"http://127.0.0.1:{server.address[1]}", service, stream
    finally:
        server.stop()
        service.stop()
        obs.reset_observability()


def _get(url: str, headers: dict | None = None):
    request = urllib.request.Request(url, headers=headers or {})
    try:
        with urllib.request.urlopen(request, timeout=30) as response:
            return response.status, dict(response.headers), response.read().decode()
    except urllib.error.HTTPError as error:
        return error.code, dict(error.headers), error.read().decode()


def _post(url: str, payload: dict, headers: dict | None = None):
    request = urllib.request.Request(
        url, data=json.dumps(payload).encode(), headers=headers or {}
    )
    try:
        with urllib.request.urlopen(request, timeout=30) as response:
            return response.status, dict(response.headers), response.read().decode()
    except urllib.error.HTTPError as error:
        return error.code, dict(error.headers), error.read().decode()


class TestTracePropagation:
    def test_incoming_traceparent_is_echoed_with_new_span_id(self, live):
        base, _, _ = live
        status, headers, _ = _get(base + "/healthz", {"traceparent": TRACEPARENT})
        assert status == 200
        echoed = headers["traceparent"]
        assert echoed.split("-")[1] == TRACE_ID
        assert echoed != TRACEPARENT  # child hop: same trace, new span id

    def test_absent_traceparent_generates_one(self, live):
        base, _, _ = live
        _, headers, _ = _get(base + "/healthz")
        parts = headers["traceparent"].split("-")
        assert len(parts) == 4 and len(parts[1]) == 32 and parts[1] != "0" * 32

    def test_malformed_traceparent_falls_back_to_generated(self, live):
        base, _, _ = live
        _, headers, _ = _get(base + "/healthz", {"traceparent": "garbage"})
        assert headers["traceparent"].split("-")[1] != TRACE_ID

    def test_error_responses_also_carry_traceparent(self, live):
        base, _, _ = live
        status, headers, _ = _get(base + "/graph", {"traceparent": TRACEPARENT})
        assert status == 400  # missing ?nodes=
        assert headers["traceparent"].split("-")[1] == TRACE_ID

    def test_flow_info_slow_record_carries_the_request_trace_id(self, live):
        base, service, _ = live
        marker = "aaaaaaaaaaaaaaaaaaaaaaaaaaaaaaab"
        status, _, _ = _post(
            base + "/flow_info",
            {"variable": [{"src": "m-1", "dst": "m-4"}]},
            {"traceparent": f"00-{marker}-00f067aa0ba902b7-01"},
        )
        assert status == 200
        records = [
            r for r in service.slowlog.records() if r["trace_id"] == marker
        ]
        assert records, "slow record should carry the incoming trace id"

    def test_access_log_lines_carry_trace_ids(self, live):
        base, _, stream = live
        marker = "bbbbbbbbbbbbbbbbbbbbbbbbbbbbbbbc"
        _get(base + "/healthz", {"traceparent": f"00-{marker}-00f067aa0ba902b7-01"})
        access_lines = [
            line for line in stream.getvalue().splitlines()
            if "http.access" in line and marker in line
        ]
        assert access_lines
        assert "status=200" in access_lines[0]


class TestSlowQueryForensics:
    def test_record_reconstructs_the_request_from_the_log_alone(self, live):
        base, service, _ = live
        payload = {
            "variable": [{"src": "m-2", "dst": "m-6", "name": "forensic"}],
            "timeframe": {"kind": "current"},
        }
        status, _, _ = _post(base + "/flow_info", payload)
        assert status == 200
        status, _, body = _get(base + "/debug/slow?limit=50")
        assert status == 200
        doc = json.loads(body)
        assert doc["recorded"] >= 1
        record = next(
            r for r in doc["records"]
            if r["endpoint"] == "flow_info" and "forensic" in json.dumps(r["args"])
        )
        # identity + data provenance + profile + trace, all in one record
        assert record["trace_id"] and record["duration"] >= 0
        assert record["epoch"] is not None and record["generation"] is not None
        assert record["cache_hits"] is not None
        args = record["args"]
        assert args["variable"][0]["src"] == "m-2"
        assert args["timeframe"].startswith("current")
        tree = record["span_tree"]
        assert tree["name"] == "service.flow_info"
        assert tree["attributes"]["turn_wait"] >= 0.0

    def test_graph_queries_are_recorded_too(self, live):
        base, service, _ = live
        status, _, _ = _get(base + "/graph?nodes=m-1,m-4")
        assert status == 200
        assert any(r["endpoint"] == "graph" for r in service.slowlog.records())

    def test_graph_record_keeps_status_trace_and_tree(self, live):
        base, service, _ = live
        marker = "dddddddddddddddddddddddddddddd0e"
        _get(
            base + "/graph?nodes=m-2,m-5",
            {"traceparent": f"00-{marker}-00f067aa0ba902b7-01"},
        )
        record = next(r for r in service.slowlog.records() if r["trace_id"] == marker)
        assert record["endpoint"] == "graph" and record["status"] == 200
        assert record["args"]["nodes"] == ["m-2", "m-5"]
        assert record["span_tree"]["name"] == "http.graph"
        assert record["epoch"] is not None and record["cache_hits"] is not None

    def test_fast_queries_build_no_forensics(self, live, monkeypatch):
        """Below the threshold a query is counted and nothing is assembled."""
        base, service, _ = live
        built = []
        flow_args, tree = type(service)._flow_args, obs.Span.tree
        monkeypatch.setattr(
            type(service),
            "_flow_args",
            staticmethod(lambda *a: built.append("args") or flow_args(*a)),
        )
        monkeypatch.setattr(
            obs.Span, "tree", lambda span: built.append("tree") or tree(span)
        )
        monkeypatch.setattr(service.slowlog, "threshold_seconds", 3600.0)
        observed, recorded = service.slowlog.observed, service.slowlog.recorded
        flows = {"variable": [{"src": "m-1", "dst": "m-4"}]}
        assert _post(base + "/flow_info", flows)[0] == 200
        assert _get(base + "/graph?nodes=m-1,m-4")[0] == 200
        assert _get(base + "/node/m-3")[0] == 200
        assert built == []
        assert service.slowlog.observed == observed + 3
        assert service.slowlog.recorded == recorded
        # Over the threshold the record is assembled, error included.
        monkeypatch.setattr(service.slowlog, "threshold_seconds", 0.0)
        assert _get(base + "/graph?nodes=no-such-host")[0] == 400
        assert service.slowlog.recorded == recorded + 1
        assert "tree" in built and "error" in service.slowlog.records()[0]["args"]

    def test_limit_parameter(self, live):
        base, _, _ = live
        for _ in range(3):
            _get(base + "/graph?nodes=m-1,m-4")
        doc = json.loads(_get(base + "/debug/slow?limit=2")[2])
        assert len(doc["records"]) <= 2


@pytest.fixture
def held(live, monkeypatch):
    """``(entered, gate)``: the first flow evaluation parks until *gate* is set."""
    _, service, _ = live
    entered, gate = threading.Event(), threading.Event()
    real_batch = service.remos.flow_info_batch

    def held_batch(queries, timeframe):
        if not entered.is_set():
            entered.set()
            assert gate.wait(timeout=30), "first request was never released"
        return real_batch(queries, timeframe)

    monkeypatch.setattr(service.remos, "flow_info_batch", held_batch)
    yield entered, gate
    gate.set()


def _marker(i: int) -> str:
    return f"{0xC0FFEE00 + i:032x}"


def _turn_wait(service, marker: str) -> float:
    record = next(r for r in service.slowlog.records() if r["trace_id"] == marker)
    return record["span_tree"]["attributes"]["turn_wait"]


def _start_all(targets) -> list[threading.Thread]:
    threads = [threading.Thread(target=target) for target in targets]
    for thread in threads:
        thread.start()
    return threads


def _join_all(threads) -> None:
    for thread in threads:
        thread.join(timeout=30)
    assert not any(thread.is_alive() for thread in threads)


def _wait_for_profile_to_start() -> None:
    deadline = time.perf_counter() + 10
    while not app._profile_lock.locked():
        assert time.perf_counter() < deadline, "no profile started"
        time.sleep(0.005)


class TestTurnWait:
    """``turn_wait`` is the wait of an in-process caller behind another."""

    def test_a_request_made_to_wait_records_turn_wait(self, live, held):
        _, service, _ = live
        entered, gate = held
        # Hold the first call inside its evaluation (so inside its turn)
        # while a second thread calls: the second's span must say how long
        # it stood in line.
        markers = [_marker(0), _marker(1)]

        def query(marker):
            with obs.bind_context(obs.TraceContext(marker, "00f067aa0ba902b7")):
                service.flow_info(variable_flows=[Flow(src="m-1", dst="m-8")])

        first = _start_all([lambda: query(markers[0])])
        assert entered.wait(timeout=30), "no call reached flow_info_batch"
        second = _start_all([lambda: query(markers[1])])
        time.sleep(0.3)  # the second call is parked on the turn meanwhile
        gate.set()
        _join_all(first + second)
        assert _turn_wait(service, markers[1]) > 0.1
        assert _turn_wait(service, markers[0]) < 0.1


class TestLoopThreadDoor:
    """Over HTTP the loop thread answers the request it just parsed.

    While a handler runs the process answers nobody: a second connection's
    request waits in its socket buffer, not at the turn, and is answered
    next — late, never refused.
    """

    FLOWS = {"variable": [{"src": "m-1", "dst": "m-8"}]}

    def test_a_second_connection_waits_in_its_socket_not_at_the_turn(self, live, held):
        base, service, _ = live
        entered, gate = held
        markers = [_marker(2), _marker(3)]
        answered = {}

        def query(marker):
            started = time.perf_counter()
            status, _, _ = _post(
                base + "/flow_info",
                self.FLOWS,
                {"traceparent": f"00-{marker}-00f067aa0ba902b7-01"},
            )
            answered[marker] = (status, time.perf_counter() - started)

        first = _start_all([lambda: query(markers[0])])
        assert entered.wait(timeout=30), "no request reached flow_info_batch"
        second = _start_all([lambda: query(markers[1])])
        time.sleep(0.3)
        gate.set()
        _join_all(first + second)
        (status_a, _), (status_b, latency_b) = (answered[marker] for marker in markers)
        assert (status_a, status_b) == (200, 200) and latency_b >= 0.25
        settled = [r["trace_id"] for r in service.slowlog.records()]  # newest first
        assert settled.index(markers[1]) < settled.index(markers[0])
        assert _turn_wait(service, markers[1]) < 0.001

    def test_healthz_behind_a_held_handler_answers_200_after_it(self, live, held):
        base, _, _ = live
        entered, gate = held
        outcome = []

        def health():
            started = time.perf_counter()
            outcome.append((_get(base + "/healthz")[0], time.perf_counter() - started))

        query = _start_all([lambda: _post(base + "/flow_info", self.FLOWS)])
        assert entered.wait(timeout=30), "no request reached flow_info_batch"
        probe = _start_all([health])
        time.sleep(0.3)
        assert not outcome, "/healthz was answered while the loop thread was held"
        gate.set()
        _join_all(query + probe)
        status, latency = outcome[0]
        assert status == 200 and latency >= 0.25

    def test_a_profile_does_not_hold_the_loop(self, live, monkeypatch):
        base, service, _ = live
        real_batch = service.remos.flow_info_batch

        def slow_batch(queries, timeframe):
            time.sleep(0.05)  # long enough for the 10 ms sampler to see it
            return real_batch(queries, timeframe)

        monkeypatch.setattr(service.remos, "flow_info_batch", slow_batch)
        profile = []
        profiling = _start_all(
            [lambda: profile.append(_get(base + "/debug/profile?seconds=1"))]
        )
        _wait_for_profile_to_start()
        started = time.perf_counter()
        assert _get(base + "/healthz")[0] == 200
        assert time.perf_counter() - started < 0.5  # on the loop: the whole second
        assert _post(base + "/flow_info", self.FLOWS)[0] == 200
        _join_all(profiling)
        status, _, stacks = profile[0]
        assert status == 200
        # The query issued during the profile was served by the loop thread.
        assert any(
            line.startswith("remos-aio;") and "service/core.py:flow_info" in line
            for line in stacks.splitlines()
        )

    @pytest.mark.parametrize(
        "target",
        [
            "http://127.0.0.1/debug/profile?seconds=1",  # absolute-form (RFC 7230 §5.3.2)
            "/debug/profile;x?seconds=1",
        ],
    )
    def test_a_profile_by_any_spelling_does_not_hold_the_loop(self, live, target):
        # The router parses the target; the door must decide by the same parse.
        base, _, _ = live
        port = int(base.rsplit(":", 1)[1])
        with socket.create_connection(("127.0.0.1", port), timeout=30) as sock:
            sock.sendall(f"GET {target} HTTP/1.1\r\nConnection: close\r\n\r\n".encode())
            _wait_for_profile_to_start()
            started = time.perf_counter()
            assert _get(base + "/healthz")[0] == 200
            assert time.perf_counter() - started < 0.5
            chunks = []
            while chunk := sock.recv(65536):
                chunks.append(chunk)
        assert b"".join(chunks).startswith(b"HTTP/1.1 200")

    def test_no_thread_pool_grows_with_traffic(self, live):
        base, _, _ = live
        port = int(base.rsplit(":", 1)[1])
        connections = [
            http.client.HTTPConnection("127.0.0.1", port, timeout=30) for _ in range(4)
        ]
        body = json.dumps(self.FLOWS)
        try:
            threads_after_first = None
            for i in range(200):
                connection = connections[i % 4]
                if i % 2:
                    connection.request("GET", "/node/m-3")
                else:
                    connection.request("POST", "/flow_info", body=body)
                response = connection.getresponse()
                response.read()
                assert response.status == 200
                if threads_after_first is None:
                    threads_after_first = threading.active_count()
            assert threading.active_count() == threads_after_first
        finally:
            for connection in connections:
                connection.close()


class TestHealthAndSLO:
    def test_healthz_ok_while_fresh(self, live):
        base, _, _ = live
        status, _, body = _get(base + "/healthz")
        doc = json.loads(body)
        assert status == 200 and doc["status"] == "ok" and doc["reasons"] == []
        assert doc["epoch"] >= 1

    def test_debug_slo_reports_budgets_and_monitors(self, live):
        base, _, _ = live
        _get(base + "/healthz")
        doc = json.loads(_get(base + "/debug/slo")[2])
        assert doc["healthy"] is True
        assert "flow_info" in doc["latency"]
        monitor_names = {m["monitor"] for m in doc["monitors"]}
        assert {"epoch_age", "sweep_duration"} <= monitor_names

    def test_metrics_expose_http_latency_and_parse_strictly(self, live):
        base, _, _ = live
        _get(base + "/healthz")
        families = prom_parse(_get(base + "/metrics")[2])
        assert "remos_http_request_seconds" in families
        assert "remos_slo_error_budget_remaining" in families
        assert families["remos_snapshot_epoch"].value() >= 1


class TestProfileEndpoint:
    def test_profile_returns_collapsed_stacks(self, live):
        base, _, _ = live
        status, headers, body = _get(base + "/debug/profile?seconds=0.3")
        assert status == 200
        assert headers["Content-Type"].startswith("text/plain")
        assert body  # the sweeper thread alone guarantees stacks
        stack, _, count = body.splitlines()[0].rpartition(" ")
        assert ";" in stack and count.isdigit()

    @pytest.mark.parametrize(
        "method, target, expected",
        [
            ("GET", "/debug/profile", True),
            ("GET", "/debug/profile?seconds=30", True),
            ("GET", "http://host:8080/debug/profile?seconds=30", True),
            ("GET", "/debug/profile;x?seconds=30", True),
            ("GET", "/debug/profile#f", True),
            ("POST", "/debug/profile", False),  # 404: only GET routes there
            ("GET", "/debug/profile/", False),
            ("GET", "/debug/slow?next=/debug/profile", False),
            ("POST", "/flow_info", False),
        ],
    )
    def test_sleeps_is_true_for_exactly_what_routes_to_the_profiler(
        self, live, method, target, expected, monkeypatch
    ):
        _, service, _ = live
        request = app.Request(method=method, target=target)
        assert app.sleeps(request) is expected
        # ... and the router agrees, spelled however.
        routed = []
        monkeypatch.setattr(
            app, "_route_profile", lambda params: routed.append(1) or app.Response.json(200, {})
        )
        app.handle_request(service, request)
        assert bool(routed) is expected

    def test_profile_bounds_are_enforced(self, live):
        base, _, _ = live
        assert _get(base + "/debug/profile?seconds=0")[0] == 400
        assert _get(base + "/debug/profile?seconds=1e9")[0] == 400

    @pytest.mark.parametrize("interval", ["5", "0.1", "nan"])
    def test_a_profile_that_cannot_sample_is_refused_naming_interval(
        self, live, interval
    ):
        # The sampler waits one interval before its first sample: at or
        # beyond the duration it would answer 200 with an empty body.
        base, _, _ = live
        status, _, body = _get(
            base + f"/debug/profile?seconds=0.1&interval={interval}"
        )
        assert status == 400
        assert "interval" in json.loads(body)["error"]


class TestServiceDirect:
    def test_service_health_dict_shape(self, live):
        _, service, _ = live
        health = service.health()
        assert set(health) >= {"status", "healthy", "reasons", "epoch"}

    def test_telemetry_includes_slo_and_slowlog_sections(self, live):
        _, service, _ = live
        service.flow_info(variable_flows=[Flow(src="m-1", dst="m-4")])
        telemetry = service.telemetry()
        assert "slo" in telemetry and "slowlog" in telemetry
        assert "records" not in telemetry["slowlog"]  # summary only
        assert telemetry["service"]["last_sweep_seconds"] is not None


class TestHealthFlip:
    """Last in the module: spins up its own deliberately-stale service.

    Its SLO monitors register callback gauges under the same names as the
    module fixture's, so it must not run before the tests that read them.
    """

    def test_healthz_flips_503_with_machine_readable_reason_when_stale(self, live):
        # A dedicated service whose freshness bound is tighter than its
        # sweep cadence: the epoch is *always* too old.
        import time

        world = build_cmu_testbed(poll_interval=0.5)
        service = RemosService.from_world(
            world,
            sweep_interval=5.0,
            sim_step=0.5,
            max_epoch_age=0.001,
        )
        service.start(warmup=2.0)
        server = serve_aio(service, port=0)
        try:
            time.sleep(0.1)  # let the first epoch age past the 1ms bound
            base = f"http://127.0.0.1:{server.address[1]}"
            status, headers, body = _get(base + "/healthz")
            assert status == 503
            doc = json.loads(body)
            assert doc["status"] == "degraded"
            reasons = doc["reasons"]
            assert reasons and reasons[0]["reason"] == "epoch_stale"
            assert reasons[0]["reading"] > reasons[0]["maximum"]
            assert "traceparent" in headers  # tracing works even when degraded
        finally:
            server.stop()
            service.stop()
