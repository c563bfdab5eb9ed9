"""Self-tests of the benchmark harness (not of Remos).

Run with ``python -m pytest benchmarks/e2e -q``.  Not part of the tier-1
suite: these check that the yardstick itself measures what it says.
"""

from __future__ import annotations

import json
import socket
import threading
import time

import compare
import loadgen
import run
import tracing
import verify
import workloads as wl

NODE_ANSWER = json.dumps(
    {
        "name": "h0",
        "cpu_load": dict.fromkeys(("min", "q1", "median", "q3", "max", "accuracy"), 0.0),
        "cpu_available": dict.fromkeys(("min", "q1", "median", "q3", "max", "accuracy"), 1.0),
    }
).encode()


# -- percentiles ------------------------------------------------------------------


def test_percentile_is_nearest_rank():
    values = [float(v) for v in range(1, 101)]
    assert run.percentile(values, 0.5) == 50.0
    assert run.percentile(values, 0.99) == 99.0
    assert run.percentile(values, 1.0) == 100.0
    assert run.percentile([7.0], 0.99) == 7.0
    assert run.percentile([], 0.99) == 0.0


def test_tail_percentile_needs_ten_samples_beyond_it():
    assert run.tail_share(1000) == 0.99
    assert run.tail_share(999) == 0.95
    assert run.tail_share(200) == 0.95
    assert run.tail_share(199) == 0.90
    assert run.tail_share(99) == 0.5


# -- open-loop accounting ------------------------------------------------------------


class StubServer:
    """Answers every request with NODE_ANSWER, one at a time; request number
    *stall_at* holds the (single) service slot for *stall_s* first."""

    def __init__(self, stall_at: int, stall_s: float):
        self.stall_at, self.stall_s = stall_at, stall_s
        self.stall_window = (0, 0)
        self._served = 0
        self._slot = threading.Lock()
        self._listener = socket.create_server(("127.0.0.1", 0))
        self.port = self._listener.getsockname()[1]
        threading.Thread(target=self._accept, daemon=True).start()

    def _accept(self):
        while True:
            try:
                conn, _ = self._listener.accept()
            except OSError:
                return
            threading.Thread(target=self._serve, args=(conn,), daemon=True).start()

    def _serve(self, conn):
        with conn:
            buffer = b""
            while True:
                while b"\r\n\r\n" not in buffer:
                    chunk = conn.recv(65536)
                    if not chunk:
                        return
                    buffer += chunk
                _, _, buffer = buffer.partition(b"\r\n\r\n")
                with self._slot:
                    if self._served == self.stall_at:
                        begin = time.perf_counter_ns()
                        time.sleep(self.stall_s)
                        self.stall_window = (begin, time.perf_counter_ns())
                    self._served += 1
                head = f"HTTP/1.1 200 OK\r\nContent-Length: {len(NODE_ANSWER)}\r\n\r\n"
                conn.sendall(head.encode() + NODE_ANSWER)

    def close(self):
        self._listener.close()


def test_open_loop_charges_a_stall_to_the_requests_queued_behind_it():
    server = StubServer(stall_at=20, stall_s=0.2)
    try:
        phase = loadgen.run_phase(
            server.port, [wl.node_request("h0")], [0], 1.0,
            capacity=1.0, connections=32, rate=100.0,
        )  # fmt: skip
    finally:
        server.close()
    assert phase.failed == 0
    assert 95 <= phase.attempted <= 100  # the schedule, not the server, sets the count
    begin, end = server.stall_window
    assert end - begin >= 0.2e9
    behind = [r for r in phase.records if begin + 20e6 < r.due_ns < end - 20e6]
    assert len(behind) >= 10
    for record in behind:
        # Sent on schedule (other connections were free) ...
        assert (record.sent_ns - record.due_ns) / 1e6 < 50.0
        # ... yet answered only once the stall cleared: latency from the due
        # time includes the wait.
        assert record.latency_ms >= (end - record.due_ns) / 1e6 - 1.0
    clear = [r for r in phase.records if r.due_ns > end + 100e6]
    assert clear and max(r.latency_ms for r in clear) < 100.0


def test_closed_loop_sends_on_reply_and_counts_failures():
    server = StubServer(stall_at=-1, stall_s=0.0)
    try:
        good = loadgen.run_phase(server.port, [wl.node_request("h0")], [0], 0.3, capacity=1.0)
        # The stub answers "h0" whatever was asked: every answer is wrong.
        bad = loadgen.run_phase(server.port, [wl.node_request("h9")], [0], 0.1, capacity=1.0)
    finally:
        server.close()
    assert good.attempted > 10 and good.failed == 0
    assert all(r.sent_ns == r.due_ns or r.sent_ns - r.due_ns < 1e6 for r in good.records)
    assert bad.attempted > 0 and bad.failed == bad.attempted


def test_quiet_view_drops_the_slices_the_hypervisor_disturbed():
    second = loadgen.SLICE_NS
    probe = loadgen.SpeedProbe()  # never started: filled in by hand
    # Three one-second slices; 50 ticks are stolen during the middle one.
    probe.stolen = [(0, 100), (second, 100), (2 * second, 150), (3 * second, 150)]
    probe.samples = [(second // 2, 400_000), (3 * second // 2, 900_000), (5 * second // 2, 600_000)]
    records = [
        loadgen.Record(i, at, at, at + 1_000_000, 10, None)
        for i, at in enumerate((second // 4, 5 * second // 4, 9 * second // 4))
    ]
    quiet = loadgen.PhaseResult(records, 3.0, 0, 3 * second, probe).quiet()
    assert [r.index for r in quiet.records] == [0, 2]
    assert quiet.seconds == 2.0 and quiet.share == 2 / 3
    assert quiet.probe_us == 500.0  # the disturbed slice's slow sample is left out
    # With every slice disturbed the less disturbed half (rounded up) is kept.
    probe.stolen = [(0, 0), (second, 50), (2 * second, 70), (3 * second, 160)]
    noisy = loadgen.PhaseResult(records, 3.0, 0, 3 * second, probe).quiet()
    assert [r.index for r in noisy.records] == [0, 1] and noisy.share == 0.0


# -- span arithmetic ---------------------------------------------------------------------


def test_self_time_subtracts_direct_children_only():
    spans = [
        ("a", 0, 100, -1, "t1"),  # root: 100 long
        ("b", 10, 40, 0, None),  # child of a: 30 long
        ("c", 15, 25, 1, None),  # grandchild: 10 long, comes out of b only
        ("b", 50, 70, 0, None),  # sibling child of a: 20 long
    ]
    assert tracing.self_times(spans) == [50, 20, 10, 20]


def test_summarize_groups_by_request_and_background():
    request = [("app", 0, 100, -1, "t1"), ("core", 10, 60, 0, None), ("core", 70, 80, 0, None)]
    sweeper = [
        ("sim.advance_ms", 5, 25, -1, None),
        ("fairshare.solve_ms", 10, 18, 0, None),  # the simulator's own max-min solve
        ("collector.refresh_ms", 30, 50, -1, None),
        ("core.snapshot.publish_ms", 35, 45, 2, None),
        None,  # a call still in flight at shutdown
    ]
    report = tracing.summarize([request, sweeper])
    assert report["requests"] == {"t1": [0, 100, {"app": 40, "core": 60}]}
    # A request layer under a sweep layer is the sweep layer's time.
    assert report["background"] == [
        [5, {"sim.advance_ms": 20}],
        [30, {"collector.refresh_ms": 10, "core.snapshot.publish_ms": 10}],
    ]


def test_recorder_links_nested_calls_and_reads_the_trace_id():
    recorder = tracing.Recorder()

    class Request:
        def header(self, name):
            return "00-" + "ab" * 16 + "-" + "cd" * 8 + "-01"

    inner = recorder.wrap("inner", lambda: time.sleep(0.001))
    outer = recorder.wrap("outer", lambda service, request: (inner(), inner()), is_root=True)
    outer(None, Request())
    (spans,) = recorder.threads
    assert [s[0] for s in spans] == ["outer", "inner", "inner"]
    assert [s[3] for s in spans] == [-1, 0, 0]
    assert spans[0][4] == "ab" * 16
    total = sum(tracing.self_times(spans))
    assert total == spans[0][2] - spans[0][1]  # self times partition the root


def test_unresolved_boundary_is_listed_not_fatal():
    recorder = tracing.Recorder()
    unresolved = tracing.install(
        recorder, {"gone": ("repro.core.api.Remos.no_such_method", "repro.no_such_module.f")}
    )
    assert unresolved == ["repro.core.api.Remos.no_such_method", "repro.no_such_module.f"]


def test_every_boundary_resolves_at_this_commit():
    for names in tracing.LAYER_BOUNDARIES.values():
        for dotted in names:
            tracing.resolve(dotted)  # raises if the name moved


# -- seeded inputs -----------------------------------------------------------------------


def test_same_seed_gives_byte_identical_requests():
    for workload in wl.WORKLOADS.values():
        hosts = wl.world_hosts(workload.world)
        pool_a, order_a = wl.build_requests(workload, 11, hosts)
        pool_b, order_b = wl.build_requests(workload, 11, hosts)
        pool_c, order_c = wl.build_requests(workload, 12, hosts)
        wire = lambda pool: [(r.method, r.target, r.body) for r in pool]  # noqa: E731
        assert wire(pool_a) == wire(pool_b) and order_a == order_b
        assert wire(pool_a) != wire(pool_c) and order_a != order_c
        assert len(pool_a) == wl.POOL_SIZE


def test_flow_workloads_share_one_request_stream():
    hosts = wl.world_hosts("tree64")
    streams = [
        wl.build_requests(wl.WORKLOADS[name], 11, hosts)
        for name in ("flow_steady", "flow_churn", "flow_open")
    ]
    assert streams[0] == streams[1] == streams[2]


# -- validity, checking, comparison -----------------------------------------------------


def test_run_is_invalid_when_the_generator_was_the_limit():
    fine = {"loadgen.cpu_share": 0.2, "loadgen.late_p99_ms": 1.0}
    assert run.invalid_reasons(fine) == []
    assert run.invalid_reasons({**fine, "loadgen.cpu_share": 0.51})
    assert run.invalid_reasons({**fine, "loadgen.late_p99_ms": 5.1})


def test_check_response_rejects_bad_answers():
    request = wl.flow_request(["h0", "h1"], wl.HISTORY)
    measure = {"min": 1.0, "q1": 2.0, "median": 3.0, "q3": 4.0, "max": 5.0, "accuracy": 0.9}

    def body(**changes):
        flows = [
            {"label": f"f{i}", "src": s, "dst": d, "bandwidth": {**measure, **changes}}
            for i, (s, d) in enumerate(request.pairs)
        ]
        return json.dumps({"variable": flows}).encode()

    assert verify.check_response(request, 200, body(), 10.0) is None
    assert "status" in verify.check_response(request, 503, body(), 10.0)
    assert "order" in verify.check_response(request, 200, body(q1=3.5), 10.0)
    assert "outside" in verify.check_response(request, 200, body(), 4.0)
    assert "accuracy" in verify.check_response(request, 200, body(accuracy=1.5), 10.0)
    assert verify.check_response(request, 200, b"not json", 10.0)
    one_flow = json.dumps({"variable": json.loads(body())["variable"][:1]}).encode()
    assert "match" in verify.check_response(request, 200, one_flow, 10.0)


def test_compare_verdicts():
    assert compare.verdict([100.0], [95.0], "higher", 0.1) == "same"
    assert compare.verdict([100.0], [85.0], "higher", 0.1) == "worse"
    assert compare.verdict([100.0], [115.0], "lower", 0.1) == "worse"
    assert compare.verdict([100.0], [120.0], "higher", 0.1) == "better"
    assert compare.verdict([], [1.0], "higher", 0.1) == "unresolved"
    steady = [100.0, 101.0, 99.0, 100.5]
    assert compare.verdict(steady, [104.0, 105.0, 103.0, 104.5], "higher", 0.1) == "better"
    assert compare.verdict(steady, [100.2, 100.9, 99.1, 100.4], "higher", 0.1) == "same"
    noisy = [80.0, 120.0, 90.0, 110.0]  # quartiles wider apart than the bound
    assert compare.verdict(noisy, [95.0, 105.0, 85.0, 100.0], "higher", 0.1) == "unresolved"
    assert compare.verdict(noisy, [130.0, 140.0, 125.0, 135.0], "higher", 0.1) == "better"
    assert compare.verdict(noisy, [60.0, 70.0, 65.0, 75.0], "higher", 0.1) == "worse"
