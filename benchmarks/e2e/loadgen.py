"""The load generator: keep-alive HTTP/1.1 clients, closed and open loop.

One generator process, one thread per connection.  A *closed* loop sends a
caller's next request when its previous answer arrives (a Remos caller is
an application blocked on the reply); an *open* loop sends request *k* at
``start + k / rate`` whatever the server does, and times it from that due
time, so a stall is charged to every request that came due behind it.

Every response is checked (``verify.check_response``) after its latency
is stamped; a failure of any kind — connect, timeout, non-200, bad
answer — counts as a failed attempt.

Beside the callers a :class:`SpeedProbe` thread watches the host.  On a
shared host identical work runs 10-25 % slower or faster from one minute
to the next (neighbours contending for memory) and the hypervisor
withholds the CPU for seconds at a time; the probe times fixed work,
which suffers the same slow-down at the same moment, and reads the steal
counter, so ``run.py`` can divide the one out of the time-based metrics
and drop the slices the other spoiled (:meth:`PhaseResult.quiet`).
"""

from __future__ import annotations

import itertools
import json
import os
import random
import socket
import threading
import time
from dataclasses import dataclass, field

import verify

TIMEOUT_S = 10.0
PROBE_PERIOD_S = 0.01
SLICE_NS = 1_000_000_000
#: A slice counts as disturbed when the hypervisor withheld more than this
#: share of the machine's CPU time during it.
MAX_STEAL_SHARE = 0.01
CLOCK_TICKS = os.sysconf("SC_CLK_TCK")

#: The probe's fixed work: parse this ~30 KB answer-shaped document.
_PROBE_RNG = random.Random(0)
PROBE_DOCUMENT = json.dumps(
    [
        {
            "label": f"variable:{i}",
            "src": f"h{_PROBE_RNG.randrange(64)}",
            "dst": f"h{_PROBE_RNG.randrange(64)}",
            "bandwidth": {
                key: _PROBE_RNG.random() * 1e8
                for key in ("min", "q1", "median", "q3", "max", "mean")
            },
            "hop_count": 4,
            "bottleneck": None,
        }
        for i in range(90)
    ],
    indent=2,
)


def steal_ticks() -> int:
    """Clock ticks the hypervisor has withheld from this machine's CPUs so far."""
    with open("/proc/stat") as stat:
        fields = stat.readline().split()
    return int(fields[8]) if len(fields) > 8 else 0


class SpeedProbe(threading.Thread):
    """Watches the host while a phase runs: its speed and what was stolen.

    Every 10 ms it times ``json.loads(PROBE_DOCUMENT)`` — work that never
    changes, so its duration tracks how fast this host runs
    allocation-heavy Python right now — and every 100 ms it reads the
    hypervisor's steal counter.  About 5 % of one core, in the generator
    process.
    """

    def __init__(self):
        super().__init__(name="speed-probe", daemon=True)
        self._done = threading.Event()
        self.samples: list[tuple[int, int]] = []  #: (taken at ns, duration ns)
        self.stolen: list[tuple[int, int]] = []  #: (read at ns, steal ticks so far)

    def run(self) -> None:
        clock = time.perf_counter_ns
        self.stolen.append((clock(), steal_ticks()))
        while not self._done.wait(PROBE_PERIOD_S):
            begin = clock()
            json.loads(PROBE_DOCUMENT)
            end = clock()
            self.samples.append((begin, end - begin))
            if len(self.samples) % 10 == 0:
                self.stolen.append((end, steal_ticks()))

    def finish(self) -> "SpeedProbe":
        self._done.set()
        self.join()
        self.stolen.append((time.perf_counter_ns(), steal_ticks()))
        return self

    def mean_us(self, inside=lambda at_ns: True) -> float:
        """Mean probe duration (µs) over the samples taken where *inside* holds.

        0.0 when there are none.
        """
        chosen = [duration for at, duration in self.samples if inside(at)]
        return sum(chosen) / len(chosen) / 1e3 if chosen else 0.0


class Connection:
    """One keep-alive HTTP/1.1 connection over a raw socket."""

    def __init__(self, port: int, host: str = "127.0.0.1"):
        self._address = (host, port)
        self._sock: socket.socket | None = None
        self._buffer = b""

    def close(self) -> None:
        if self._sock is not None:
            self._sock.close()
            self._sock = None
        self._buffer = b""

    def connect(self) -> None:
        if self._sock is None:
            self._sock = socket.create_connection(self._address, timeout=TIMEOUT_S)
            self._sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)

    def request(self, method: str, target: str, body: bytes = b"", traceparent: str = ""):
        """Send one request; return ``(status, body)`` once the last byte is in."""
        head = f"{method} {target} HTTP/1.1\r\nHost: bench\r\nContent-Length: {len(body)}\r\n"
        if traceparent:
            head += f"traceparent: {traceparent}\r\n"
        try:
            self.connect()
            self._sock.sendall(head.encode("latin-1") + b"\r\n" + body)
            return self._read_response()
        except BaseException:
            self.close()  # the stream position is unknown: start afresh
            raise

    def _read_response(self):
        buffer, sock = self._buffer, self._sock
        while b"\r\n\r\n" not in buffer:
            chunk = sock.recv(65536)
            if not chunk:
                raise ConnectionError("server closed the connection")
            buffer += chunk
        head, _, buffer = buffer.partition(b"\r\n\r\n")
        lines = head.decode("latin-1").split("\r\n")
        status = int(lines[0].split()[1])
        length = 0
        for line in lines[1:]:
            name, _, value = line.partition(":")
            if name.lower() == "content-length":
                length = int(value)
        while len(buffer) < length:
            chunk = sock.recv(65536)
            if not chunk:
                raise ConnectionError("server closed the connection mid-body")
            buffer += chunk
        self._buffer = buffer[length:]
        return status, buffer[:length]


def get_json(port: int, target: str):
    """One-shot GET returning the parsed JSON body (for /telemetry)."""
    connection = Connection(port)
    try:
        status, body = connection.request("GET", target)
    finally:
        connection.close()
    if status != 200:
        raise RuntimeError(f"GET {target} answered {status}")
    return json.loads(body)


@dataclass
class Record:
    """One attempted request of the measured phase."""

    index: int  #: position in the request stream (also its trace id)
    due_ns: int  #: open loop: when it was due; closed loop: when it was sent
    sent_ns: int
    done_ns: int
    size: int  #: response body bytes
    error: str | None  #: None when the answer was correct

    @property
    def latency_ms(self) -> float:
        return (self.done_ns - self.due_ns) / 1e6


@dataclass
class PhaseResult:
    records: list[Record] = field(default_factory=list)
    wall_s: float = 0.0
    start_ns: int = 0
    end_ns: int = 0
    probe: SpeedProbe | None = None

    @property
    def attempted(self) -> int:
        return len(self.records)

    @property
    def failed(self) -> int:
        return sum(1 for record in self.records if record.error is not None)

    def quiet(self) -> "QuietView":
        """The part of the phase the hypervisor left alone.

        The phase is cut into one-second slices; a slice in which more than
        :data:`MAX_STEAL_SHARE` of the machine's CPU time was stolen says
        little about the server and is dropped, with the requests that
        completed in it.  At least the less disturbed half of the slices is
        always kept, so a phase run entirely inside a steal burst still
        rests on half its requests, not on a handful.
        """
        edges = list(range(self.start_ns, self.end_ns, SLICE_NS)) + [self.end_ns]
        slices = list(zip(edges, edges[1:]))
        readings = self.probe.stolen if self.probe else []

        def stolen_by(at_ns: int) -> int:
            return max((ticks for read_ns, ticks in readings if read_ns <= at_ns), default=0)

        # Stolen share of the machine's CPU time, per slice.
        capacity = (os.cpu_count() or 1) * CLOCK_TICKS / 1e9
        stolen = [(stolen_by(hi) - stolen_by(lo)) / (capacity * (hi - lo)) for lo, hi in slices]
        limit = max(MAX_STEAL_SHARE, sorted(stolen)[(len(stolen) - 1) // 2])
        kept = [piece for piece, share in zip(slices, stolen) if share <= limit]

        def inside(at_ns: int) -> bool:
            return any(lo <= at_ns < hi for lo, hi in kept)

        return QuietView(
            records=[r for r in self.records if inside(r.done_ns)],
            seconds=sum(hi - lo for lo, hi in kept) / 1e9,
            probe_us=self.probe.mean_us(inside) if self.probe else 0.0,
            share=sum(share <= MAX_STEAL_SHARE for share in stolen) / len(slices),
        )


@dataclass
class QuietView:
    records: list[Record]  #: requests that completed in an undisturbed slice
    seconds: float  #: total length of the undisturbed slices
    probe_us: float  #: mean probe duration there (0.0 = never sampled)
    share: float  #: slices under the steal limit / all slices


def trace_id(tag: int, index: int) -> str:
    """A W3C trace id unique to (run *tag*, request *index*)."""
    return f"{tag & 0xFFFFFFFF:08x}{index + 1:024x}"


def run_phase(
    port: int,
    pool: list,
    order: list[int],
    seconds: float,
    *,
    capacity: float,
    connections: int = 2,
    rate: float | None = None,
    tag: int = 1,
    first_index: int = 0,
) -> PhaseResult:
    """Drive *pool* requests in *order* for *seconds*; return every attempt.

    Request *i* of the stream is ``pool[order[i % len(order)]]``; the
    stream starts at *first_index* so a warm phase and the measured phase
    that follows it do not replay the same prefix.  With *rate* the loop
    is open (request *k* due at ``start + k / rate``), otherwise closed.
    """
    counter = itertools.count()
    clock = time.perf_counter_ns
    per_thread: list[list[Record]] = [[] for _ in range(connections)]
    window = [0, 0]

    def open_window() -> None:  # runs once, when every thread is connected
        window[0] = clock()
        window[1] = window[0] + int(seconds * 1e9)

    barrier = threading.Barrier(connections, action=open_window)

    def worker(records: list[Record]) -> None:
        connection = Connection(port)
        try:
            connection.connect()
        except OSError:
            pass  # every request will fail the same way and be counted
        barrier.wait()
        start, end = window
        try:
            while True:
                k = next(counter)
                if rate is None:
                    due = clock()
                else:
                    due = start + int(k * 1e9 / rate)
                    delay = (due - clock()) / 1e9
                    if delay > 0:
                        time.sleep(delay)
                if due >= end:
                    return
                index = first_index + k
                request = pool[order[index % len(order)]]
                sent = clock()
                size, error = 0, None
                try:
                    status, body = connection.request(
                        request.method,
                        request.target,
                        request.body,
                        f"00-{trace_id(tag, index)}-{index + 1:016x}-01",
                    )
                    done = clock()
                    size = len(body)
                    error = verify.check_response(request, status, body, capacity)
                except (OSError, ValueError) as exc:
                    done = clock()
                    error = f"{type(exc).__name__}: {exc}"
                records.append(Record(index, due, sent, done, size, error))
        finally:
            connection.close()

    threads = [
        threading.Thread(target=worker, args=(records,), name=f"loadgen-{i}")
        for i, records in enumerate(per_thread)
    ]
    probe = SpeedProbe()
    probe.start()
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    finished = clock()
    records = sorted(itertools.chain.from_iterable(per_thread), key=lambda r: r.index)
    return PhaseResult(
        records, (finished - window[0]) / 1e9, window[0], finished, probe.finish()
    )
