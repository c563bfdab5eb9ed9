"""Concurrent query throughput: reader threads against a live sweeper.

The deployment shape the snapshot rework exists for: one
:class:`~repro.service.RemosService` sweeping aggressively (every sweep is
a full poll touching every link direction, so every publish invalidates
the dynamic caches) while N application threads issue flow queries.

Python's GIL means raw thread parallelism buys nothing for this
CPU-bound work, and the service evaluates one flow query at a time
(``docs/CONCURRENCY.md``): the concurrent phases measure what extra
readers *cost* in lock hand-offs and GIL switches, not what they gain.
What the epoch's first asker prices, every later asker of that epoch
reads from the price memo.

Two gates:

* in-process: the single-reader throughput and the best concurrent
  throughput (4 or 8 readers) must each clear an absolute floor
  (``SINGLE_GATE_QPS``, ``CONCURRENT_GATE_QPS``).  The concurrent/single
  ratio is reported, not gated;
* HTTP front doors (``test_front_door_throughput``): the same workload
  pushed through the asyncio server and the ``--workers 4`` pre-forked
  mode in one run.  Multi-process is where the GIL finally stops being
  the ceiling, so the 4-worker phase must reach ``WORKER_GATE``x the
  single-process front door's qps — enforced when the machine actually
  has cores to parallelise over (>= ``WORKER_GATE_MIN_CPUS``; on a 1-CPU
  container four processes time-slice one core and the ratio is recorded
  but not gated).

Results land in ``BENCH_concurrency.json`` at the repo root.
"""

from __future__ import annotations

import json
import os
import threading
import time
from http.client import HTTPConnection
from pathlib import Path

from repro.core import Flow, Timeframe
from repro.service import MultiProcessServer, RemosService, serve_aio
from repro.testbed import World

from benchmarks._experiments import emit
from benchmarks.bench_ablation_scale import build_tree, spread_hosts

N_HOSTS = 64
WARMUP_S = 20.0
PHASE_WALL_S = 1.5
THREAD_COUNTS = (1, 4, 8)
#: Absolute floors, set above what the stack reached before the columnar
#: series (52 and 113 q/s; ~120 and ~200 after) so a return to the old
#: miss cost fails either one.
SINGLE_GATE_QPS = 60.0
CONCURRENT_GATE_QPS = 115.0

#: HTTP load-generator threads per front-door phase (each keeps one
#: persistent connection).
HTTP_CLIENTS = 8
WORKER_COUNT = 4
WORKER_GATE = 2.0
#: The multi-process gate needs real parallelism: with fewer cores the
#: workers time-slice one CPU and the ratio is informational only.
WORKER_GATE_MIN_CPUS = 4
#: Informational floor applied below WORKER_GATE_MIN_CPUS: time-sliced
#: workers can't scale, but they must stay in the same league as the
#: single-process door.
WORKER_FLOOR = 0.5


def worker_gate(worker_scaling: float, cpus: int) -> tuple[bool, float, bool]:
    """Decide the multi-process scaling verdict for a measured ratio.

    Returns ``(enforced, floor, passed)``: with ``cpus`` at or above
    :data:`WORKER_GATE_MIN_CPUS` the full :data:`WORKER_GATE` applies;
    below it the gate is informational and only :data:`WORKER_FLOOR`
    (same-league, not faster) is required.
    """
    enforced = cpus >= WORKER_GATE_MIN_CPUS
    floor = WORKER_GATE if enforced else WORKER_FLOOR
    return enforced, floor, worker_scaling >= floor


def _cpu_count() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - non-Linux
        return os.cpu_count() or 1


def _make_service() -> tuple[RemosService, list[Flow], Timeframe]:
    topology, hosts = build_tree(N_HOSTS)
    world = World.from_topology(topology, poll_interval=1.0)
    service = RemosService.from_world(world, sweep_interval=0.002, sim_step=1.0)
    service.start(warmup=WARMUP_S)
    # All-to-all over 6 spread hosts (30 flows): enough allocation work
    # per query that the evaluation, not the call overhead, is measured.
    query_hosts = spread_hosts(hosts, 6)
    flows = [
        Flow(src, dst)
        for src in query_hosts
        for dst in query_hosts
        if src != dst
    ]
    return service, flows, Timeframe.history(10.0)


def _run_phase(readers: int, vectorize: bool | None = None) -> dict:
    """Fixed-wall-duration throughput at *readers* query threads.

    *vectorize* pins the allocation kernel for the phase: ``False`` is
    the scalar loop (the expensive-query regime — and the no-numpy
    behaviour), ``True`` forces the array kernels, ``None`` leaves
    auto-detection alone.
    """
    from repro.fairshare import vectorized

    vectorized.set_vectorized(vectorize)
    service, flows, timeframe = _make_service()
    try:
        # One untimed query per thread count to settle imports/caches.
        service.flow_info(variable_flows=flows, timeframe=timeframe)
        counts = [0] * readers
        deadline = time.perf_counter() + PHASE_WALL_S

        def reader(slot: int) -> None:
            while time.perf_counter() < deadline:
                service.flow_info(variable_flows=flows, timeframe=timeframe)
                counts[slot] += 1

        threads = [
            threading.Thread(target=reader, args=(slot,)) for slot in range(readers)
        ]
        start = time.perf_counter()
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        elapsed = time.perf_counter() - start
        total = sum(counts)
        return {
            "readers": readers,
            "queries": total,
            "elapsed_s": elapsed,
            "throughput_qps": total / elapsed,
            "publishes": service.publishes,
        }
    finally:
        service.stop()
        vectorized.set_vectorized(None)


def _drive_http(address: tuple[str, int], flows: list[Flow]) -> dict:
    """Hammer one front door with persistent-connection POST /flow_info."""
    body = json.dumps(
        {
            "variable": [{"src": f.src, "dst": f.dst} for f in flows],
            "timeframe": {"kind": "history", "window": 10.0},
        }
    ).encode()
    headers = {"Content-Type": "application/json"}
    counts = [0] * HTTP_CLIENTS
    errors = [0] * HTTP_CLIENTS
    barrier = threading.Barrier(HTTP_CLIENTS + 1)

    def client(slot: int) -> None:
        conn = HTTPConnection(address[0], address[1], timeout=10)
        try:
            barrier.wait()
            while time.perf_counter() < deadline:
                conn.request("POST", "/flow_info", body=body, headers=headers)
                response = conn.getresponse()
                response.read()
                if response.status == 200:
                    counts[slot] += 1
                else:
                    errors[slot] += 1
        finally:
            conn.close()

    threads = [
        threading.Thread(target=client, args=(slot,)) for slot in range(HTTP_CLIENTS)
    ]
    for thread in threads:
        thread.start()
    deadline = time.perf_counter() + PHASE_WALL_S
    start = time.perf_counter()
    barrier.wait()
    for thread in threads:
        thread.join()
    elapsed = time.perf_counter() - start
    total = sum(counts)
    return {
        "clients": HTTP_CLIENTS,
        "queries": total,
        "errors": sum(errors),
        "elapsed_s": elapsed,
        "throughput_qps": total / elapsed,
    }


def _run_front_door(mode: str) -> dict:
    """One front-door phase: build the stack, serve, drive, tear down."""
    topology, hosts = build_tree(N_HOSTS)
    world = World.from_topology(topology, poll_interval=1.0)
    service = RemosService.from_world(world, sweep_interval=0.002, sim_step=1.0)
    query_hosts = spread_hosts(hosts, 4)
    flows = [
        Flow(query_hosts[0], query_hosts[2]),
        Flow(query_hosts[1], query_hosts[3]),
    ]
    server = None
    try:
        if mode == "workers":
            server = MultiProcessServer(
                service, port=0, workers=WORKER_COUNT, warmup=WARMUP_S
            ).start()
        else:
            service.start(warmup=WARMUP_S)
            server = serve_aio(service, port=0)
        measured = _drive_http(server.address, flows)
        measured["mode"] = mode
        if mode == "workers":
            measured["workers"] = WORKER_COUNT
        return measured
    finally:
        if server is not None:
            server.stop()
        service.stop()


def test_front_door_throughput(benchmark):
    """Asyncio vs 4-worker pre-fork, one run, one workload."""

    def experiment():
        return {mode: _run_front_door(mode) for mode in ("async", "workers")}

    doors = benchmark.pedantic(experiment, rounds=1, iterations=1)
    worker_scaling = (
        doors["workers"]["throughput_qps"] / doors["async"]["throughput_qps"]
    )
    cpus = _cpu_count()
    gated, floor, passed = worker_gate(worker_scaling, cpus)

    lines = [
        f"HTTP front doors, {N_HOSTS} hosts, {HTTP_CLIENTS} persistent clients, "
        f"{PHASE_WALL_S}s per phase ({cpus} CPUs):"
    ]
    for mode, phase in doors.items():
        lines.append(
            f"  {mode:9s}: {phase['throughput_qps']:8.1f} q/s "
            f"({phase['queries']} queries, {phase['errors']} errors)"
        )
    lines.append(
        f"  {WORKER_COUNT}-worker/async scaling {worker_scaling:.2f}x "
        f"(gate: >= {WORKER_GATE}x, "
        f"{'enforced' if gated else f'informational below {WORKER_GATE_MIN_CPUS} CPUs'})"
    )
    emit("\n".join(lines))

    payload_path = Path(__file__).resolve().parent.parent / "BENCH_concurrency.json"
    payload = json.loads(payload_path.read_text()) if payload_path.exists() else {}
    payload["front_doors"] = {
        "phases": doors,
        "worker_scaling": worker_scaling,
        "worker_gate": WORKER_GATE,
        "cpus": cpus,
        "gate_enforced": gated,
    }
    payload_path.write_text(json.dumps(payload, indent=2) + "\n")

    for phase in doors.values():
        assert phase["errors"] == 0, f"front door {phase['mode']} served errors"
        assert phase["queries"] > 0
    assert passed, (
        f"worker/async scaling {worker_scaling:.2f}x below the "
        f"{'enforced' if gated else 'informational'} floor {floor}x on {cpus} CPUs"
    )


def test_concurrent_throughput_scales(benchmark):
    """Reader throughput against a live sweeper, single and concurrent.

    The gated phases pin the **scalar** allocation kernel: that is both
    the no-numpy behaviour and the expensive-query regime.  The
    vectorized phases are recorded alongside as the raw-speed headline,
    not gated.
    """
    from repro.fairshare import vectorized

    def experiment():
        scalar = [_run_phase(readers, vectorize=False) for readers in THREAD_COUNTS]
        vector = (
            [_run_phase(readers, vectorize=True) for readers in (1, 8)]
            if vectorized.HAVE_NUMPY
            else []
        )
        return scalar, vector

    phases, vector_phases = benchmark.pedantic(experiment, rounds=1, iterations=1)
    by_readers = {phase["readers"]: phase for phase in phases}
    tp1 = by_readers[1]["throughput_qps"]
    best_concurrent = max(
        phase["throughput_qps"] for phase in phases if phase["readers"] > 1
    )
    scaling = best_concurrent / tp1

    lines = [
        f"Concurrent flow_info throughput, {N_HOSTS} hosts, live sweeper "
        f"(every sweep touches every direction), {PHASE_WALL_S}s per phase, "
        f"scalar allocation kernel:"
    ]
    for phase in phases:
        lines.append(
            f"  {phase['readers']} reader(s): {phase['throughput_qps']:8.1f} q/s "
            f"({phase['queries']} queries, {phase['publishes']} publishes)"
        )
    lines.append(
        f"  gates: single >= {SINGLE_GATE_QPS:g} q/s, best concurrent >= "
        f"{CONCURRENT_GATE_QPS:g} q/s; concurrent/single {scaling:.2f}x (reported)"
    )
    for phase in vector_phases:
        lines.append(
            f"  vectorized, {phase['readers']} reader(s): "
            f"{phase['throughput_qps']:8.1f} q/s ({phase['queries']} queries)"
        )
    emit("\n".join(lines))

    payload = {
        "benchmark": "bench_concurrent_queries",
        "hosts": N_HOSTS,
        "phase_wall_s": PHASE_WALL_S,
        "phases": phases,
        "vectorized_phases": vector_phases,
        "single_thread_qps": tp1,
        "best_concurrent_qps": best_concurrent,
        "scaling": scaling,
        "gate_single_qps": SINGLE_GATE_QPS,
        "gate_concurrent_qps": CONCURRENT_GATE_QPS,
    }
    out = Path(__file__).resolve().parent.parent / "BENCH_concurrency.json"
    # Merge: test_front_door_throughput owns the "front_doors" section of
    # the same file, whichever test runs last must not clobber the other.
    merged = json.loads(out.read_text()) if out.exists() else {}
    merged.update(payload)
    out.write_text(json.dumps(merged, indent=2) + "\n")

    # Every phase must really have run against a moving writer.
    for phase in phases:
        assert phase["publishes"] > 1, "sweeper never published during a phase"
    assert tp1 >= SINGLE_GATE_QPS
    assert best_concurrent >= CONCURRENT_GATE_QPS
