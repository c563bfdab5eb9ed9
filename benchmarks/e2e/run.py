"""End-to-end Remos query benchmark: real server, loopback HTTP, checked answers.

Two ways to run it, both from the repository root:

* ``python3 benchmarks/e2e/run.py --seed 11`` — every workload, untraced
  pass then traced pass, a table per workload and a result JSON (``--out``).
* ``python3 benchmarks/e2e/run.py --workload NAME --seed N --seconds S
  --trace 0|1`` — one workload for S measured seconds; the last stdout line
  is ``{"correct", "attempted", "failed", "metrics"}`` holding the
  end-to-end metrics (``--trace 0``) or the per-layer metrics (``--trace 1``)
  named in ``BENCHMARK.json``.

See ``README.md`` beside this file for what each workload and metric means.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
sys.path.insert(0, str(ROOT / "src"))

import numpy  # noqa: E402

import loadgen  # noqa: E402
import tracing  # noqa: E402
import verify  # noqa: E402
import workloads as wl  # noqa: E402
import worlds  # noqa: E402

PHASE_S = 20.0  #: measured seconds per workload in the full run
SMOKE_S = 2.0
WARM_S = 2.0  #: untimed traffic before the measured phase (caches, lazy set-up)
SETUPS = 3  #: server start-ups timed per run; ``setup_s`` is their median
#: A run whose generator was the bottleneck measured the generator.
MAX_LOADGEN_CPU_SHARE = 0.5
MAX_LATE_P99_MS = 5.0
#: Mean ``loadgen.SpeedProbe`` duration on the host the bounds were sized on.
#: Every time-based metric is reported at this machine speed (see speed_factor).
REFERENCE_PROBE_US = 480.0
CLOCK_TICKS = os.sysconf("SC_CLK_TCK")
PAGE_BYTES = os.sysconf("SC_PAGE_SIZE")

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


class Server:
    """One launcher process (``server.py``), spawned on construction.

    ``with server:`` stops it on the way out.
    """

    def __init__(self, workload, seed: int, sweep_interval: float, trace_out=None):
        command = [
            sys.executable, str(HERE / "server.py"),
            "--world", workload.world,
            "--seed", str(seed),
            "--sweep-interval", str(sweep_interval),
        ]  # fmt: skip
        if trace_out:
            command += ["--trace-out", str(trace_out)]
        env = dict(os.environ, PYTHONHASHSEED="0", PYTHONPATH=str(ROOT / "src"))
        # Kept off the terminal unless the server fails: asyncio logs a
        # cancelled-task callback per open connection at every shutdown.
        self.stderr = tempfile.TemporaryFile(mode="w+")
        self.spawned = time.perf_counter()
        self.process = subprocess.Popen(
            command, stdin=subprocess.PIPE, stdout=subprocess.PIPE, stderr=self.stderr,
            env=env, text=True,
        )  # fmt: skip
        self.port = 0

    def wait_ready(self) -> None:
        line = self.process.stdout.readline()
        if not line.startswith("READY "):
            self.process.kill()
            raise RuntimeError(f"server did not come up (said {line!r})")
        self.port = int(line.split()[1])

    def __enter__(self) -> "Server":
        return self

    def __exit__(self, *exc) -> None:
        self.stop()

    def stop(self) -> None:
        self.process.stdin.close()  # the launcher serves until stdin closes
        try:
            self.process.wait(timeout=30.0)
        except subprocess.TimeoutExpired:
            self.process.kill()
            self.process.wait()
        self.process.stdout.close()
        if self.process.returncode != 0:
            self.stderr.seek(0)
            sys.stderr.write(self.stderr.read())
        self.stderr.close()

    def first_answer(self, request, capacity: float) -> float:
        """Seconds from spawn to the first correct answer to *request*."""
        status, body = self.fetch(request)
        error = verify.check_response(request, status, body, capacity)
        if error:
            raise RuntimeError(f"first answer was wrong: {error}")
        return time.perf_counter() - self.spawned

    def fetch(self, request):
        connection = loadgen.Connection(self.port)
        try:
            return connection.request(request.method, request.target, request.body)
        finally:
            connection.close()

    def cpu_seconds(self) -> float:
        fields = self._stat()
        return (int(fields[11]) + int(fields[12])) / CLOCK_TICKS  # utime + stime

    def rss_mb(self) -> float:
        return int(self._stat()[21]) * PAGE_BYTES / 1e6

    def _stat(self) -> list[str]:
        """``/proc/<pid>/stat`` from field 3 (state) on: the command name
        before it may contain spaces."""
        stat = Path(f"/proc/{self.process.pid}/stat").read_text()
        return stat.rsplit(")", 1)[1].split()


def percentile(values: list[float], share: float) -> float:
    """Nearest-rank percentile: the smallest value with *share* at or below it.

    0.0 for no values (a phase in which every request failed).
    """
    if not values:
        return 0.0
    ranked = sorted(values)
    return ranked[max(1, math.ceil(share * len(ranked))) - 1]


def tail_share(count: int) -> float:
    """The highest of p99/p95/p90/p50 that leaves ten samples beyond it."""
    for share in (0.99, 0.95, 0.90):
        if count * (1.0 - share) >= 10.0:
            return share
    return 0.5


def metric_total(telemetry: dict, name: str, field: str = "value") -> float:
    """Sum of *field* over every label series of registry metric *name*."""
    series = telemetry["metrics"].get(name, {}).get("series", [])
    return float(sum(entry.get(field, 0.0) for entry in series))


def counters(telemetry: dict) -> dict:
    """The monotone server counters the per-layer ratios are deltas of."""
    service, cache, snapshot = telemetry["service"], telemetry["cache"], telemetry["snapshot"]
    return {
        "epoch": snapshot["epoch"],
        "published_at": snapshot["published_at"],
        "batches": service["batches_executed"],
        "batched": service["queries_batched"],
        "hits": cache["hits"],
        "misses": cache["misses"],
        "evicted": cache["entries_evicted"],
        "vector": metric_total(telemetry, "remos_vectorized_solves_total"),
        "scalar": metric_total(telemetry, "remos_scalar_solves_total"),
        "slow_graph": metric_total(telemetry, "remos_graph_slow_path_total"),
        "sweep_s": metric_total(telemetry, "remos_sweep_seconds", "sum"),
        "sweeps": metric_total(telemetry, "remos_sweep_seconds", "count"),
    }


def ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def run_pass(workload, seed: int, seconds: float, pool, order, capacity, trace_out=None):
    """Spawn a live server, warm it, measure one phase; return the raw material."""
    drive = dict(capacity=capacity, connections=workload.connections, rate=workload.rate)
    server, setup_s = timed_setup(
        workload, seed, workload.sweep_interval, pool[0], capacity, trace_out
    )
    with server:
        # The warm phase replays the back half of the order sequence so the
        # measured stream starts at index 0 whatever the warm phase got through.
        warm = loadgen.run_phase(
            server.port, pool, order, WARM_S, tag=seed,
            first_index=len(order) // 2, **drive,
        )  # fmt: skip
        before = counters(loadgen.get_json(server.port, "/telemetry"))
        cpu0, own0 = server.cpu_seconds(), time.process_time()
        phase = loadgen.run_phase(server.port, pool, order, seconds, tag=seed, **drive)
        cpu1, own1 = server.cpu_seconds(), time.process_time()
        rss_mb = server.rss_mb()
        after = counters(loadgen.get_json(server.port, "/telemetry"))
    quiet = phase.quiet()
    factor = speed_factor(quiet.probe_us)
    return {
        "setup_s": setup_s,
        "warm": warm,
        "phase": phase,
        "quiet": quiet,
        "factor": factor,
        # Correct answers of the undisturbed slices, ms at reference speed.
        "latencies": [r.latency_ms / factor for r in quiet.records if r.error is None],
        "delta": {key: after[key] - before[key] for key in after},
        "server_cpu_s": cpu1 - cpu0,
        "loadgen_cpu_s": own1 - own0,
        "rss_mb": rss_mb,
    }


def speed_factor(probe_us: float) -> float:
    """How much slower (> 1) than the reference host the probed stretch ran.

    The same work takes 10-25 % more or less time from one minute to the
    next on a shared host; the probe measured beside it takes the same
    hit, so dividing durations by this factor (and multiplying closed-loop
    rates by it) reports them at reference machine speed.
    """
    return probe_us / REFERENCE_PROBE_US if probe_us else 1.0


def timed_setup(workload, seed: int, sweep_interval: float, request, capacity, trace_out=None):
    """Spawn a server; return it with its set-up time at reference speed."""
    probe = loadgen.SpeedProbe()
    probe.start()
    server = Server(workload, seed, sweep_interval, trace_out)
    try:
        server.wait_ready()
        setup_s = server.first_answer(request, capacity)
    except BaseException:
        server.stop()
        raise
    finally:
        probe.finish()
    return server, setup_s / speed_factor(probe.mean_us())


def end_to_end(workload, raw: dict, setups: list[float]) -> dict:
    """The user-visible metrics of one untraced pass.

    Timings come from the undisturbed slices of the phase and are reported
    at reference machine speed; counts and shares of correctness use the
    whole phase.
    """
    phase, quiet, factor, delta = raw["phase"], raw["quiet"], raw["factor"], raw["delta"]
    good = raw["latencies"]
    within = sum(1 for latency in good if latency <= workload.limit_ms)
    answered = phase.attempted - phase.failed
    return {
        "setup_s": statistics.median(setups),
        # A closed loop's rate is the server's capacity and scales with the
        # host; an open loop's is its schedule and does not.
        "qps": len(good) / quiet.seconds * (factor if workload.rate is None else 1.0),
        "p50_ms": percentile(good, 0.5),
        "p95_ms": percentile(good, 0.95),
        # Failures count as missing the limit; error_share itself is the
        # result line's failed/attempted.
        "within_limit_share": ratio(within, len(quiet.records)),
        "ok_share": ratio(answered, phase.attempted),
        "cpu_ms_per_query": ratio(raw["server_cpu_s"] * 1e3 / factor, answered),
        "publish_hz": ratio(delta["epoch"], delta["published_at"]),
        "rss_mb": raw["rss_mb"],
    }


def counter_layers(workload, raw: dict) -> dict:
    """Per-layer ratios from /telemetry counter deltas of the untraced pass."""
    phase, quiet, factor, delta = raw["phase"], raw["quiet"], raw["factor"], raw["delta"]
    good = phase.attempted - phase.failed
    latencies = [r.latency_ms for r in phase.records if r.error is None]
    late = [(r.sent_ns - r.due_ns) / 1e6 for r in phase.records]
    graphs = phase.attempted if workload.stream == "graph" else 0
    return {
        "machine.speed_factor": factor,
        "machine.quiet_share": quiet.share,
        "raw.qps": good / phase.wall_s,
        "raw.p50_ms": percentile(latencies, 0.5),
        "tail.p99_ms": percentile(raw["latencies"], 0.99),
        "service.core.mean_batch": ratio(delta["batched"], delta["batches"]),
        "fairshare.vector_share": ratio(delta["vector"], delta["vector"] + delta["scalar"]),
        "core.modeler.cache_hit_share": ratio(delta["hits"], delta["hits"] + delta["misses"]),
        "core.modeler.misses_per_query": ratio(delta["misses"], good),
        "core.modeler.evictions_per_publish": ratio(delta["evicted"], delta["epoch"]),
        "core.modeler.slow_graph_share": ratio(delta["slow_graph"], graphs),
        "service.core.sweep_ms": ratio(delta["sweep_s"] * 1e3 / factor, delta["sweeps"]),
        "service.core.writer_busy_share": ratio(delta["sweep_s"], phase.wall_s),
        "server.cpu_share": ratio(raw["server_cpu_s"], phase.wall_s),
        "loadgen.cpu_share": ratio(raw["loadgen_cpu_s"], phase.wall_s),
        "loadgen.late_p99_ms": percentile(late, 0.99) if workload.rate else 0.0,
        "wire.resp_bytes_mean": ratio(sum(r.size for r in phase.records), phase.attempted),
    }


def span_layers(raw: dict, report: dict, seed: int, untraced_p50: float) -> dict:
    """Per-layer self times from the traced pass, joined by trace id.

    Client and server stamp the same monotonic clock (one host), so the
    server's sweeps can be cut to the client's measurement window.
    """
    phase, factor = raw["phase"], raw["factor"]
    good = [r for r in raw["quiet"].records if r.error is None]
    totals = dict.fromkeys(tracing.REQUEST_LAYERS, 0)
    wire_ns = unjoined_ns = 0
    for record in good:
        joined = report["requests"].get(loadgen.trace_id(seed, record.index))
        latency = record.done_ns - record.due_ns
        if joined is None:
            unjoined_ns += latency
            continue
        start, end, layers = joined
        wire_ns += latency - (end - start)
        for layer, self_ns in layers.items():
            totals[layer] = totals.get(layer, 0) + self_ns
    per_request = 1e6 * factor * max(1, len(good))
    layers = {layer: total / per_request for layer, total in totals.items()}
    layers["service.aio.wire_ms"] = wire_ns / per_request
    latency_ns = sum(r.done_ns - r.due_ns for r in good)
    layers["reader.unattributed_ms"] = unjoined_ns / per_request
    layers["reader.attributed_share"] = ratio(latency_ns - unjoined_ns, latency_ns)

    per_sweep = 1e6 * factor * max(1.0, raw["delta"]["sweeps"])
    in_window = [
        tree for start, tree in report["background"] if phase.start_ns <= start < phase.end_ns
    ]
    for layer in tracing.SWEEP_LAYERS:
        layers[layer] = sum(tree.get(layer, 0) for tree in in_window) / per_sweep

    traced_p50 = percentile(raw["latencies"], 0.5)
    layers["trace.overhead_share"] = ratio(traced_p50 - untraced_p50, untraced_p50)
    layers["trace.unresolved_count"] = float(len(report["unresolved"]))
    for layer, names in tracing.LAYER_BOUNDARIES.items():
        if set(names) <= set(report["unresolved"]):
            layers[layer] = None  # nothing of it was measured: null, not 0
    return layers


def invalid_reasons(layers: dict) -> list[str]:
    """Why a run measured its generator, not the server (empty = valid)."""
    reasons = []
    if layers["loadgen.cpu_share"] > MAX_LOADGEN_CPU_SHARE:
        reasons.append(f"loadgen.cpu_share above {MAX_LOADGEN_CPU_SHARE:g}")
    if layers["loadgen.late_p99_ms"] > MAX_LATE_P99_MS:
        reasons.append(f"loadgen.late_p99_ms above {MAX_LATE_P99_MS:g}")
    return reasons


def check_oracle(workload, seed: int, pool, capacity) -> tuple[float, int, list[str]]:
    """Frozen-server oracle check: ``(its setup_s, requests compared, mismatches)``."""
    step = max(1, len(pool) // verify.ORACLE_SAMPLES)
    sample = pool[::step][: verify.ORACLE_SAMPLES]
    frozen, setup_s = timed_setup(workload, seed, 3600.0, pool[0], capacity)
    with frozen:
        mismatches = verify.oracle_mismatches(workload.world, seed, sample, frozen.fetch)
    return setup_s, len(sample), mismatches


def measure(workload, seed: int, seconds: float, traced_s: float, setups: int = SETUPS) -> dict:
    """Run one workload: oracle check, untraced pass, traced pass if *traced_s*.

    End-to-end metrics and counter ratios come from the untraced pass only.
    """
    hosts = wl.world_hosts(workload.world)
    pool, order = wl.build_requests(workload, seed, hosts)
    capacity = worlds.ACCESS_CAPACITY[workload.world]
    oracle_setup, compared, mismatches = check_oracle(workload, seed, pool, capacity)
    setup_samples = [oracle_setup]
    for _ in range(setups - 2):
        extra, setup_s = timed_setup(workload, seed, workload.sweep_interval, pool[0], capacity)
        extra.stop()
        setup_samples.append(setup_s)

    raw = run_pass(workload, seed, seconds, pool, order, capacity)
    setup_samples.append(raw["setup_s"])
    phases = {"warm": raw["warm"], "measured": raw["phase"]}
    latencies = raw["latencies"]
    result = {
        "workload": workload.name,
        "phase_s": seconds,
        "end_to_end": end_to_end(workload, raw, setup_samples),
        "per_layer": counter_layers(workload, raw),
        # The highest percentile the sample supports, beside the gated p95.
        "tail": {
            "samples": len(latencies),
            "share": tail_share(len(latencies)),
            "ms": percentile(latencies, tail_share(len(latencies))),
        },
        "unresolved": [],
    }
    if traced_s:
        with tempfile.TemporaryDirectory(prefix="trace-", dir=HERE) as scratch:
            trace_out = Path(scratch) / "spans.json"
            traced = run_pass(workload, seed, traced_s, pool, order, capacity, trace_out)
            report = json.loads(trace_out.read_text())
        phases.update(traced_warm=traced["warm"], traced=traced["phase"])
        result["per_layer"].update(
            span_layers(traced, report, seed, result["end_to_end"]["p50_ms"])
        )
        result["unresolved"] = report["unresolved"]

    result["phases"] = {
        "oracle": {
            "attempted": compared,
            "succeeded": compared - len(mismatches),
            "failed": len(mismatches),
        }
    }
    for name, phase in phases.items():
        result["phases"][name] = {
            "attempted": phase.attempted,
            "succeeded": phase.attempted - phase.failed,
            "failed": phase.failed,
        }
    attempted = sum(p["attempted"] for p in result["phases"].values())
    failed = sum(p["failed"] for p in result["phases"].values())
    result["attempted"], result["failed"] = attempted, failed
    result["error_share"] = ratio(failed, attempted)
    result["errors"] = sorted(
        {r.error for phase in phases.values() for r in phase.records if r.error}
        | set(mismatches)
    )[:5]
    result["invalid"] = invalid_reasons(result["per_layer"])
    return result


def contract_line(result: dict, trace: bool) -> str:
    """The driver's result object: exactly correct/attempted/failed/metrics."""
    section = "per_layer" if trace else "end_to_end"
    values = result[section]
    metrics = {
        spec["name"]: {"value": values[spec["name"]] or 0.0, "unit": spec["unit"]}
        for spec in SPEC[section]
    }
    return json.dumps(
        {
            "correct": result["failed"] == 0 and not result["invalid"],
            "attempted": result["attempted"],
            "failed": result["failed"],
            "metrics": metrics,
        }
    )


def print_table(result: dict) -> None:
    units = {spec["name"]: spec["unit"] for spec in SPEC["end_to_end"] + SPEC["per_layer"]}
    measured = result["phases"]["measured"]
    print(
        f"\n== {result['workload']}  ({result['phase_s']:g} s measured, "
        f"{measured['attempted']} requests, {result['tail']['samples']} timed)"
    )
    for name, value in result["end_to_end"].items():
        print(f"  {name:<36} {value:>12.4f} {units[name]}")
    tail = result["tail"]
    print(
        f"  {'error_share':<36} {result['error_share']:>12.4f} share"
        f"   (failed {result['failed']} of {result['attempted']})"
    )
    print(
        f"  highest percentile with 10 samples beyond it: "
        f"p{tail['share'] * 100:g} = {tail['ms']:.3f} ms"
    )
    for name, value in result["per_layer"].items():
        shown = "null" if value is None else f"{value:12.4f}"
        print(f"    {name:<34} {shown:>12} {units.get(name, '')}")
    for label in ("unresolved", "invalid", "errors"):
        if result[label]:
            print(f"  {label}: {result[label]}")


def git_commit() -> str | None:
    try:
        out = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=10.0,
        )  # fmt: skip
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() or None


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=11)
    parser.add_argument("--workload", nargs="+", choices=sorted(wl.WORKLOADS), metavar="NAME")
    parser.add_argument("--out", help="write the result JSON here")
    parser.add_argument(
        "--trace", nargs="?", type=int, const=1, default=None, choices=(0, 1),
        help="run the traced pass too (the full run does by default)",
    )  # fmt: skip
    parser.add_argument("--smoke", action="store_true", help=f"{SMOKE_S:g} s phases, for CI")
    parser.add_argument(
        "--seconds", type=float,
        help="driver mode: one workload, this many measured seconds, one JSON result line",
    )  # fmt: skip
    args = parser.parse_args(argv)

    if args.seconds is not None:
        if not args.workload or len(args.workload) != 1:
            parser.error("--seconds runs exactly one --workload")
        workload = wl.WORKLOADS[args.workload[0]]
        if args.trace:  # split the budget; setup_s is not reported, so skip extras
            result = measure(workload, args.seed, args.seconds / 2, args.seconds / 2, setups=2)
        else:
            result = measure(workload, args.seed, args.seconds, 0.0)
        print_table(result)
        print(contract_line(result, bool(args.trace)))
        return 0

    seconds = SMOKE_S if args.smoke else PHASE_S
    trace = True if args.trace is None else bool(args.trace)
    names = args.workload or list(wl.WORKLOADS)
    results = []
    for name in names:
        result = measure(wl.WORKLOADS[name], args.seed, seconds, seconds / 2 if trace else 0.0)
        print_table(result)
        results.append(result)
    summary = {
        "commit": git_commit(),
        "seed": args.seed,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "phase_s": seconds,
        "smoke": args.smoke,
        "open_rates": {w.name: w.rate for w in wl.WORKLOADS.values() if w.rate},
        "latency_limits_ms": {w.name: w.limit_ms for w in wl.WORKLOADS.values()},
        "workloads": {r["workload"]: r for r in results},
        "claim": None,
    }
    text = json.dumps(summary, indent=1)
    if args.out:
        Path(args.out).write_text(text + "\n")
    else:
        print(text)
    return 1 if any(r["error_share"] > 0 for r in results) else 0


if __name__ == "__main__":
    sys.exit(main())
