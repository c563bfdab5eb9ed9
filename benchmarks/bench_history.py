"""Benchmark history ledger and regression gate.

The gated benchmarks (``bench_ablation_scale``, ``bench_refresh_cost``,
``bench_concurrent_queries``, ``bench_topology_scale``,
``bench_federation``, ``bench_forecast``) each drop a
``BENCH_*.json`` artifact in the repo root.  This script turns those
one-off artifacts into a time series and a CI gate:

* ``--record`` appends one line per artifact to ``benchmarks/history.jsonl``
  — ``{"ts", "sha", "benchmark", "metrics"}`` — so the headline numbers
  accumulate across commits instead of being overwritten;
* ``--check`` compares the current artifacts against the committed
  ``benchmarks/baseline.json`` and exits 1 when any headline metric has
  regressed by more than ``--tolerance`` (default 20%);
* ``--write-baseline`` regenerates the baseline from the current
  artifacts (run deliberately, then commit the diff).

Every headline metric is higher-is-better (speedups, scaling factors,
throughput — absolute rates where a ratio's slow side was itself the thing
being optimised), so "regression" means ``current < baseline * (1 - tol)``.
Run as a script::

    python benchmarks/bench_history.py --check
    python benchmarks/bench_history.py --record
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
import time
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
HISTORY_PATH = REPO_ROOT / "benchmarks" / "history.jsonl"
BASELINE_PATH = REPO_ROOT / "benchmarks" / "baseline.json"

#: artifact file -> {metric name: path into the json document}.
#: Paths are dotted key chains; every extracted metric is higher-is-better.
HEADLINE_METRICS: dict[str, dict[str, str]] = {
    "BENCH_scale.json": {
        "engine_speedup": "engine_speedup.speedup",
        "vectorized_batches_per_s": "vectorized_kernel.batches_per_s",
    },
    "BENCH_refresh.json": {"incremental_rounds_per_s": "incremental_rounds_per_s"},
    "BENCH_concurrency.json": {
        "single_thread_qps": "single_thread_qps",
        "best_concurrent_qps": "best_concurrent_qps",
        "worker_scaling": "front_doors.worker_scaling",
    },
    "BENCH_topology.json": {"head_to_head_speedup": "head_to_head.speedup"},
    "BENCH_federation.json": {"cross_cost_flatness": "host_scaling.flatness"},
    "BENCH_forecast.json": {"trend_skill": "trend_skill"},
}


def _dig(document: dict, path: str) -> float | None:
    """Follow a dotted key chain; None when any hop is missing/non-numeric."""
    node = document
    for key in path.split("."):
        if not isinstance(node, dict) or key not in node:
            return None
        node = node[key]
    return float(node) if isinstance(node, (int, float)) else None


def git_sha() -> str:
    """Short commit sha, or "unknown" outside a git checkout."""
    try:
        out = subprocess.run(
            ["git", "rev-parse", "--short", "HEAD"],
            cwd=REPO_ROOT,
            capture_output=True,
            text=True,
            timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def collect(root: Path = REPO_ROOT) -> dict[str, dict[str, float]]:
    """Headline metrics from whichever BENCH_*.json artifacts exist."""
    collected: dict[str, dict[str, float]] = {}
    for filename, metric_paths in HEADLINE_METRICS.items():
        artifact = root / filename
        if not artifact.exists():
            continue
        try:
            document = json.loads(artifact.read_text())
        except (OSError, json.JSONDecodeError) as exc:
            print(f"bench_history: skipping unreadable {filename}: {exc}")
            continue
        metrics = {}
        for name, path in metric_paths.items():
            value = _dig(document, path)
            if value is not None:
                metrics[name] = value
        if metrics:
            collected[document.get("benchmark", filename)] = metrics
    return collected


def record(root: Path = REPO_ROOT, history: Path = HISTORY_PATH) -> int:
    """Append one history line per artifact currently present."""
    collected = collect(root)
    if not collected:
        print("bench_history: no BENCH_*.json artifacts found; nothing to record")
        return 1
    ts = time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime())
    sha = git_sha()
    with history.open("a") as fh:
        for benchmark, metrics in sorted(collected.items()):
            fh.write(
                json.dumps(
                    {"ts": ts, "sha": sha, "benchmark": benchmark, "metrics": metrics}
                )
                + "\n"
            )
    print(f"bench_history: recorded {len(collected)} benchmark(s) at {sha} -> {history}")
    return 0


def check(
    root: Path = REPO_ROOT, baseline_path: Path = BASELINE_PATH, tolerance: float = 0.2
) -> int:
    """Exit 1 when any headline metric fell >tolerance below the baseline.

    Metrics present in the baseline but missing from the current artifacts
    are only warnings (a partial CI run shouldn't fail the gate); metrics
    present in both are compared directly.
    """
    if not baseline_path.exists():
        print(f"bench_history: no baseline at {baseline_path}; run --write-baseline")
        return 1
    baseline = json.loads(baseline_path.read_text()).get("benchmarks", {})
    current = collect(root)
    failures: list[str] = []
    compared = 0
    for benchmark, metrics in sorted(baseline.items()):
        observed = current.get(benchmark)
        if observed is None:
            print(f"bench_history: note: no current artifact for {benchmark}")
            continue
        for name, base_value in sorted(metrics.items()):
            value = observed.get(name)
            if value is None:
                print(f"bench_history: note: {benchmark}.{name} missing from artifact")
                continue
            compared += 1
            floor = base_value * (1.0 - tolerance)
            verdict = "ok" if value >= floor else "REGRESSED"
            print(
                f"  {benchmark}.{name}: {value:.3f} vs baseline {base_value:.3f}"
                f" (floor {floor:.3f}) {verdict}"
            )
            if value < floor:
                failures.append(f"{benchmark}.{name}")
    if failures:
        print(
            f"bench_history: {len(failures)} metric(s) regressed >"
            f"{tolerance:.0%}: {', '.join(failures)}"
        )
        return 1
    if compared == 0:
        print("bench_history: no comparable metrics found")
        return 1
    print(f"bench_history: {compared} metric(s) within {tolerance:.0%} of baseline")
    return 0


def write_baseline(root: Path = REPO_ROOT, baseline_path: Path = BASELINE_PATH) -> int:
    collected = collect(root)
    if not collected:
        print("bench_history: no BENCH_*.json artifacts found; baseline unchanged")
        return 1
    payload = {
        "recorded_at": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        "sha": git_sha(),
        "tolerance": 0.2,
        "benchmarks": collected,
    }
    baseline_path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    print(f"bench_history: wrote baseline for {len(collected)} benchmark(s)")
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    group = parser.add_mutually_exclusive_group(required=True)
    group.add_argument("--record", action="store_true", help="append to history.jsonl")
    group.add_argument("--check", action="store_true", help="gate vs baseline.json")
    group.add_argument(
        "--write-baseline", action="store_true", help="regenerate baseline.json"
    )
    parser.add_argument(
        "--tolerance",
        type=float,
        default=0.2,
        help="allowed fractional regression for --check (default 0.2)",
    )
    args = parser.parse_args(argv)
    if args.record:
        return record()
    if args.write_baseline:
        return write_baseline()
    return check(tolerance=args.tolerance)


if __name__ == "__main__":
    sys.exit(main())
