"""Forecast quality benchmark: measured skill of the FUTURE predictor zoo.

The forecast plane's claim is not "predictions are right" but "the system
*knows* which model is right, per series, from its own backtests".  This
suite walks every registered predictor forward over synthetic traces with
known structure and scores each prediction's pinball loss against the
samples that actually landed in its horizon — the same walk-forward
discipline the online :class:`~repro.stats.forecast.Backtester` applies
in production, driven through the production path
(:meth:`TimeframeEvaluator.evaluate`).

Gates:

* on a **trending** trace, the trend-aware models (Holt, quantile
  regression) and the ``"auto"`` arbiter must beat ``last`` (the paper's
  "simplistic model" that extrapolates the current value) on mean
  pinball loss — trend is the one structure a last-value predictor
  cannot see;
* ``"auto"`` must land within 1.15x of the best single model on every
  trace — the arbiter is allowed warm-up, not a wrong final pick;
* a warm FUTURE query costs at most 60x a warm HISTORY query end to end
  (prediction is more expensive, not pathologically so).

``test_miss_cost`` reports, ungated, what one evaluator miss costs on the
64-host tree the end-to-end benchmark serves (``benchmarks/e2e/worlds.py``),
single-threaded, driven the way ``future_churn`` drives it: µs per
FUTURE(auto) miss and per HISTORY miss, and for FUTURE the three counts
that say where a miss's backtesting goes — realized-window reads,
origins the settle loop examines, and backtester lock acquisitions.

``test_forecast_report`` renders the table and writes
``BENCH_forecast.json``; ``bench_history.py`` tracks the ``trend_skill``
headline (pinball loss of ``last`` / pinball loss of ``auto`` on the
trending trace — higher is better, >1 means the forecast plane earns its
keep).
"""

from __future__ import annotations

import importlib.util
import json
import math
import random
import time
from pathlib import Path

import pytest

from repro.bench import Table
from repro.core import Flow, Timeframe
from repro.core.evaluator import TimeframeEvaluator
from repro.stats.forecast import Backtester, pinball_loss
from repro.stats.series import TimeSeries

from benchmarks._experiments import emit

PREDICTORS = ["last", "mean", "ewma", "holt", "quantile", "auto"]
HORIZON = 10.0
WINDOW = 60.0
WARMUP_SAMPLES = 60
STRIDE = 5
MISS_SEED = 11
MISS_SWEEPS = 20
MISS_QUERIES_PER_SWEEP = 45

_results: dict = {}


def make_trace(kind: str, seed: int, n: int = 360) -> list[tuple[float, float]]:
    """One synthetic rate trace (1 Hz), in bits/s."""
    rng = random.Random(seed)
    samples = []
    for i in range(n):
        t = float(i)
        if kind == "trend":
            level = 20e6 + 0.5e6 * t  # a ramp: 20 -> 200 Mbps
        elif kind == "periodic":
            level = 60e6 + 30e6 * math.sin(2 * math.pi * t / 60.0)
        else:  # flat
            level = 50e6
        samples.append((t, max(0.0, level + rng.gauss(0.0, 2e6))))
    return samples


def walk_forward(trace: list[tuple[float, float]], predictor: str) -> float:
    """Mean pinball loss of *predictor* walked forward over *trace*.

    Each checkpoint evaluates through the production path (one shared
    evaluator, so ``"auto"`` accumulates backtest evidence as it walks,
    exactly as it would inside a live Modeler).
    """
    evaluator = TimeframeEvaluator()
    timeframe = Timeframe.future(HORIZON, predictor=predictor, window=WINDOW)
    series = TimeSeries(capacity=4096, name="bench_forecast")
    losses = []
    for i, (t, value) in enumerate(trace):
        series.add(t, value)
        if i < WARMUP_SAMPLES or (i - WARMUP_SAMPLES) % STRIDE:
            continue
        if t + HORIZON > trace[-1][0]:
            break
        measure = evaluator.evaluate("bench", series, timeframe, t)
        realized = [v for ts, v in trace if t < ts <= t + HORIZON]
        losses.append(pinball_loss(measure, realized))
    return sum(losses) / len(losses)


def scores_for(kind: str) -> dict[str, float]:
    if kind not in _results:
        _results[kind] = {
            predictor: sum(
                walk_forward(make_trace(kind, seed), predictor) for seed in (3, 7)
            )
            / 2.0
            for predictor in PREDICTORS
        }
    return _results[kind]


def test_smoke_trending_auto_beats_last(benchmark):
    """The headline gate: measured model selection beats last-value."""
    scores = benchmark.pedantic(
        lambda: scores_for("trend"), rounds=1, iterations=1
    )
    # The trend-aware models see the ramp coming; last lags it by
    # slope * horizon.  Quantile regression wins outright (its band
    # widens with the fit residuals); Holt's tighter band edges last.
    assert scores["quantile"] < scores["last"] * 0.9
    assert scores["holt"] < scores["last"]
    # And "auto" discovers the winner from its own backtests mid-walk.
    assert scores["auto"] < scores["last"] * 0.9


@pytest.mark.parametrize("kind", ["trend", "periodic", "flat"])
def test_auto_tracks_best_single_model(benchmark, kind):
    scores = benchmark.pedantic(lambda: scores_for(kind), rounds=1, iterations=1)
    best_single = min(v for k, v in scores.items() if k != "auto")
    # Warm-up checkpoints (before any backtest settles) answer with the
    # default model, so "auto" trails the best fixed choice slightly —
    # but it must never finish far from it.
    assert scores["auto"] <= best_single * 1.15


def test_future_query_overhead(benchmark):
    """Warm end-to-end cost: FUTURE vs HISTORY through the full service path."""
    from repro.core import Remos
    from repro.testbed import build_cmu_testbed

    world = build_cmu_testbed(poll_interval=1.0)
    world.start_monitoring(warmup=30.0)
    # Cache off: FUTURE entries are deliberately not reusable across time
    # shifts, so the honest comparison is recompute cost vs recompute cost.
    remos = Remos(world.collector.view(), enable_cache=False)

    def cost(timeframe) -> float:
        flows = [Flow("m-1", "m-4")]
        remos.flow_info(variable_flows=flows, timeframe=timeframe)  # warm
        best = float("inf")
        for _ in range(10):
            t0 = time.perf_counter()
            remos.flow_info(variable_flows=flows, timeframe=timeframe)
            best = min(best, time.perf_counter() - t0)
        return best

    def experiment():
        history = cost(Timeframe.history(30.0))
        future = cost(Timeframe.future(HORIZON, predictor="auto", window=WINDOW))
        return history, future

    history, future = benchmark.pedantic(experiment, rounds=1, iterations=1)
    _results["overhead"] = {"history_s": history, "future_s": future}
    assert future < history * 60


def _e2e_worlds():
    """``benchmarks/e2e/worlds.py``, loaded by path (it is not a package)."""
    path = Path(__file__).resolve().parent / "e2e" / "worlds.py"
    spec = importlib.util.spec_from_file_location("e2e_worlds", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


class _CountingLock:
    """The backtester's lock, counting acquisitions while *active* is set."""

    def __init__(self, lock, counts: dict, active: list):
        self._lock, self._counts, self._active = lock, counts, active

    def __enter__(self):
        if self._active[0]:
            self._counts["locks"] += 1
        return self._lock.__enter__()

    def __exit__(self, *exc):
        return self._lock.__exit__(*exc)


def miss_pass(monkeypatch, timeframe, counted: bool) -> dict:
    """One single-threaded pass of flow queries under *timeframe*.

    The ``future_churn`` stream in process: all ordered pairs among 2-3
    hosts of the e2e tree (seeded), :data:`MISS_QUERIES_PER_SWEEP` queries
    per collector sweep.  Returns evaluator misses and their wall time;
    with *counted*, also the three FUTURE counts (the instruments cost
    time, so timed passes run without them).
    """
    worlds = _e2e_worlds()
    world = worlds.build_world("tree64", MISS_SEED)
    remos = world.start_monitoring(warmup=worlds.WARMUP_S)
    hosts = worlds.build_tree()[1]
    rng = random.Random(MISS_SEED)
    pool = []
    for i in range(64):
        picked = rng.sample(hosts, (2, 2, 3)[i % 3])
        pool.append([Flow(a, b) for a in picked for b in picked if a != b])
    stats = {"misses": 0, "seconds": 0.0, "windows": 0, "examined": 0, "locks": 0}
    active = [False]
    evaluate = TimeframeEvaluator.evaluate

    def timed_evaluate(self, series_key, series, tf, now):
        if tf.kind is not timeframe.kind:
            return evaluate(self, series_key, series, tf, now)
        active[0] = True
        start = time.perf_counter()
        try:
            return evaluate(self, series_key, series, tf, now)
        finally:
            stats["seconds"] += time.perf_counter() - start
            stats["misses"] += 1
            active[0] = False

    monkeypatch.setattr(TimeframeEvaluator, "evaluate", timed_evaluate)
    if counted:
        settle = Backtester._settle

        class CountingSeries:
            def __init__(self, series):
                self._series = series

            def window(self, since, until):
                stats["windows"] += 1
                return self._series.window(since, until)

        def counted_settle(self, series_key, series, now):
            # The settle loop touches each matured origin, then stops at
            # the first one still pending in each lane.
            for lane in self._lanes.get(series_key, {}).values():
                matured = sum(1 for origin in lane.origins if not origin.due > now)
                stats["examined"] += matured + (len(lane.origins) > matured)
            return settle(self, series_key, CountingSeries(series), now)

        monkeypatch.setattr(Backtester, "_settle", counted_settle)
        backtester = remos.snapshot().modeler.evaluator.backtester
        backtester._lock = _CountingLock(backtester._lock, stats, active)
    step = 0
    for _ in range(MISS_SWEEPS):
        world.settle(1.0)
        for _ in range(MISS_QUERIES_PER_SWEEP):
            remos.flow_info(variable_flows=pool[step % len(pool)], timeframe=timeframe)
            step += 1
    monkeypatch.undo()
    return stats


def test_miss_cost(benchmark, monkeypatch):
    """Ungated: µs per evaluator miss, and where a FUTURE(auto) miss goes."""

    def experiment():
        future = Timeframe.future(HORIZON, predictor="auto")
        history = Timeframe.history(HORIZON)
        timed = miss_pass(monkeypatch, future, counted=False)
        counted = miss_pass(monkeypatch, future, counted=True)
        baseline = miss_pass(monkeypatch, history, counted=False)
        misses = counted["misses"]
        return {
            "future_auto_us_per_miss": timed["seconds"] / timed["misses"] * 1e6,
            "history_us_per_miss": baseline["seconds"] / baseline["misses"] * 1e6,
            "future_misses": timed["misses"],
            "history_misses": baseline["misses"],
            "window_reads_per_miss": counted["windows"] / misses,
            "origins_examined_per_miss": counted["examined"] / misses,
            "lock_acquisitions_per_miss": counted["locks"] / misses,
        }

    costs = benchmark.pedantic(experiment, rounds=1, iterations=1)
    _results["miss_cost"] = costs
    table = Table(
        "Evaluator miss cost - 64-host e2e tree, single-threaded "
        f"({MISS_SWEEPS} sweeps x {MISS_QUERIES_PER_SWEEP} queries, seed {MISS_SEED})",
        ["FUTURE(auto) us/miss", "HISTORY us/miss", "window reads/miss",
         "origins examined/miss", "lock acquisitions/miss"],
    )
    table.add_row(
        f"{costs['future_auto_us_per_miss']:.0f}",
        f"{costs['history_us_per_miss']:.0f}",
        f"{costs['window_reads_per_miss']:.2f}",
        f"{costs['origins_examined_per_miss']:.2f}",
        f"{costs['lock_acquisitions_per_miss']:.2f}",
    )
    emit("\n" + table.render())


def test_forecast_report(benchmark):
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)
    if "trend" not in _results:
        pytest.skip("forecast cells did not run")
    table = Table(
        "Forecast skill - mean pinball loss (Mbps) per predictor and trace "
        f"({HORIZON:.0f}s horizon, walk-forward)",
        ["Predictor"] + [k for k in ("trend", "periodic", "flat") if k in _results],
    )
    kinds = [k for k in ("trend", "periodic", "flat") if k in _results]
    for predictor in PREDICTORS:
        table.add_row(
            predictor,
            *(f"{_results[kind][predictor] / 1e6:.2f}" for kind in kinds),
        )
    emit("\n" + table.render())

    trend = _results["trend"]
    payload = {
        "benchmark": "bench_forecast",
        "horizon_seconds": HORIZON,
        "losses_mbps": {
            kind: {p: _results[kind][p] / 1e6 for p in PREDICTORS} for kind in kinds
        },
        # Headline (higher is better): how much better the measured-skill
        # arbiter is than extrapolating the current value on a ramp.
        "trend_skill": trend["last"] / trend["auto"],
        "overhead": _results.get("overhead"),
        "miss_cost": _results.get("miss_cost"),
    }
    Path(__file__).resolve().parent.parent.joinpath("BENCH_forecast.json").write_text(
        json.dumps(payload, indent=2) + "\n"
    )
