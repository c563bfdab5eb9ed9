"""The sweeper starts its sweeps on a grid of ``sweep_interval``.

The configured interval is start-to-start, not a sleep added to each
sweep's own wall time; a sweep that overruns its slot is followed by at
least one whole idle interval — it never runs back to back.
"""

import statistics
import time

import pytest

from repro.service import RemosService
from repro.testbed import build_cmu_testbed
from repro.util.errors import ConfigurationError


class SlowSweeps(RemosService):
    """A service whose every sweep takes *sweep_seconds* longer, timed."""

    def __init__(self, *args, sweep_seconds: float, **kwargs):
        super().__init__(*args, **kwargs)
        self.sweep_seconds = sweep_seconds
        self.spans: list[tuple[float, float]] = []

    def _sweep_once(self) -> None:
        started = time.perf_counter()
        time.sleep(self.sweep_seconds)
        super()._sweep_once()
        self.spans.append((started, time.perf_counter()))


def run_for(seconds: float, **kwargs) -> list[tuple[float, float]]:
    """The (start, end) of every sweep made in *seconds* of wall time."""
    world = build_cmu_testbed(poll_interval=0.5)
    service = SlowSweeps(world.collector, world.env, sim_step=0.01, **kwargs)
    service.start(warmup=2.0)
    first = len(service.spans)  # prepare() sweeps once before the thread starts
    try:
        time.sleep(seconds)
    finally:
        service.stop()
    return service.spans[first:]


def starts_apart(spans) -> list[float]:
    starts = [start for start, _ in spans]
    return [later - earlier for earlier, later in zip(starts, starts[1:])]


def test_a_sweep_shorter_than_the_interval_runs_at_the_configured_rate():
    spans = run_for(1.0, sweep_interval=0.05, sweep_seconds=0.03)
    apart = starts_apart(spans)
    # Sleeping a whole interval after each sweep made it 80 ms (and ~12 sweeps).
    assert 0.045 < statistics.median(apart) < 0.065
    assert len(spans) <= 21


def test_an_overrunning_sweep_is_followed_by_a_whole_idle_interval():
    spans = run_for(1.5, sweep_interval=0.05, sweep_seconds=0.07)
    apart = starts_apart(spans)
    # Ends 70 ms into the grid, idles to the first slot at least 50 ms on:
    # three slots a sweep — not 70 ms (back to back), not 100 ms (a 30 ms
    # gap), not 120 ms (off the grid: sweep + interval).
    assert 0.135 < statistics.median(apart) < 0.17
    idle = [start - end for (_, end), (start, _) in zip(spans, spans[1:])]
    assert min(idle) >= 0.045


def test_stop_returns_within_one_interval():
    world = build_cmu_testbed(poll_interval=0.5)
    service = RemosService.from_world(world, sweep_interval=0.5)
    service.start(warmup=2.0)
    time.sleep(0.05)
    started = time.perf_counter()
    service.stop()
    assert time.perf_counter() - started < 0.5


def test_a_non_positive_interval_is_refused():
    world = build_cmu_testbed(poll_interval=0.5)
    with pytest.raises(ConfigurationError, match="sweep_interval"):
        RemosService.from_world(world, sweep_interval=0.0)
