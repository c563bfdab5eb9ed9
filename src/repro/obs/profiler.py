"""A stdlib sampling wall-clock profiler emitting collapsed stacks.

A :class:`SamplingProfiler` runs one daemon thread that periodically grabs
``sys._current_frames()`` and folds every *other* thread's stack into a
``frame;frame;frame`` key (root first, innermost last, prefixed with the
thread name), counting samples per key.  The aggregate is the standard
**collapsed-stack** format::

    remos-query_0;core/api.py:flow_info;fairshare/maxmin.py:solve 42

ready for ``flamegraph.pl`` or speedscope, with no dependency beyond the
stdlib and no instrumentation of the profiled code: wall-clock sampling
sees lock waits and I/O exactly like CPU time, which is what matters for a
query service whose readers spend time waiting for their flow-query turn.

The HTTP front end exposes it at ``GET /debug/profile?seconds=N`` (one
profile at a time per process); :func:`profile` is the blocking
convenience used there and in tests.  Overhead while running is roughly
one ``sys._current_frames`` walk per interval (default 10 ms) — cheap
enough to run against a live service, zero when not running.
"""

from __future__ import annotations

import sys
import threading
import time

from repro.util.errors import ConfigurationError

#: Sampling floor: below this the sampler itself dominates the readings.
MIN_INTERVAL = 0.001


class SamplingProfiler:
    """Samples every thread's stack on a fixed interval; start/stop API."""

    def __init__(self, interval: float = 0.01, max_depth: int = 64):
        if not MIN_INTERVAL <= interval < float("inf"):  # refuses nan too
            raise ConfigurationError(
                f"sampling interval must be finite, at least {MIN_INTERVAL * 1e3:.0f}ms"
            )
        self.interval = float(interval)
        self.max_depth = int(max_depth)
        self.samples = 0
        self.started_at: float | None = None
        self.stopped_at: float | None = None
        self._counts: dict[str, int] = {}
        self._stop = threading.Event()
        self._thread: threading.Thread | None = None
        self._lock = threading.Lock()

    # -- lifecycle ---------------------------------------------------------------

    def start(self) -> "SamplingProfiler":
        if self._thread is not None:
            return self
        self._stop.clear()
        self.started_at = time.time()
        self.stopped_at = None
        self._thread = threading.Thread(
            target=self._sample_loop, name="repro-profiler", daemon=True
        )
        self._thread.start()
        return self

    def stop(self) -> "SamplingProfiler":
        """Stop sampling (idempotent); the aggregate stays readable."""
        thread = self._thread
        if thread is None:
            return self
        self._stop.set()
        thread.join(timeout=5.0)
        self._thread = None
        self.stopped_at = time.time()
        return self

    @property
    def running(self) -> bool:
        return self._thread is not None

    def __enter__(self) -> "SamplingProfiler":
        return self.start()

    def __exit__(self, exc_type, exc, tb) -> bool:
        self.stop()
        return False

    # -- sampling ----------------------------------------------------------------

    def _sample_loop(self) -> None:
        own_id = threading.get_ident()
        while not self._stop.wait(self.interval):
            self._take_sample(own_id)

    def _take_sample(self, own_id: int) -> None:
        names = {t.ident: t.name for t in threading.enumerate()}
        frames = sys._current_frames()
        folded: list[str] = []
        for thread_id, frame in frames.items():
            if thread_id == own_id:
                continue
            stack: list[str] = []
            depth = 0
            while frame is not None and depth < self.max_depth:
                code = frame.f_code
                stack.append(f"{_module_of(code.co_filename)}:{code.co_name}")
                frame = frame.f_back
                depth += 1
            stack.reverse()
            thread_name = names.get(thread_id, f"thread-{thread_id}")
            folded.append(";".join([thread_name] + stack))
        with self._lock:
            self.samples += 1
            for key in folded:
                self._counts[key] = self._counts.get(key, 0) + 1

    # -- readings ----------------------------------------------------------------

    def counts(self) -> dict[str, int]:
        """The raw ``collapsed-stack -> samples`` aggregate (a copy)."""
        with self._lock:
            return dict(self._counts)

    def collapsed(self) -> str:
        """Collapsed-stack text, hottest stacks first, one per line."""
        counts = self.counts()
        lines = [
            f"{stack} {count}"
            for stack, count in sorted(counts.items(), key=lambda kv: (-kv[1], kv[0]))
        ]
        return "\n".join(lines) + ("\n" if lines else "")

    def to_dict(self) -> dict:
        return {
            "interval": self.interval,
            "samples": self.samples,
            "stacks": len(self._counts),
            "started_at": self.started_at,
            "stopped_at": self.stopped_at,
            "running": self.running,
        }


def _module_of(filename: str) -> str:
    """A compact frame location: the last two path segments, no extension."""
    parts = filename.replace("\\", "/").rsplit("/", 2)[-2:]
    return "/".join(parts)


def profile(seconds: float, interval: float = 0.01) -> SamplingProfiler:
    """Profile the whole process for *seconds*; returns the stopped profiler.

    Blocking convenience for ``GET /debug/profile`` and scripts::

        prof = profile(2.0)
        open("out.folded", "w").write(prof.collapsed())
    """
    if seconds <= 0:
        raise ConfigurationError("profile duration must be positive")
    profiler = SamplingProfiler(interval=interval)
    with profiler:
        time.sleep(seconds)
    return profiler
