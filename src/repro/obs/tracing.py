"""Per-query tracing: nested spans over the collector→modeler→query pipeline.

A :class:`Span` is one timed stage (``query.flow_info``,
``fairshare.allocate``, ``collector.sweep``, …) carrying attributes such as
the view generation or flow count.  Spans nest: whichever span is entered
while another is open becomes its child, so one query produces a tree
rooted at the public API call — the *query id* is the root's ``trace_id``.

The :class:`Tracer` keeps the most recent completed traces in a bounded
deque and, when bound to a :class:`~repro.obs.metrics.MetricsRegistry`,
feeds every span's duration into a per-stage latency histogram
(``remos_stage_seconds{stage=...}``) — that is where the per-stage quartile
summaries in ``repro stats`` come from.

Every instrumented query runs synchronously on the thread that issued it,
so the "current span" is **thread-local**: each reader thread of the
concurrent query service nests its own spans without observing anyone
else's (see ``docs/CONCURRENCY.md``).  The one instrumented stage that
yields to the simulation engine mid-span (``collector.sweep``) is opened
``detached`` so it never corrupts the nesting of spans opened by
interleaved processes.
"""

from __future__ import annotations

import threading
import time
from collections import deque

from repro.obs.context import current_context
from repro.obs.metrics import Histogram, MetricsRegistry

#: Name of the per-stage latency histogram fed by finished spans.
STAGE_HISTOGRAM = "remos_stage_seconds"


class _NoopSpan:
    """Shared do-nothing span returned whenever tracing is disabled.

    ``__enter__`` returns ``None`` so call sites can guard attribute
    recording with ``if sp:`` and pay nothing on the disabled path.
    """

    __slots__ = ()

    def __enter__(self):
        return None

    def __exit__(self, exc_type, exc, tb):
        return False

    def set(self, **attributes) -> None:
        pass


NOOP_SPAN = _NoopSpan()


class Span:
    """One timed, attributed stage of a trace (a context manager)."""

    __slots__ = (
        "name",
        "trace_id",
        "span_id",
        "parent_id",
        "start",
        "end",
        "attributes",
        "error",
        "_tracer",
        "_prev",
        "_root",
        "_detached",
        "spans",
    )

    def __init__(
        self,
        tracer: "Tracer",
        name: str,
        trace_id: str,
        span_id: str,
        parent_id: str | None,
        root: "Span | None",
        detached: bool,
    ):
        self.name = name
        self.trace_id = trace_id
        self.span_id = span_id
        self.parent_id = parent_id
        self.start = 0.0
        self.end: float | None = None
        self.attributes: dict = {}
        self.error: str | None = None
        self._tracer = tracer
        self._prev: Span | None = None
        self._root = root if root is not None else self
        self._detached = detached
        #: On root spans only: every finished span of the trace, in finish
        #: order (children before parents, root last).
        self.spans: list[Span] = [] if root is None else root.spans

    # -- lifecycle ---------------------------------------------------------------

    def __enter__(self) -> "Span":
        if not self._detached:
            self._prev = self._tracer._current
            self._tracer._current = self
        self.start = self._tracer._clock()
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        if exc is not None:
            self.error = f"{exc_type.__name__}: {exc}"
        self.finish()
        return False

    def finish(self) -> None:
        """Stamp the end time and hand the span back to the tracer."""
        if self.end is not None:
            return
        self.end = self._tracer._clock()
        if not self._detached:
            self._tracer._current = self._prev
        self._tracer._finished(self)

    # -- recording ---------------------------------------------------------------

    def set(self, **attributes) -> None:
        """Attach attributes (generation, flow count, cache hits, …)."""
        self.attributes.update(attributes)

    # -- readings ----------------------------------------------------------------

    @property
    def duration(self) -> float:
        """Wall-clock seconds from enter to finish (so-far if unfinished)."""
        end = self.end if self.end is not None else self._tracer._clock()
        return end - self.start

    @property
    def is_root(self) -> bool:
        return self.parent_id is None

    def children(self) -> list["Span"]:
        """Direct children, in finish order (requires a finished trace)."""
        return [s for s in self._root.spans if s.parent_id == self.span_id]

    def to_dict(self) -> dict:
        """Plain-data form for JSON export."""
        return {
            "name": self.name,
            "trace_id": self.trace_id,
            "span_id": self.span_id,
            "parent_id": self.parent_id,
            "duration": self.duration,
            "attributes": dict(self.attributes),
            "error": self.error,
        }

    def tree(self) -> dict:
        """Nested plain-data form rooted at this span."""
        node = self.to_dict()
        node["children"] = [child.tree() for child in self.children()]
        return node

    def format_tree(self, indent: int = 0) -> str:
        """Human-readable indented rendering of the span tree."""
        attrs = " ".join(f"{k}={v}" for k, v in sorted(self.attributes.items()))
        line = "  " * indent + f"{self.name} {self.duration * 1e3:.3f}ms"
        if attrs:
            line += f" [{attrs}]"
        lines = [line]
        for child in self.children():
            lines.append(child.format_tree(indent + 1))
        return "\n".join(lines)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Span {self.name!r} trace={self.trace_id} {self.duration * 1e3:.3f}ms>"


class Tracer:
    """Creates spans, tracks nesting, and retains finished traces."""

    def __init__(
        self,
        registry: MetricsRegistry | None = None,
        max_traces: int = 64,
        clock=time.perf_counter,
    ):
        self._registry = registry
        self._clock = clock
        # Span nesting is per reader thread; ids and retention are global.
        self._local = threading.local()
        self._seq_lock = threading.Lock()
        self._trace_seq = 0
        self._span_seq = 0
        self.traces: deque[Span] = deque(maxlen=max_traces)
        self.spans_finished = 0
        self._stage_histograms: dict[str, Histogram] = {}

    @property
    def _current(self) -> Span | None:
        return getattr(self._local, "span", None)

    @_current.setter
    def _current(self, span: "Span | None") -> None:
        self._local.span = span

    def span(self, name: str, root: bool = False, detached: bool = False) -> Span:
        """Open a span (use as a context manager).

        ``root=True`` starts a fresh trace even when a span is currently
        open; ``detached`` additionally keeps the span out of the
        current-span slot so code that yields control mid-span (collector
        processes) cannot corrupt the nesting of interleaved traces.
        Detached spans are always trace roots.

        A trace root opened while a request :class:`TraceContext` is bound
        to the thread (:func:`repro.obs.context.bind_context`) adopts the
        bound *trace id* instead of minting a sequential ``q-NNNNNN`` one,
        so every span of the request correlates with its log lines and
        ``traceparent`` header on one id.  Detached spans never adopt: a
        collector sweep is not part of whichever request it interleaves.
        """
        parent = None if (root or detached) else self._current
        with self._seq_lock:
            if parent is None:
                bound = None if detached else current_context()
                if bound is not None:
                    trace_id = bound.trace_id
                else:
                    self._trace_seq += 1
                    trace_id = f"q-{self._trace_seq:06d}"
            else:
                trace_id = parent.trace_id
            self._span_seq += 1
            span_id = f"s-{self._span_seq:06d}"
        return Span(
            tracer=self,
            name=name,
            trace_id=trace_id,
            span_id=span_id,
            parent_id=parent.span_id if parent is not None else None,
            root=parent._root if parent is not None else None,
            detached=detached,
        )

    @property
    def current_span(self) -> Span | None:
        """The innermost open (non-detached) span, if any."""
        return self._current

    def _finished(self, span: Span) -> None:
        span._root.spans.append(span)
        with self._seq_lock:
            self.spans_finished += 1
            if span.is_root:
                self.traces.append(span)
            histogram = self._stage_histograms.get(span.name)
            if histogram is None and self._registry is not None:
                histogram = self._registry.histogram(
                    STAGE_HISTOGRAM,
                    labels={"stage": span.name},
                    help="Wall-clock seconds per pipeline stage (span durations)",
                )
                self._stage_histograms[span.name] = histogram
        if histogram is not None:
            histogram.observe(span.duration)

    def last_trace(self, name: str | None = None) -> Span | None:
        """The most recent finished trace (optionally by root span name)."""
        for trace in reversed(self.traces):
            if name is None or trace.name == name:
                return trace
        return None

    def reset(self) -> None:
        """Drop retained traces and nesting state (tests/benchmarks)."""
        self._current = None
        self.traces.clear()
        self.spans_finished = 0
        self._stage_histograms.clear()
