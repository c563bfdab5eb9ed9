"""Outside-in layer tracing: wrap public callables, record spans in memory.

The traced pass of the benchmark runs the server with every callable in
:data:`LAYER_BOUNDARIES` replaced by a wrapper that records one span per
call.  Nothing under ``src/`` is edited: the table names public dotted
paths and :func:`install` patches them at start-up, so a refactor that
moves a boundary shows up as an *unresolved* name (its time then falls
into the enclosing layer) instead of breaking the run.

A span is ``(layer, start_ns, end_ns, parent, trace_id)``; *parent* is the
index of the enclosing span in the same thread's list (-1 for a root) and
*trace_id* is set on request roots only.  A layer's self time is its
span's duration minus the part its child spans cover.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import threading
import time

#: The request root: its wrapper reads the trace id the client sent.
ROOT = "repro.service.app.handle_request"

#: Per-request layers: metric name -> public dotted names whose calls are
#: that layer's spans.  ``*_ms`` is mean self time per request.
REQUEST_LAYERS: dict[str, tuple[str, ...]] = {
    "service.app.self_ms": (ROOT,),
    "service.core.self_ms": (
        "repro.service.core.QueryFrontEnd.flow_info",
        "repro.service.core.QueryFrontEnd.get_graph",
        "repro.service.core.QueryFrontEnd.node_info",
    ),
    "federation.api.self_ms": ("repro.federation.api.FederatedRemos.flow_info_batch",),
    "core.api.self_ms": (
        "repro.core.api.Remos.flow_info_batch",
        "repro.core.api.Remos.get_graph",
        "repro.core.api.Remos.node_info",
    ),
    "core.modeler.price_ms": (
        "repro.core.modeler.Modeler.available_capacities",
        "repro.core.modeler.Modeler.capacity_view",
        "repro.core.modeler.Modeler.available_bandwidth",
        "repro.core.modeler.Modeler.cpu_load",
        # The lazy views price on first access, not in capacity_view().
        "repro.core.modeler.CapacityView.__getitem__",
    ),
    "core.modeler.route_ms": (
        "repro.core.modeler.Modeler.resources_for_route",
        "repro.core.modeler.Modeler.resources_for_tree",
        "repro.net.routing.RoutingTable.route",
    ),
    "core.modeler.graph_ms": ("repro.core.modeler.Modeler.logical_graph",),
    "core.evaluator.self_ms": ("repro.core.evaluator.TimeframeEvaluator.evaluate",),
    "core.snaparrays.self_ms": ("repro.core.snaparrays.evaluate_flow_query",),
    "fairshare.solve_ms": (
        "repro.fairshare.allocator.StagedProblem.solve",
        "repro.fairshare.maxmin.MaxMinProblem.solve",
        # The array evaluator in core.snaparrays calls the kernel directly.
        "repro.fairshare.vectorized.fill",
    ),
    "core.encode_ms": (
        "repro.core.flows.FlowInfoResult.to_dict",
        "repro.core.graph.RemosGraph.to_dict",
        "repro.core.api.NodeAnswer.to_dict",
    ),
}

#: Per-sweep layers (the sweeper thread): ``*_ms`` is mean self time per sweep.
SWEEP_LAYERS: dict[str, tuple[str, ...]] = {
    "sim.advance_ms": ("repro.sim.engine.Engine.run",),
    "collector.refresh_ms": ("repro.collector.cell.Cell.refresh",),
    "core.snapshot.publish_ms": ("repro.core.snapshot.SnapshotPublisher.refresh",),
    "federation.aggregator.merge_ms": ("repro.federation.aggregator.Aggregator.refresh",),
}

LAYER_BOUNDARIES = {**REQUEST_LAYERS, **SWEEP_LAYERS}


def trace_id_of(traceparent: str | None) -> str | None:
    """The 32-hex trace id of a W3C ``traceparent`` header, or None."""
    parts = (traceparent or "").split("-")
    return parts[1] if len(parts) == 4 and len(parts[1]) == 32 else None


class Recorder:
    """Per-thread span lists filled by the wrappers :meth:`wrap` makes."""

    def __init__(self):
        self._local = threading.local()
        self._lock = threading.Lock()
        self.threads: list[list] = []

    def _register(self):
        spans: list = []
        stack: list[int] = []
        self._local.spans, self._local.stack = spans, stack
        with self._lock:
            self.threads.append(spans)
        return spans, stack

    def wrap(self, layer: str, fn, is_root: bool = False):
        """*fn* recording one *layer* span per call.

        With *is_root* the call is ``handle_request(service, request)`` and
        the span carries the trace id of the request's ``traceparent``.
        """
        local, clock = self._local, time.perf_counter_ns

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                spans, stack = local.spans, local.stack
            except AttributeError:
                spans, stack = self._register()
            index = len(spans)
            spans.append(None)  # reserve the slot so children can name it
            parent = stack[-1] if stack else -1
            stack.append(index)
            trace_id = trace_id_of(args[1].header("traceparent")) if is_root else None
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[index] = (layer, start, end, parent, trace_id)

        return wrapper


def resolve(dotted: str):
    """``(owner, attribute, function)`` for a dotted public name."""
    parts = dotted.split(".")
    for cut in range(len(parts) - 1, 0, -1):
        try:
            owner = importlib.import_module(".".join(parts[:cut]))
        except ImportError:
            continue
        for name in parts[cut:-1]:
            owner = getattr(owner, name)
        fn = inspect.getattr_static(owner, parts[-1])
        if not inspect.isfunction(fn):
            raise AttributeError(f"{dotted} is not a plain function")
        return owner, parts[-1], fn
    raise ImportError(dotted)


def install(recorder: Recorder, boundaries=None) -> list[str]:
    """Patch every boundary with a recording wrapper; return unresolved names.

    A module-level function is also replaced wherever another ``repro``
    module imported it by name (``from repro.service.app import
    handle_request``), so every caller goes through the wrapper.
    """
    unresolved = []
    for layer, names in (boundaries or LAYER_BOUNDARIES).items():
        for dotted in names:
            try:
                owner, attr, fn = resolve(dotted)
            except (ImportError, AttributeError):
                unresolved.append(dotted)
                continue
            wrapper = recorder.wrap(layer, fn, is_root=dotted == ROOT)
            setattr(owner, attr, wrapper)
            if inspect.ismodule(owner):
                for name, module in list(sys.modules.items()):
                    if name.startswith("repro") and getattr(module, attr, None) is fn:
                        setattr(module, attr, wrapper)
    return unresolved


def self_times(spans: list) -> list[int]:
    """Self time (ns) of each span: duration minus direct children's durations.

    Children of one span on one thread never overlap each other, so the
    time they cover is the sum of their durations.  Unfinished spans
    (``None``) count for nothing.
    """
    selfs = [0 if span is None else span[2] - span[1] for span in spans]
    for span in spans:
        if span is not None and span[3] >= 0 and spans[span[3]] is not None:
            selfs[span[3]] -= span[2] - span[1]
    return selfs


def summarize(threads: list[list]) -> dict:
    """Fold raw spans into per-request and background layer self times.

    ``requests`` maps trace id -> ``[start_ns, end_ns, {layer: self_ns}]``
    for every tree rooted at a traced request; ``background`` lists
    ``[start_ns, {layer: self_ns}]`` for every other root (sweeper work,
    start-up), which the reader filters by its measurement window.  In a
    background tree a request layer's time counts for the sweep layer that
    encloses it: the simulator's own max-min solves are ``sim.advance_ms``,
    not ``fairshare.solve_ms``.
    """
    requests: dict[str, list] = {}
    background: list[list] = []
    for spans in threads:
        selfs = self_times(spans)
        # Per span: its tree's layer totals, the layer its self time goes
        # to, and whether the tree is a request's.
        placed: list[tuple[dict, str, bool] | None] = [None] * len(spans)
        for index, span in enumerate(spans):
            if span is None:
                continue
            layer, start, end, parent, trace_id = span
            if parent >= 0 and placed[parent] is not None:
                tree, enclosing, in_request = placed[parent]
                charged = layer if in_request or layer in SWEEP_LAYERS else enclosing
            else:
                tree, charged, in_request = {}, layer, trace_id is not None
                if in_request:
                    requests[trace_id] = [start, end, tree]
                else:
                    background.append([start, tree])
            placed[index] = (tree, charged, in_request)
            tree[charged] = tree.get(charged, 0) + selfs[index]
    return {"requests": requests, "background": background}
