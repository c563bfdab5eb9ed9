"""Transport-agnostic HTTP application layer for the Remos service.

The asyncio server in :mod:`repro.service.aio` — alone or as the N
pre-forked workers of :mod:`repro.service.workers` — funnels every request
through :func:`handle_request` here, which owns the request-scoped
observability contract from ``docs/OBSERVABILITY.md``:

* every request runs under a :class:`~repro.obs.context.TraceContext` —
  parsed from an incoming W3C ``traceparent`` header or freshly generated
  — bound (thread-locally) for the duration of the handler, and echoed on
  **every** response as a ``traceparent`` header;
* access logs are structured ``http.access`` events (method, path,
  status, duration, trace id);
* per-endpoint latencies feed the service's SLO registry; queries over
  the slow threshold land in the slow-query log with span trees attached;
* ``/healthz`` answers **503** with machine-readable ``reasons`` when a
  freshness SLO is blown.

Handlers are synchronous (the service's query methods are thread-safe
blocking calls) and never yield, so one request is handled start to
finish on one thread whoever calls: that is what makes the thread-local
context binding correct.  The asyncio front end calls them on its loop
thread — ``/debug/profile`` alone on a second thread, because it sleeps.

The query endpoints are also the enforcement point for **predictive
admission control** (:mod:`repro.service.admission`): when the service's
forecast of its own request rate crosses the configured threshold, FUTURE
queries are degraded to CURRENT (``"timeframe_degraded": true`` in the
body, ``X-Remos-Degraded`` header) or the request is shed with **503** and
a ``Retry-After`` header, depending on the configured mode.  Health,
metrics and debug endpoints are never shed.

Client garbage is answered **400** naming the offending field — a body or
timeframe that is not a JSON object, a flow list that is not a list, a
non-string ``src``/``dst``, a non-finite number — never 500.

Every JSON body is RFC 8259 JSON: a figure with no finite value — the
bandwidth of a flow between two tasks on one node, which crosses no
resource — is ``null`` (**null = unbounded**, as ``/graph`` writes an
unbounded ``internal_bandwidth``), never ``Infinity`` or ``NaN``.

Endpoints
---------
``GET /healthz``
    Liveness plus the current snapshot epoch.  **503** with a
    machine-readable ``reasons`` list when a freshness SLO is blown
    (stale epoch, overlong sweep) — see ``QueryFrontEnd.health``.
``GET /metrics``
    Prometheus text exposition of the global registry.
``GET /telemetry``
    The combined telemetry report as JSON (with SLO + slow-log sections).
``GET /debug/slow``
    The slow-query log, newest first: span tree, args, epoch stamps and
    cache profile per record.  ``?limit=N`` caps the count.
``GET /debug/slo``
    Declared objectives: latency error budgets and freshness monitors,
    plus the predictive-admission verdict counters.
``GET /debug/profile?seconds=N``
    Run the sampling wall-clock profiler for N seconds (default 2, max
    30; ``interval`` in seconds optional, shorter than ``seconds``) and
    return collapsed stacks as ``text/plain`` — flamegraph-ready.  One
    profile at a time per process (409 otherwise).
``GET /graph?nodes=a,b,c``
    ``remos_get_graph`` over the named nodes.  Timeframe selection via
    flat query parameters mirroring the JSON spec:
    ``timeframe=static|current|history|future`` with ``window`` /
    ``horizon`` / ``predictor`` as needed
    (``/graph?nodes=a,b&timeframe=future&horizon=30&predictor=auto``).
``GET /node/<host>``
    ``node_info`` for one compute host; same timeframe parameters.
``POST /flow_info``
    Body: ``{"fixed": [...], "variable": [...], "independent": [...],
    "timeframe": {...}}`` where each flow is ``{"src", "dst",
    "requested"?, "cap"?, "name"?}`` and the timeframe is ``{"kind":
    "static"|"current"|"history"|"future", "window"?, "horizon"?,
    "predictor"?}`` (defaults to current).  The Python kwarg spellings
    ``fixed_flows``/``variable_flows``/``independent_flows`` are
    accepted as aliases.
"""

from __future__ import annotations

import json
import math
import threading
import time
from dataclasses import dataclass, field
from http import HTTPStatus
from urllib.parse import parse_qs, urlparse

from repro import obs
from repro.core import Flow, Timeframe
from repro.obs.profiler import SamplingProfiler
from repro.util.errors import ReproError

_log = obs.get_logger("repro.service.app")

#: One profile at a time per process: the sampler reads every thread.
_profile_lock = threading.Lock()

#: Longest profile a request may ask for (seconds).
MAX_PROFILE_SECONDS = 30.0


def _number(
    spec: dict, key: str, default: float | None = None, unbounded: bool = False
) -> float:
    """``spec[key]`` as a float: finite, or at most infinite if *unbounded*."""
    value = spec.get(key, default)
    try:
        number = float(value)
    except (TypeError, ValueError):
        raise ReproError(f"{key} must be a number, got {value!r}") from None
    if math.isnan(number) or (math.isinf(number) and not unbounded):
        raise ReproError(f"{key} must be finite, got {value!r}")
    return number


def _string(
    spec: dict, key: str, default: str | None = None, optional: bool = False
) -> str | None:
    """``spec[key]`` as a string (``None`` passes only if *optional*)."""
    value = spec.get(key, default)
    if isinstance(value, str) or (optional and value is None):
        return value
    raise ReproError(f"{key} must be a string, got {value!r}")


def _parse_flow(spec: dict) -> Flow:
    if not isinstance(spec, dict) or "src" not in spec or "dst" not in spec:
        raise ReproError(f"flow spec needs src and dst: {spec!r}")
    return Flow(
        src=_string(spec, "src"),
        dst=_string(spec, "dst"),
        requested=_number(spec, "requested", 1.0),
        cap=_number(spec, "cap", float("inf"), unbounded=True),
        name=_string(spec, "name", optional=True),
    )


def _parse_timeframe(spec: dict | None) -> Timeframe:
    if spec is None:
        return Timeframe.current()
    if not isinstance(spec, dict):
        raise ReproError(f"timeframe must be an object, got {spec!r}")
    kind = spec.get("kind", "current")
    if kind == "static":
        return Timeframe.static()
    if kind == "current":
        return Timeframe.current()
    if kind == "history":
        return Timeframe.history(_number(spec, "window"))
    if kind == "future":
        return Timeframe.future(
            _number(spec, "horizon"),
            predictor=_string(spec, "predictor", "ewma"),
            window=_number(spec, "window", 60.0),
        )
    raise ReproError(f"unknown timeframe kind {kind!r}")


def _timeframe_from_params(params: dict) -> Timeframe | None:
    """The timeframe encoded in GET query parameters, or None.

    Mirrors the POST JSON spec with flat parameters: ``?timeframe=future``
    selects the kind, ``window`` / ``horizon`` / ``predictor`` fill in the
    rest (``/node/h3?timeframe=future&horizon=30&predictor=auto``).
    """
    kind = params.get("timeframe", [None])[0]
    if kind is None:
        return None
    spec = {"kind": kind}
    for key in ("window", "horizon", "predictor"):
        value = params.get(key, [None])[0]
        if value is not None:
            spec[key] = value
    return _parse_timeframe(spec)


def _endpoint_name(method: str, path: str) -> str:
    """The SLO/metric label for a request path (bounded cardinality)."""
    if path.startswith("/node/"):
        return "node"
    known = {
        "/healthz": "healthz",
        "/metrics": "metrics",
        "/telemetry": "telemetry",
        "/graph": "graph",
        "/flow_info": "flow_info",
        "/debug/slow": "debug_slow",
        "/debug/slo": "debug_slo",
        "/debug/profile": "debug_profile",
    }
    return known.get(path, "other")


@dataclass
class Request:
    """One parsed HTTP request, as the transports hand it over."""

    method: str
    target: str  #: the raw request target (path + optional ?query)
    headers: dict[str, str] = field(default_factory=dict)  #: lower-cased names
    body: bytes = b""
    client: str = ""

    def header(self, name: str, default: str | None = None) -> str | None:
        return self.headers.get(name.lower(), default)


def _finite(value):
    """*value* with every non-finite float replaced by ``None``."""
    if isinstance(value, float):
        return value if math.isfinite(value) else None
    if isinstance(value, dict):
        return {key: _finite(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [_finite(item) for item in value]
    return value


@dataclass
class Response:
    """One response for the transports to serialise."""

    status: int
    body: bytes
    content_type: str
    traceparent: str | None = None
    headers: dict[str, str] = field(default_factory=dict)  #: extra headers

    @property
    def reason(self) -> str:
        try:
            return HTTPStatus(self.status).phrase
        except ValueError:
            return ""

    @classmethod
    def text(cls, status: int, body: str, content_type: str) -> "Response":
        return cls(status, body.encode("utf-8"), content_type)

    @classmethod
    def json(cls, status: int, data) -> "Response":
        # Compact on the wire: any ``indent`` forces the pure-Python
        # encoder (~2x the time) and pads the body by ~40%.  Humans read
        # these through the CLI, which indents its own output.
        try:
            body = json.dumps(data, separators=(",", ":"), allow_nan=False)
        except ValueError:
            # ``Infinity``/``NaN`` are not JSON (RFC 8259) and strict
            # parsers refuse the whole body.  Only then pay for a copy:
            # an unbounded figure (a flow between two tasks on one node
            # crosses no resource) goes out as ``null``, as in /graph.
            body = json.dumps(_finite(data), separators=(",", ":"), allow_nan=False)
        return cls.text(status, body, "application/json")

    @classmethod
    def error(cls, status: int, error: BaseException) -> "Response":
        return cls.json(status, {"error": f"{type(error).__name__}: {error}"})


def sleeps(request: Request) -> bool:
    """Whether :func:`handle_request` will sleep on *request* by design.

    True for ``GET /debug/profile`` alone, by the parse the router uses
    (absolute-form, ``;params`` and ``#fragment`` targets route there
    too).  A transport that answers on its event loop asks this first.
    """
    return request.method == "GET" and urlparse(request.target).path == "/debug/profile"


def handle_request(service, request: Request) -> Response:
    """Answer one request: bind a trace, route, settle the SLO accounts.

    Never raises — handler errors become 400 (:class:`ReproError`,
    ``ValueError``, ``KeyError``) or 500 JSON bodies, and every response
    (including errors) carries the request's ``traceparent``.
    """
    parent = obs.parse_traceparent(request.header("traceparent"))
    context = parent.child() if parent else obs.TraceContext.generate()
    started = time.perf_counter()
    url = urlparse(request.target)
    endpoint = _endpoint_name(request.method, url.path)
    with obs.bind_context(context):
        try:
            if request.method == "GET":
                response = _route_get(service, url, request)
            elif request.method == "POST":
                response = _route_post(service, url, request)
            else:
                response = Response.json(
                    405, {"error": f"method {request.method} not allowed"}
                )
        except ReproError as error:
            response = Response.error(400, error)
        except (ValueError, KeyError) as error:
            response = Response.error(400, error)
        except Exception as error:  # defensive: keep the server alive
            response = Response.error(500, error)
        finally:
            # flow_info settles its own SLO inside the service (which owns
            # the richer record); everything else is settled here at the
            # HTTP boundary.
            if endpoint != "flow_info":
                service.slos.record_request(
                    endpoint, time.perf_counter() - started
                )
        response.traceparent = context.to_traceparent()
        _log.info(
            "http.access",
            method=request.method,
            path=request.target,
            status=response.status,
            client=request.client,
            duration=round(time.perf_counter() - started, 6),
        )
    return response


def _observed_query(service, endpoint: str, args: dict, run) -> Response:
    """Run a query endpoint under a span; slow-log it if it crawled."""
    span = obs.span(f"http.{endpoint}")
    stats = service.remos.cache_stats
    hits, misses = stats.hits, stats.misses
    started = time.perf_counter()
    response: Response | None = None
    error: BaseException | None = None
    try:
        with span:
            response = run()
            return response
    except BaseException as exc:
        error = exc
        raise
    finally:
        service._finish_query(
            endpoint,
            time.perf_counter() - started,
            args=lambda: args,
            cache_hits=stats.hits - hits,
            cache_misses=stats.misses - misses,
            span=span,
            error=error,
            status=None if response is None else response.status,
        )


def _admit(service, endpoint: str, timeframe: Timeframe | None):
    """Consult predictive admission for one query request.

    Returns ``(shed_response, timeframe, degraded)``: a ready 503 when the
    request is shed (the caller returns it as-is), otherwise the — possibly
    degraded — timeframe to answer with.
    """
    controller = getattr(service, "admission", None)
    if controller is None:
        return None, timeframe, False
    decision = controller.admit(endpoint, timeframe)
    if decision.action == "shed":
        response = Response.json(
            503,
            {
                "error": "overloaded: query shed by predictive admission",
                "predicted_qps": round(decision.predicted_qps, 3),
                "retry_after": decision.retry_after,
            },
        )
        response.headers["Retry-After"] = decision.retry_after_header
        return response, timeframe, False
    if decision.action == "degrade":
        return None, decision.timeframe, True
    return None, timeframe, False


def _query_args(args: dict, timeframe: Timeframe | None, degraded: bool) -> dict:
    """Slow-log arguments with the *effective* timeframe echoed."""
    if timeframe is not None:
        args["timeframe"] = str(timeframe)
    if degraded:
        args["degraded"] = True
    return args


def _query_response(payload: dict, degraded: bool) -> Response:
    """A 200 answer, stamped when admission degraded its timeframe."""
    if degraded:
        payload["timeframe_degraded"] = True
    response = Response.json(200, payload)
    if degraded:
        response.headers["X-Remos-Degraded"] = "future->current"
    return response


def _route_get(service, url, request: Request) -> Response:
    params = parse_qs(url.query)
    if url.path == "/healthz":
        health = service.health()
        return Response.json(200 if health["healthy"] else 503, health)
    if url.path == "/metrics":
        return Response.text(
            200,
            service.metrics_text(),
            "text/plain; version=0.0.4; charset=utf-8",
        )
    if url.path == "/telemetry":
        return Response.json(200, service.telemetry())
    if url.path == "/debug/slow":
        limit = params.get("limit", [None])[0]
        return Response.json(
            200,
            service.slowlog.to_dict(limit=None if limit is None else int(limit)),
        )
    if url.path == "/debug/slo":
        report = service.slos.to_dict()
        controller = getattr(service, "admission", None)
        if controller is not None:
            # Shed load is spent error budget: surface the admission
            # verdicts next to the latency/freshness SLOs they protect.
            report["admission"] = controller.to_dict()
        return Response.json(200, report)
    if url.path == "/debug/profile":
        return _route_profile(params)
    if url.path == "/graph":
        nodes = [
            name
            for chunk in params.get("nodes", [])
            for name in chunk.split(",")
            if name
        ]
        timeframe = _timeframe_from_params(params)
        shed, timeframe, degraded = _admit(service, "graph", timeframe)
        if shed is not None:
            return shed
        return _observed_query(
            service,
            "graph",
            _query_args({"nodes": nodes}, timeframe, degraded),
            lambda: _query_response(
                service.get_graph(nodes, timeframe).to_dict(), degraded
            ),
        )
    if url.path.startswith("/node/"):
        host = url.path[len("/node/") :]
        timeframe = _timeframe_from_params(params)
        shed, timeframe, degraded = _admit(service, "node", timeframe)
        if shed is not None:
            return shed
        return _observed_query(
            service,
            "node",
            _query_args({"host": host}, timeframe, degraded),
            lambda: _query_response(
                service.node_info(host, timeframe).to_dict(), degraded
            ),
        )
    return Response.json(404, {"error": f"no such path {url.path!r}"})


def _route_profile(params: dict) -> Response:
    """``/debug/profile?seconds=N&interval=S`` — collapsed stacks."""
    seconds = float(params.get("seconds", ["2"])[0])
    interval = float(params.get("interval", ["0.01"])[0])
    if not 0.0 < seconds <= MAX_PROFILE_SECONDS:
        raise ReproError(
            f"seconds must be in (0, {MAX_PROFILE_SECONDS:g}], got {seconds:g}"
        )
    if not interval < seconds:  # no sample would be taken (refuses nan too)
        raise ReproError(
            f"interval must be shorter than seconds ({seconds:g}), got {interval:g}"
        )
    if not _profile_lock.acquire(blocking=False):
        return Response.json(409, {"error": "a profile is already running"})
    try:
        profiler = SamplingProfiler(interval=interval)
        with profiler:
            time.sleep(seconds)
        _log.info(
            "profile_complete",
            seconds=seconds,
            samples=profiler.samples,
            stacks=len(profiler.counts()),
        )
        return Response.text(200, profiler.collapsed(), "text/plain; charset=utf-8")
    finally:
        _profile_lock.release()


def _route_post(service, url, request: Request) -> Response:
    body = json.loads(request.body.decode("utf-8") or "{}")
    if url.path == "/flow_info":
        if not isinstance(body, dict):
            raise ReproError(f"request body must be a JSON object, got {body!r}")

        # Accept both the short key and the Python kwarg name
        # ("variable" / "variable_flows", etc.).
        def flows(key: str) -> list[Flow]:
            specs = body.get(key, body.get(f"{key}_flows", []))
            if not isinstance(specs, list):
                raise ReproError(f"{key} must be a list of flow specs, got {specs!r}")
            return [_parse_flow(f) for f in specs]

        timeframe = _parse_timeframe(body.get("timeframe"))
        shed, timeframe, degraded = _admit(service, "flow_info", timeframe)
        if shed is not None:
            return shed
        result = service.flow_info(
            fixed_flows=flows("fixed"),
            variable_flows=flows("variable"),
            independent_flows=flows("independent"),
            timeframe=timeframe,
        )
        return _query_response(result.to_dict(), degraded)
    return Response.json(404, {"error": f"no such path {url.path!r}"})
