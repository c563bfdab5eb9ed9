"""RemosService: the sweep scheduler and thread-safe query front end.

Two layers live here:

* :class:`QueryFrontEnd` — the *reader* side: snapshot-isolated query
  methods, the one-at-a-time flow-query turn, latency SLOs, the
  slow-query log, health and telemetry.  It owns no data source of its
  own — something else must publish snapshots through ``self.remos``.
  The multi-process worker replicas (:mod:`repro.service.workers`)
  subclass it directly.
* :class:`SweepingService` — a front end plus the background **sweeper**
  thread that owns every mutation (advance the engine, refresh, publish);
  :class:`RemosService` is the one over a single collector stack.
"""

from __future__ import annotations

import threading
import time
from concurrent.futures import Future, ThreadPoolExecutor

from repro import obs
from repro.collector import Cell, Collector, CollectorMaster
from repro.core import Flow, FlowInfoResult, FlowQuery, Remos, Timeframe
from repro.core.snapshot import Snapshot
from repro.obs.slo import SLORegistry
from repro.obs.slowlog import SlowQueryLog
from repro.service.admission import AdmissionController
from repro.sim import Engine
from repro.util.errors import ConfigurationError

_log = obs.get_logger("repro.service")


class QueryFrontEnd:
    """The thread-safe reader side of a Remos service.

    Query methods are safe to call from any number of threads; each runs
    against the snapshot current at its start (``remos.snapshot()``
    exposes it for differential testing).  Concurrent ``flow_info``
    requests evaluate one at a time (see :meth:`flow_info`).

    Subclasses provide the snapshot *source*: :class:`RemosService`
    publishes from its own sweeper thread, a worker replica publishes
    epochs received from the parent process.

    Parameters
    ----------
    source:
        Where answers come from: a :class:`Collector` (wrapped in a fresh
        Remos facade), a :class:`~repro.collector.cell.Cell` (its own
        facade is used, so the cell's epochs are the service's epochs), or
        any already-built facade exposing ``flow_info_batch`` — a
        :class:`~repro.core.api.Remos` or a
        :class:`~repro.federation.api.FederatedRemos`.
    workers:
        Thread-pool size for :meth:`flow_info_async`.
    slow_query_threshold:
        Wall-clock seconds above which a completed query is recorded in
        the slow-query log (0 records everything; see
        :class:`~repro.obs.slowlog.SlowQueryLog`).
    slow_log_capacity:
        Slow-query ring size.
    max_epoch_age:
        Freshness SLO: wall-clock seconds a published epoch may age before
        :meth:`health` (and HTTP ``/healthz``) reports the service
        unhealthy with an ``epoch_stale`` reason.
    max_sweep_seconds:
        Freshness SLO: the longest a single sweep (or epoch installation)
        may take before health degrades with a ``sweep_slow`` reason.
    admission_mode:
        Predictive admission control at the HTTP boundary: ``"off"``
        (default), ``"degrade"`` (FUTURE queries fall back to CURRENT
        under predicted overload) or ``"shed"`` (503 + ``Retry-After``).
        See :class:`~repro.service.admission.AdmissionController`.
    admission_threshold_qps:
        Predicted request rate above which the admission mode kicks in.
    admission_horizon:
        Seconds ahead the admission controller forecasts its own load.
    admission_retry_after:
        ``Retry-After`` seconds suggested to shed callers.
    """

    def __init__(
        self,
        source: Collector,
        workers: int = 4,
        slow_query_threshold: float = 0.25,
        slow_log_capacity: int = 128,
        max_epoch_age: float = 10.0,
        max_sweep_seconds: float = 5.0,
        admission_mode: str = "off",
        admission_threshold_qps: float = 200.0,
        admission_horizon: float = 5.0,
        admission_retry_after: float = 1.0,
    ):
        self._workers = workers
        #: Queries never publish: the snapshot source is the single writer.
        if isinstance(source, Cell):
            self.remos = source.remos
        elif hasattr(source, "flow_info_batch") and hasattr(source, "publisher"):
            self.remos = source  # an already-built (possibly federated) facade
        else:
            self.remos = Remos(source, auto_publish=False)
        self._executor: ThreadPoolExecutor | None = None
        self._started = False
        #: Held around every flow-query evaluation: one at a time.
        self._turn = threading.Lock()
        # Service counters (sweeper-only writers).
        self.sweeps = 0
        self.publishes = 0
        self.sweep_errors = 0
        # Request-scoped observability: slow-query forensics + declared SLOs.
        self.slowlog = SlowQueryLog(
            threshold_seconds=slow_query_threshold, capacity=slow_log_capacity
        )
        self.slos = SLORegistry()
        self.max_epoch_age = max_epoch_age
        self.max_sweep_seconds = max_sweep_seconds
        #: Predictive backpressure, consulted by the HTTP app layer.
        self.admission = AdmissionController(
            mode=admission_mode,
            threshold_qps=admission_threshold_qps,
            horizon=admission_horizon,
            retry_after=admission_retry_after,
        )
        self.slos.declare_latency("flow_info", threshold_seconds=0.5, target=0.99)
        self.slos.declare_latency("graph", threshold_seconds=0.5, target=0.99)
        self.slos.declare_latency("node", threshold_seconds=0.25, target=0.99)
        self.last_sweep_seconds: float | None = None
        # Telemetry-only sweep schedule; RemosService overwrites these.
        self._sweep_interval: float | None = None
        self._sim_step: float | None = None

    def _activate(self) -> None:
        """Register gauges/monitors and open the query thread pool.

        Called once by subclasses after the first snapshot exists and —
        in multi-process mode — strictly *after* any fork, so the worker
        never inherits a half-built executor.
        """
        self._publish_service_gauges()
        self._register_slo_monitors()
        self._executor = ThreadPoolExecutor(
            max_workers=self._workers, thread_name_prefix="remos-query"
        )
        self._started = True

    def front_end_config(self) -> dict:
        """The constructor kwargs that rebuild an equivalent front end.

        The multi-process front door uses this to give every worker
        replica the parent's forensics and freshness settings.
        """
        return {
            "workers": self._workers,
            "slow_query_threshold": self.slowlog.threshold_seconds,
            "slow_log_capacity": self.slowlog.capacity,
            "max_epoch_age": self.max_epoch_age,
            "max_sweep_seconds": self.max_sweep_seconds,
            "admission_mode": self.admission.mode,
            "admission_threshold_qps": self.admission.threshold_qps,
            "admission_horizon": self.admission.horizon,
            "admission_retry_after": self.admission.retry_after,
        }

    @property
    def running(self) -> bool:
        return self._started

    def stop(self) -> None:
        """Close the query thread pool (idempotent)."""
        if self._executor is not None:
            self._executor.shutdown(wait=True)
            self._executor = None
        self._started = False

    def _register_slo_monitors(self) -> None:
        """Declare the freshness monitors health() answers from."""
        publisher = self.remos.publisher

        def epoch_age() -> float | None:
            snapshot = publisher.current()
            return None if snapshot is None else snapshot.age_seconds()

        self.slos.add_monitor(
            "epoch_age",
            maximum=self.max_epoch_age,
            probe=epoch_age,
            reason="epoch_stale",
        )
        self.slos.add_monitor(
            "sweep_duration",
            maximum=self.max_sweep_seconds,
            probe=lambda: self.last_sweep_seconds,
            reason="sweep_slow",
        )
        self.slos.publish_gauges()

    def _publish_service_gauges(self) -> None:
        registry = obs.get_registry()
        if not obs.metrics_enabled():
            return
        publisher = self.remos.publisher
        registry.gauge(
            "remos_snapshot_age_seconds",
            help="Wall-clock seconds since the current snapshot was published",
        ).set_function(
            lambda: (
                0.0
                if publisher.current() is None
                else publisher.current().age_seconds()
            )
        )

    # -- queries (reader side) ---------------------------------------------------

    def snapshot(self) -> Snapshot:
        """The snapshot queries are currently answered from."""
        return self.remos.snapshot()

    def flow_info(
        self,
        fixed_flows: list[Flow] | None = None,
        variable_flows: list[Flow] | None = None,
        independent_flows: list[Flow] | None = None,
        timeframe: Timeframe | None = None,
    ) -> FlowInfoResult:
        """A flow query; concurrent ones evaluate one at a time.

        Evaluation is CPU-bound Python: two at once only trade the GIL
        every switch interval and both finish later (figures in
        ``docs/CONCURRENCY.md``), so each call takes its turn on one lock.

        Request-scoped observability: the whole call runs under a
        ``service.flow_info`` span stamped with ``turn_wait``, the seconds
        spent waiting for the turn.  Every completed call feeds the
        ``flow_info`` latency SLO and — above the slow-query threshold —
        the slow-query log, with the full span tree, arguments, epoch
        stamps and cache-hit profile.
        """
        timeframe = timeframe or Timeframe.current()
        query = FlowQuery(
            fixed=tuple(fixed_flows or ()),
            variable=tuple(variable_flows or ()),
            independent=tuple(independent_flows or ()),
        )
        shard = self._shard_of_query(query)
        span = obs.span("service.flow_info")
        stats = self.remos.cache_stats
        hits, misses = stats.hits, stats.misses
        started = time.perf_counter()
        error: BaseException | None = None
        try:
            with span as sp:
                with self._turn:
                    turn_wait = time.perf_counter() - started
                    result = self.remos.flow_info_batch([query], timeframe)[0]
                if sp:
                    sp.set(flows=len(query.flows), turn_wait=turn_wait)
                    if shard is not None:
                        sp.set(shard=shard)
                return result
        except BaseException as exc:
            error = exc
            raise
        finally:
            duration = time.perf_counter() - started
            self.slos.record_request("flow_info", duration)
            self._finish_query(
                "flow_info",
                duration,
                args=lambda: self._flow_args(query, timeframe),
                cache_hits=stats.hits - hits,
                cache_misses=stats.misses - misses,
                span=span,
                error=error,
                shard=shard,
            )

    def _shard_of_query(self, query: FlowQuery) -> str | None:
        """The shard a flow query lands on, for span/slowlog stamping.

        None outside federations (the facade has no shard routing);
        ``"cross"`` when the endpoints span shards or are unknown (the
        query itself will raise the precise error).
        """
        home_shard = getattr(self.remos, "home_shard", None)
        if home_shard is None:
            return None
        endpoints = (endpoint for flow in query.flows for endpoint in flow.endpoints)
        return home_shard(endpoints) or "cross"

    @staticmethod
    def _flow_args(query: FlowQuery, timeframe: Timeframe) -> dict:
        """The request arguments, JSON-ready, for slow-query forensics."""

        def specs(flows: tuple[Flow, ...]) -> list[dict]:
            out = []
            for flow in flows:
                spec = {"src": flow.src, "dst": flow.dst, "requested": flow.requested}
                if flow.cap != float("inf"):
                    spec["cap"] = flow.cap
                if flow.name:
                    spec["name"] = flow.name
                out.append(spec)
            return out

        return {
            "fixed": specs(query.fixed),
            "variable": specs(query.variable),
            "independent": specs(query.independent),
            "timeframe": str(timeframe),
        }

    def _finish_query(
        self,
        endpoint: str,
        duration: float,
        args,
        cache_hits: int,
        cache_misses: int,
        span,
        error: BaseException | None,
        shard: str | None = None,
        status: int | None = None,
    ) -> None:
        """Feed one completed query into the slow-query log.

        The one settlement path for every query endpoint (the HTTP layer
        calls it for ``/graph`` and ``/node``).  *args* is a zero-argument
        callable: the forensic record — request arguments, span tree,
        epoch stamps — is built only for a query that crossed the
        threshold; a faster one is counted and nothing else.
        """
        if duration < self.slowlog.threshold_seconds:
            self.slowlog.observe(endpoint, duration)  # count it, record nothing
            return
        args = args()
        if error is not None:
            args = {**args, "error": f"{type(error).__name__}: {error}"}
        snapshot = self.remos.publisher.current()
        tree = span.tree() if isinstance(span, obs.Span) else None
        context = obs.current_context()
        if context is not None:
            trace_id = context.trace_id
        elif isinstance(span, obs.Span):
            trace_id = span.trace_id
        else:
            trace_id = None
        self.slowlog.observe(
            endpoint,
            duration,
            trace_id=trace_id,
            args=args,
            epoch=None if snapshot is None else snapshot.epoch,
            generation=None if snapshot is None else snapshot.generation,
            structure_generation=(
                None if snapshot is None else snapshot.structure_generation
            ),
            cache_hits=cache_hits,
            cache_misses=cache_misses,
            span_tree=tree,
            shard=shard,
            status=status,
        )

    def flow_info_async(self, **kwargs) -> Future:
        """Submit :meth:`flow_info` to the service's thread pool."""
        if self._executor is None:
            raise ConfigurationError("service is not running; call start() first")
        return self._executor.submit(self.flow_info, **kwargs)

    def get_graph(self, nodes: list[str], timeframe: Timeframe | None = None):
        """Delegate to :meth:`Remos.get_graph` (snapshot-isolated)."""
        return self.remos.get_graph(nodes, timeframe)

    def node_info(self, host: str, timeframe: Timeframe | None = None):
        """Delegate to :meth:`Remos.node_info` (snapshot-isolated)."""
        return self.remos.node_info(host, timeframe)

    def check_admission(self, fixed_flows: list[Flow], timeframe: Timeframe | None = None):
        """Delegate to :meth:`Remos.check_admission` (snapshot-isolated)."""
        return self.remos.check_admission(fixed_flows, timeframe)

    # -- telemetry ---------------------------------------------------------------

    def health(self) -> dict:
        """The machine-readable health verdict behind HTTP ``/healthz``.

        ``status`` is ``"ok"``, ``"degraded"`` (a freshness monitor is
        blown — serve a 503) or ``"stopped"``; ``reasons`` lists every
        failing monitor with its reading and bound.
        """
        healthy, reasons = self.slos.health()
        if not self.running:
            healthy = False
            reasons = [
                {"monitor": "service", "healthy": False, "reason": "stopped"}
            ] + reasons
            status = "stopped"
        else:
            status = "ok" if healthy else "degraded"
        snapshot = self.remos.publisher.current()
        return {
            "status": status,
            "healthy": healthy,
            "reasons": reasons,
            "epoch": 0 if snapshot is None else snapshot.epoch,
            "epoch_age_seconds": (
                None if snapshot is None else snapshot.age_seconds()
            ),
        }

    def telemetry(self) -> dict:
        """The facade's telemetry plus service, SLO and slow-log sections."""
        report = self.remos.telemetry()
        report["slo"] = self.slos.to_dict()
        flow_queries = report["slo"]["latency"]["flow_info"]["total"]
        report["service"] = {
            "running": self.running,
            "sweeps": self.sweeps,
            "sweep_errors": self.sweep_errors,
            "publishes": self.publishes,
            # benchmarks/e2e still reads its mean_batch from these two
            # keys; both are the flow_info SLO's request count now.
            "batches_executed": flow_queries,
            "queries_batched": flow_queries,
            "sweep_interval": self._sweep_interval,
            "sim_step": self._sim_step,
            "last_sweep_seconds": self.last_sweep_seconds,
        }
        report["admission"] = self.admission.to_dict()
        slowlog = self.slowlog.to_dict(limit=0)
        slowlog.pop("records")
        report["slowlog"] = slowlog
        return report

    def metrics_text(self) -> str:
        """The Prometheus exposition of the global registry."""
        return obs.get_registry().to_prometheus()


class SweepingService(QueryFrontEnd):
    """A query front end fed by one background **sweeper** thread.

    Each iteration the sweeper advances the engine by ``sim_step`` and
    calls ``_sweep_once()``.  Subclasses supply ``_make_ready()`` (start
    the collectors, run the engine until each has a view), ``_sweep_once()``
    (fold the measurement state, publish what moved), ``_stop_collectors()``.

    Parameters
    ----------
    source, **front_end:
        As for :class:`QueryFrontEnd`.
    env:
        The simulation engine the sweeper advances.  Only the sweeper
        thread may run it.
    sweep_interval:
        Wall-clock seconds from one sweep's start to the next (> 0); a
        sweep that takes longer is followed by at least this much idle
        time, then the next start on the grid.
    sim_step:
        Simulated seconds advanced per sweeper iteration.
    """

    def __init__(
        self,
        source,
        env: Engine,
        sweep_interval: float = 0.02,
        sim_step: float = 1.0,
        **front_end,
    ):
        super().__init__(source, **front_end)
        if not sweep_interval > 0:
            raise ConfigurationError(f"sweep_interval must be > 0, got {sweep_interval!r}")
        self._env = env
        self._sweep_interval = sweep_interval
        self._sim_step = sim_step
        self._sweeper: threading.Thread | None = None
        self._prepared = False

    def prepare(self, warmup: float = 0.0):
        """Run the collectors to readiness (+ *warmup* simulated seconds)
        and publish the first snapshot — **without starting any thread**,
        so the multi-process front door can fork its workers while the
        parent is still single-threaded; :meth:`start` finishes the job
        idempotently.
        """
        if self._prepared:
            return self
        self._make_ready()
        if warmup > 0:
            self._env.run(until=self._env.now + warmup)
        self._sweep_once()
        self.publishes = self.remos.publisher.publishes
        self._prepared = True
        return self

    def start(self, warmup: float = 0.0):
        """Prepare (if not already), then start the sweeper thread."""
        if self._started:
            return self
        self.prepare(warmup)
        self._activate()
        self._stop_event = threading.Event()
        self._sweeper = threading.Thread(
            target=self._sweep_loop, name="remos-sweeper", daemon=True
        )
        self._sweeper.start()
        _log.info("service_started", sweep_interval=self._sweep_interval)
        return self

    def stop(self) -> None:
        """Stop the sweeper and the collectors (idempotent)."""
        if not self._started:
            return
        self._stop_event.set()
        if self._sweeper is not None:
            self._sweeper.join(timeout=5.0)
            self._sweeper = None
        super().stop()
        self._stop_collectors()
        self._prepared = False
        _log.info("service_stopped", sweeps=self.sweeps, publishes=self.publishes)

    def __enter__(self):
        return self.start()

    def __exit__(self, exc_type, exc, tb) -> bool:
        self.stop()
        return False

    def _sweep_loop(self) -> None:
        """The single writer: advance, merge, publish, repeat.

        Sweeps start on a grid of ``sweep_interval`` — the wait before one
        is what is left of its slot, not a whole interval on top of the
        sweep's own wall time.  A sweep that overruns its slot is followed
        by at least a whole idle interval: a sweeper that cannot keep up
        leaves readers the share of the interpreter it always did, and
        never runs back to back.
        """
        interval = self._sweep_interval
        due = time.perf_counter() + interval
        while not self._stop_event.wait(max(0.0, due - time.perf_counter())):
            started = time.perf_counter()
            try:
                self._env.run(until=self._env.now + self._sim_step)
                self._sweep_once()
                self.sweeps += 1
                self.publishes = self.remos.publisher.publishes
                obs.inc(
                    "remos_service_sweeps_total",
                    help="Sweeper iterations completed by the query service",
                )
            except Exception as exc:
                # Keep serving the last good snapshot; a broken sweep must
                # never take the readers down.
                self.sweep_errors += 1
                _log.error("sweep_failed", error=f"{type(exc).__name__}: {exc}")
            finally:
                # Sweep-duration telemetry feeds the freshness SLO monitor:
                # a sweeper that still runs but takes too long is as much a
                # staleness risk as one that died.
                elapsed = time.perf_counter() - started
                self.last_sweep_seconds = elapsed
                obs.observe(
                    "remos_sweep_seconds",
                    elapsed,
                    help="Wall-clock seconds per sweeper iteration",
                )
            # The next slot -- after an overrun, the first one a whole interval
            # past the sweep's end.
            behind = time.perf_counter() - due
            due += interval * (1 if behind < interval else int(behind / interval) + 2)


class RemosService(SweepingService):
    """A snapshot-isolated Remos query service over one collector stack.

    Each sweep refreshes the collector master (when there is one) and
    publishes the completed sweep as an immutable snapshot.

    Parameters
    ----------
    collector:
        The collector (or :class:`CollectorMaster`) to serve queries from,
        or an already-wrapped :class:`~repro.collector.cell.Cell`.  A bare
        collector is wrapped in ``Cell("root", ...)`` — a single-cell
        deployment is just a federation of one.
    env, sweep_interval, sim_step, **front_end:
        As for :class:`SweepingService`.
    """

    def __init__(self, collector: Collector, env: Engine, **kwargs):
        cell = collector if isinstance(collector, Cell) else Cell("root", collector)
        super().__init__(cell, env, **kwargs)
        self._cell = cell
        self._collector = cell.collector

    @classmethod
    def from_world(cls, world, **kwargs) -> "RemosService":
        """Build a service over a testbed :class:`~repro.testbed.World`."""
        if world.collector is None:
            raise ConfigurationError("world has no collector")
        return cls(world.collector, world.env, **kwargs)

    def _make_ready(self) -> None:
        if not self._collector.ready:
            self._env.run(until=self._collector.start())

    def _sweep_once(self) -> None:
        self._cell.refresh()

    def _stop_collectors(self) -> None:
        self._collector.stop()
