"""Array materialisation for the vectorized query path.

The scalar ``flow_info_batch`` pipeline expands every scenario through
per-flow Python objects: ``FlowRequest`` → ``Demand`` dataclasses, dict
prunes of the capacity snapshots, per-hop ``StatMeasure`` reads for the
answer accuracy, and dict-shaped allocation results.  At 256 hosts the
allocation *solve* is a minority of the query cost — the expansion around
it dominates.  This module keeps everything that is constant for one
published snapshot as contiguous arrays, and re-expresses the whole
scenario evaluation as array kernels.

:class:`SnapshotArrays` (one per :class:`~repro.core.modeler.Modeler`,
i.e. one per published epoch) has two halves:

* the **structural** half (:class:`_RouteArrays`) — a
  :class:`~repro.fairshare.vectorized.KeySpace` interning resource keys
  to dense integer ids, per-route **incidence rows** (id arrays mirroring
  ``Modeler.resources_for_route`` tuples), per-route latency measures and
  hop counts, and the set of endpoints known to be compute nodes.  It
  depends on the routing table alone, so it is shared across
  ``Modeler.fork`` exactly when the routing table is;
* the **per-epoch** half — for each priced timeframe, the projection of
  the modeler's price memo onto those ids (:class:`_PriceArrays`): the six
  availability levels, entry-clamped as every solve would clamp them, and
  the accuracy of each resource's measure.  Slots fill lazily, under the
  fill lock, from one ``Modeler.resource_price`` read per resource per
  epoch; a query then gathers all six levels and the accuracies with one
  fancy index each.  Ids, fill lock and columns have this one owner, so
  every reader of an epoch fills the same columns through the same ids.

:func:`evaluate_flow_query` is the size-selected kernel beside the shared
scalar plan (:mod:`repro.core.plan`); ``Remos._evaluate_flow_query``
dispatches between them on :func:`vectorizable`.  The two share the same
endpoint validation (``plan.validate_endpoint``) and label-uniqueness check
raising the same ``QueryError`` texts, the same ``Flow.label`` labels and
evaluation levels (``plan.LEVELS``/``PRICED``), one counted price read per
crossed direction, the same result assembly — quartiles sorted per flow,
accuracy the worst among the priced resources, ``satisfied``/``bottleneck``
read at the median — and the same solve: the staged fixed → variable →
independent chain of :func:`repro.fairshare.vectorized.fill_stages`, one
filling run per stage over all six levels, under one ``fairshare.allocate``
span (``levels=6``).  The plan reaches it through
``StagedProblem.solve_levels``; what this evaluator saves is the plan's
per-flow objects — it interns route rows once per epoch and reads the
``(levels, resources)`` capacity block straight off the price columns.
Answers are **bit-identical** to the plan's (differentially fuzzed in
``tests/fairshare/test_vectorized_maxmin.py`` and gated in
``benchmarks/bench_ablation_scale.py``); the plan remains the oracle and
the no-numpy fallback.
"""

from __future__ import annotations

import threading
from typing import TYPE_CHECKING

from repro import obs
from repro.core.flows import Flow, FlowAnswer, FlowInfoResult, MulticastFlow
from repro.core.plan import LEVELS, PRICED, validate_endpoint
from repro.core.timeframe import Timeframe, TimeframeKind
from repro.fairshare import vectorized as _vectorized
from repro.fairshare.vectorized import HAVE_NUMPY, KeySpace
from repro.stats import StatMeasure
from repro.util.errors import QueryError

if HAVE_NUMPY:
    import numpy as np

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.modeler import Modeler


class _RouteArrays:
    """Everything derived from the routing table alone.

    Thread-safe for concurrent readers of any epoch sharing it: misses
    take ``lock`` and insert fully-built values, so lock-free hits only
    ever observe complete entries (the dict-of-immutables pattern
    ``docs/CONCURRENCY.md`` documents for the route memo).
    """

    __slots__ = ("lock", "keyspace", "rows", "static", "endpoints")

    def __init__(self):
        self.lock = threading.Lock()
        self.keyspace = KeySpace()
        #: (src, dst) -> int64 id row mirroring ``resources_for_route``.
        self.rows: dict[tuple[str, str], "np.ndarray"] = {}
        #: (src, dst) -> (latency StatMeasure, hop_count).
        self.static: dict[tuple[str, str], tuple[StatMeasure, int]] = {}
        #: Names already validated as known compute nodes.
        self.endpoints: set[str] = set()


class _PriceArrays:
    """One timeframe's price table as id-indexed columns.

    ``levels[r, i]`` is ``max(0.0, price_i.<PRICED[r]>)`` — the entry
    clamp of the scalar solve, NaN → 0.0 included — or 0.0 where
    ``present[i]`` is False (the resource constrains nothing);
    ``accuracy[i]`` is the measure's accuracy (1.0 where absent, neutral
    under ``min``); ``counted[i]`` marks the slots whose reads count as
    cache hits (a measured link direction: the price stands in for a
    series summary).  A slot means something only once ``known[i]`` is
    set, which the filler does last.  Immutable in shape: growth builds a
    new instance and swaps the owner's reference, so a reader holding one
    sees a consistent set of columns.
    """

    __slots__ = ("known", "present", "counted", "levels", "accuracy")

    def __init__(self, size: int, old: "_PriceArrays | None" = None):
        self.known = np.zeros(size, dtype=bool)
        self.present = np.zeros(size, dtype=bool)
        self.counted = np.zeros(size, dtype=bool)
        self.levels = np.zeros((len(PRICED), size), dtype=np.float64)
        self.accuracy = np.ones(size, dtype=np.float64)
        if old is not None:
            n = len(old.known)
            self.known[:n] = old.known
            self.present[:n] = old.present
            self.counted[:n] = old.counted
            self.levels[:, :n] = old.levels
            self.accuracy[:n] = old.accuracy


class SnapshotArrays:
    """Array state behind every vectorized query against one epoch.

    Built lazily by :meth:`Modeler.snapshot_arrays`; a structural change
    that replaces the routing table drops it with the route memo.  Readers
    only ever *fill* it: every slot holds what any other reader of the
    same epoch would compute.
    """

    __slots__ = ("_modeler", "_routes", "_fill_lock", "_columns")

    def __init__(self, modeler: "Modeler", routes: "_RouteArrays | None" = None):
        self._modeler = modeler
        self._routes = routes if routes is not None else _RouteArrays()
        self._fill_lock = threading.Lock()
        #: timeframe -> (the modeler's price table, its columns).  Columns
        #: project that one table: once the modeler has replaced it (stamp
        #: moved on a live view, timeframe evicted) they are rebuilt.
        self._columns: dict[Timeframe, tuple[dict, _PriceArrays]] = {}

    def fork(self, modeler: "Modeler") -> "SnapshotArrays":
        """The successor epoch's arrays: same routes, no prices yet."""
        return SnapshotArrays(modeler, self._routes)

    @property
    def keyspace(self) -> KeySpace:
        return self._routes.keyspace

    def validate_endpoints(self, flows) -> None:
        """Raise :class:`QueryError` unless every endpoint is a compute node."""
        valid = self._routes.endpoints
        topology = self._modeler.view.topology
        for flow in flows:
            for endpoint in flow.endpoints:
                if endpoint not in valid:
                    validate_endpoint(topology, endpoint)
                    valid.add(endpoint)

    def route_row(self, src: str, dst: str) -> "np.ndarray":
        """The interned id row for the (src, dst) route."""
        routes = self._routes
        key = (src, dst)
        row = routes.rows.get(key)
        if row is None:
            resources = self._modeler.resources_for_route(src, dst)
            with routes.lock:
                row = routes.rows.get(key)
                if row is None:
                    row = routes.keyspace.intern_row(resources)
                    routes.rows[key] = row
        return row

    def route_static(self, src: str, dst: str) -> tuple[StatMeasure, int]:
        """Shared latency measure + hop count for the (src, dst) route."""
        routes = self._routes
        key = (src, dst)
        entry = routes.static.get(key)
        if entry is None:
            route = self._modeler.routing.route(src, dst)
            with routes.lock:
                entry = routes.static.get(key)
                if entry is None:
                    entry = (StatMeasure.constant(route.latency), route.hop_count)
                    routes.static[key] = entry
        return entry

    def prices(self, timeframe: Timeframe, ids: "np.ndarray") -> tuple:
        """``(levels[:, ids], present[ids], accuracy)`` for sorted global *ids*.

        *accuracy* is the worst accuracy among the gathered resources'
        measures, folded from 1.0 the way the scalar per-hop running min
        folds it (NaN never wins).  Served from this epoch's columns;
        slots not priced yet are filled first, each from one
        ``resource_price`` read.
        """
        if not ids.size:
            return np.zeros((len(PRICED), 0)), np.zeros(0, dtype=bool), 1.0
        modeler = self._modeler
        measures = modeler._price_table(timeframe)
        entry = self._columns.get(timeframe)
        filled = 0
        if (
            entry is None
            or entry[0] is not measures
            or int(ids[-1]) >= len(entry[1].known)
            or not entry[1].known[ids].all()
        ):
            arrays, filled = self._fill(measures, timeframe, ids)
        else:
            arrays = entry[1]
        # One read per counted resource, as on the scalar path, less the
        # slots this query filled itself (those reads were the misses).
        served = int(arrays.counted[ids].sum()) - filled
        if served and modeler.enable_cache:
            modeler.stats.hit("bandwidth", served)
        accuracy = float(np.fmin.reduce(arrays.accuracy[ids], initial=1.0))
        return arrays.levels[:, ids], arrays.present[ids], accuracy

    def _fill(self, measures: dict, timeframe: Timeframe, ids: "np.ndarray") -> tuple:
        """Price the slots among *ids* nobody has yet: ``(columns, counted fills)``."""
        modeler = self._modeler
        keys = self._routes.keyspace.keys
        counted = timeframe.kind is not TimeframeKind.STATIC
        with self._fill_lock:
            entry = self._columns.get(timeframe)
            arrays = entry[1] if entry is not None and entry[0] is measures else None
            need = int(ids[-1]) + 1
            if arrays is None or need > len(arrays.known):
                # Every id a query can name is already interned, so sizing
                # by the keyspace (with headroom) makes growth rare.
                arrays = _PriceArrays(max(need, 2 * len(keys), 16), arrays)
            missing = ids[~arrays.known[ids]].tolist()
            priced, columns, accuracies = [], [], []
            for ident in missing:
                try:
                    price = modeler.resource_price(keys[ident], timeframe)
                except KeyError:
                    continue  # constrains nothing: stays absent
                priced.append(ident)
                columns.append(
                    [max(0.0, float(getattr(price, level))) for level in PRICED]
                )
                accuracies.append(price.accuracy)
            filled = 0
            if priced:
                arrays.levels[:, priced] = np.array(columns).T
                arrays.accuracy[priced] = accuracies
                arrays.present[priced] = True
                if counted:
                    directions = [i for i in priced if len(keys[i]) == 3]
                    arrays.counted[directions] = True
                    filled = len(directions)
            arrays.known[missing] = True  # last: the slots now mean something
            if modeler.enable_cache and (entry is None or entry[1] is not arrays):
                # Swap in a dict of only the projections of tables the modeler
                # still serves, so its timeframe cap bounds this too.
                live = modeler._prices
                kept = {tf: e for tf, e in self._columns.items() if live.get(tf) is e[0]}
                self._columns = {**kept, timeframe: (measures, arrays)}
        return arrays, filled


def vectorizable(fixed: list, variable: list, independent: list) -> bool:
    """Should this scenario run through the array evaluator?

    Yes when numpy is live, the problem is large enough for the kernels to
    win, and every flow is unicast.
    """
    total = len(fixed) + len(variable) + len(independent)
    if not _vectorized._use_vectorized(total):
        return False
    return not any(
        isinstance(flow, MulticastFlow) for flow in (*fixed, *variable, *independent)
    )


def evaluate_flow_query(
    modeler: "Modeler",
    fixed: list[Flow],
    variable: list[Flow],
    independent: list[Flow],
    timeframe: Timeframe,
) -> FlowInfoResult:
    """The array kernel for one scenario: ``plan.evaluate``'s contract.

    Same validation, same staged chaining, same spans, bit-identical
    answers; the caller dispatches here only when :func:`vectorizable`
    said yes (numpy live, unicast flows, problem large enough to win).
    """
    arrays = modeler.snapshot_arrays()
    arrays.validate_endpoints((*fixed, *variable, *independent))
    keyspace = arrays.keyspace

    classes = (
        ("fixed", fixed),
        ("variable", variable),
        ("independent", independent),
    )
    labels: dict[str, list[str]] = {}
    rows: dict[str, list] = {}
    for klass, flows in classes:
        labels[klass] = [flow.label(index, klass) for index, flow in enumerate(flows)]
        rows[klass] = [arrays.route_row(flow.src, flow.dst) for flow in flows]
    all_ids = [*labels["fixed"], *labels["variable"], *labels["independent"]]
    if len(set(all_ids)) != len(all_ids):
        raise QueryError("flow labels must be unique within a query")

    # Stage demand columns: the same weight/cap values the FlowRequest →
    # Demand chain carries (fixed: equal weight capped at the request;
    # variable: weight = relative requirement; independent: equal weight).
    stages: list[tuple[str, "_vectorized.DemandArrays"]] = []
    if fixed:
        stages.append(
            (
                "fixed",
                _vectorized.DemandArrays.from_columns(
                    np.ones(len(fixed), dtype=np.float64),
                    np.fromiter(
                        (flow.requested for flow in fixed),
                        dtype=np.float64,
                        count=len(fixed),
                    ),
                    rows["fixed"],
                    keyspace,
                ),
            )
        )
    if variable:
        stages.append(
            (
                "variable",
                _vectorized.DemandArrays.from_columns(
                    np.fromiter(
                        (
                            flow.requested if flow.requested > 0 else 1.0
                            for flow in variable
                        ),
                        dtype=np.float64,
                        count=len(variable),
                    ),
                    np.fromiter(
                        (flow.cap for flow in variable),
                        dtype=np.float64,
                        count=len(variable),
                    ),
                    rows["variable"],
                    keyspace,
                ),
            )
        )
    if independent:
        stages.append(
            (
                "independent",
                _vectorized.DemandArrays.from_columns(
                    np.ones(len(independent), dtype=np.float64),
                    np.fromiter(
                        (flow.cap for flow in independent),
                        dtype=np.float64,
                        count=len(independent),
                    ),
                    rows["independent"],
                    keyspace,
                ),
            )
        )

    stage_by_class = dict(stages)

    # The union of referenced resource ids (the scalar path's pruned key
    # set — membership only; allocation results don't depend on order).
    ref = [stage.res_ids for _, stage in stages]
    uniq = np.unique(np.concatenate(ref)) if ref else np.empty(0, dtype=np.int64)
    size = int(uniq[-1]) + 1 if uniq.size else 0

    # Every level's entry-clamped capacities, and the overall answer
    # accuracy (the worst among the directions any queried flow
    # traverses), in one read of the epoch's price table.
    levels, present, accuracy = arrays.prices(timeframe, uniq)
    present_g = np.zeros(size, dtype=bool)
    present_g[uniq] = present
    remaining = np.zeros((len(PRICED), size), dtype=np.float64)
    remaining[:, uniq] = levels

    # Solve every availability level at once through the staged pipeline:
    # one filling run per stage over the (levels, resources) block.
    with obs.span("fairshare.allocate") as sp:
        if sp:
            sp.set(
                fixed=len(fixed),
                variable=len(variable),
                independent=len(independent),
                resources=int(present.sum()),
                levels=len(PRICED),
            )
        results = _vectorized.fill_stages(
            [stage for _, stage in stages], remaining, present_g
        )
    median = PRICED.index("median")
    rates: dict[str, "np.ndarray"] = {}
    median_bottleneck: dict[str, "np.ndarray"] = {}
    median_satisfied = None
    for (klass, stage), (stage_rates, bottleneck, _) in zip(stages, results):
        rates[klass] = stage_rates
        median_bottleneck[klass] = bottleneck[median]
        if klass == "fixed":
            # A fixed demand's cap is its request.
            median_satisfied = stage_rates[median] >= stage.caps * (1.0 - 1e-9)

    def answers(klass: str, flows: list[Flow]) -> list[FlowAnswer]:
        if not flows:
            return []
        stack = rates[klass][: len(LEVELS)]
        if np.isnan(stack).any():  # pragma: no cover - NaN rates are exotic
            # Python sorted's NaN ordering differs from np.sort's; take
            # the scalar path's exact per-flow sort in that case.
            quartile_rows = [sorted(column) for column in stack.T.tolist()]
        else:
            # Columnwise ascending sort == per-flow sorted() for NaN-free
            # floats; .tolist() bulk-converts to Python floats, exactly
            # the values the scalar answer dicts carry.
            quartile_rows = np.sort(stack, axis=0).T.tolist()
        mean_rates = rates[klass][PRICED.index("mean")].tolist()
        bottleneck = median_bottleneck[klass].tolist()
        res_keys = stage_by_class[klass].res_keys
        klass_labels = labels[klass]
        fixed_klass = klass == "fixed" and median_satisfied is not None
        n_levels = len(LEVELS)
        measure = StatMeasure.presorted
        result = []
        for i, flow in enumerate(flows):
            bandwidth = measure(
                quartile_rows[i], mean_rates[i], n_levels, accuracy
            )
            latency, hop_count = arrays.route_static(flow.src, flow.dst)
            r = bottleneck[i]
            result.append(
                FlowAnswer(
                    flow=flow,
                    label=klass_labels[i],
                    bandwidth=bandwidth,
                    latency=latency,
                    hop_count=hop_count,
                    satisfied=bool(median_satisfied[i]) if fixed_klass else None,
                    bottleneck=None if r < 0 else res_keys[r],
                )
            )
        return result

    return FlowInfoResult(
        timeframe=timeframe,
        fixed=answers("fixed", fixed),
        variable=answers("variable", variable),
        independent=answers("independent", independent),
    )
