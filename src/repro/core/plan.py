"""The flow-query plan: resolve → price → allocate → annotate, written once.

The paper specifies one flow query (§4.2): fixed flows are satisfied first,
variable flows share the remainder proportionally, independent flows absorb
the rest, and — network state being uncertain — the allocation is read at
the five availability quartiles plus the mean.  :func:`evaluate` is that
query as four plain stages over two callables the facade supplies:

* ``resolve(flow) -> Footprint`` — validate the flow's endpoints and name
  the resource keys it crosses, with its path latency and hop count;
* ``price(key) -> StatMeasure | None`` — what a crossed resource offers
  for the query's timeframe, or None when it constrains nothing.  Called
  once per crossed resource: all six levels and the accuracy come from
  that one measure.

:class:`~repro.core.api.Remos` supplies a :class:`LocalSource` over the
modeler it pinned; ``FederatedRemos`` supplies its query pin, which
resolves through the owning shards' local sources and prices summary
edges itself.  :func:`admission` is the guaranteed-service twin
(resolve → median price → ``admission_report``).

The allocate stage is one ``StagedProblem.solve_levels`` call over the six
capacity rows: from ``MIN_DEMANDS`` (12) flows up it is one filling run
per stage over all six levels and one ``fairshare.allocate`` span
(``levels=6``) — every large cross-shard and multicast scenario — and
below that six level-by-level solves, one span each.  The array evaluator
in :mod:`repro.core.snaparrays` answers large all-unicast single-cell
scenarios with the same labels, the same checks, the same staged kernel
chain and bit-identical results, skipping this module's per-flow objects;
``Remos`` dispatches between the two.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, Hashable, NamedTuple, Sequence

from repro.core.flows import Flow, FlowAnswer, FlowInfoResult, MulticastFlow
from repro.core.timeframe import Timeframe
from repro.fairshare import FlowRequest, StagedProblem, admission_report
from repro.fairshare.admission import AdmissionReport
from repro.stats import StatMeasure
from repro.util.errors import QueryError

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.modeler import Modeler

#: Quantiles at which flow allocations are evaluated, pessimistic first.
LEVELS = ("minimum", "q1", "median", "q3", "maximum")
#: Every level an allocation is solved at.
PRICED = (*LEVELS, "mean")


class Footprint(NamedTuple):
    """What one flow (or one route segment of it) crosses."""

    resources: tuple[Hashable, ...]
    latency: float
    hop_count: int


Resolver = Callable[[Flow], Footprint]
Pricer = Callable[[Hashable], "StatMeasure | None"]


def validate_endpoint(topology, endpoint: str) -> None:
    """Raise :class:`QueryError` unless *endpoint* is a known compute node."""
    if not topology.has_node(endpoint):
        raise QueryError(f"unknown flow endpoint {endpoint!r}")
    if not topology.node(endpoint).is_compute:
        raise QueryError(f"flow endpoints must be compute nodes; {endpoint!r} is not")


class LocalSource:
    """Resolver and pricer over one pinned :class:`Modeler`.

    Holding the modeler (one published epoch) for the whole query keeps an
    answer from straddling generations when a sweep publishes mid-query.
    """

    __slots__ = ("modeler", "timeframe")

    def __init__(self, modeler: "Modeler", timeframe: Timeframe):
        self.modeler = modeler
        self.timeframe = timeframe

    def validate(self, endpoint: str) -> None:
        validate_endpoint(self.modeler.view.topology, endpoint)

    def segment(self, src: str, dst: str) -> Footprint:
        """The routed *src* → *dst* segment between any two nodes — flow
        endpoints, or a border gateway on a cross-shard flow's way."""
        modeler = self.modeler
        resources = modeler.resources_for_route(src, dst)
        route = modeler.routing.route(src, dst)
        return Footprint(resources, route.latency, route.hop_count)

    def resolve(self, flow) -> Footprint:
        for endpoint in flow.endpoints:
            self.validate(endpoint)
        if isinstance(flow, MulticastFlow):
            modeler, dsts = self.modeler, list(flow.dsts)
            resources = modeler.resources_for_tree(flow.src, dsts)
            tree = modeler.routing.multicast_tree(flow.src, dsts)
            return Footprint(resources, tree.max_latency, len(tree.hops))
        return self.segment(flow.src, flow.dst)

    def price(self, key: Hashable) -> "StatMeasure | None":
        try:
            return self.modeler.resource_price(key, self.timeframe)
        except KeyError:
            return None  # infinite crossbar, unknown resource: unconstrained


def _requests(
    resolve: Resolver, flows: Sequence[Flow], klass: str, footprints: dict
) -> list[FlowRequest]:
    """Resolve one flow class; *footprints* collects each label's footprint."""
    requests = []
    for index, flow in enumerate(flows):
        label = flow.label(index, klass)
        footprint = footprints[label] = resolve(flow)
        requests.append(
            FlowRequest(
                flow_id=label,
                resources=footprint.resources,
                requested=flow.requested,
                cap=flow.cap,
            )
        )
    return requests


def _prices(price: Pricer, keys) -> dict[Hashable, StatMeasure]:
    """One ``price`` read per crossed resource; unconstrained ones left out."""
    prices = {}
    for key in keys:
        measure = price(key)
        if measure is not None:
            prices[key] = measure
    return prices


def evaluate(
    resolve: Resolver,
    price: Pricer,
    fixed: Sequence[Flow],
    variable: Sequence[Flow],
    independent: Sequence[Flow],
    timeframe: Timeframe,
) -> FlowInfoResult:
    """One scenario's answer: the three-stage allocation at every level."""
    # -- resolve ------------------------------------------------------------
    classes = (("fixed", fixed), ("variable", variable), ("independent", independent))
    footprints: dict[str, Footprint] = {}
    requests = {
        klass: _requests(resolve, flows, klass, footprints) for klass, flows in classes
    }
    if len(footprints) != len(fixed) + len(variable) + len(independent):
        raise QueryError("flow labels must be unique within a query")

    # -- price --------------------------------------------------------------
    # Only the crossed resources: uncrossed ones never influence a max-min
    # allocation.  The answer is as accurate as the worst measure it read.
    problem = StagedProblem(**requests)
    prices = _prices(price, problem.resource_keys())
    accuracy = min((measure.accuracy for measure in prices.values()), default=1.0)

    # -- allocate -----------------------------------------------------------
    # Every level in one call: one filling run per stage over all six from
    # MIN_DEMANDS flows up, level by level below.
    allocations = problem.solve_levels(
        [
            {key: getattr(measure, level) for key, measure in prices.items()}
            for level in PRICED
        ]
    )
    rates = {level: allocation.rates for level, allocation in zip(PRICED, allocations)}
    median = allocations[PRICED.index("median")]

    # -- annotate -----------------------------------------------------------
    def answers(klass: str, flows: Sequence[Flow]) -> list[FlowAnswer]:
        result = []
        for flow, request in zip(flows, requests[klass]):
            label = request.flow_id
            footprint = footprints[label]
            # Rates at rising availability quantiles are monotone in all
            # common cases; sorting guards the rare multi-bottleneck
            # exception so the StatMeasure invariant always holds.
            quartiles = sorted(rates[level][label] for level in LEVELS)
            result.append(
                FlowAnswer(
                    flow=flow,
                    label=label,
                    bandwidth=StatMeasure(
                        *quartiles,
                        mean=rates["mean"][label],
                        n_samples=len(LEVELS),
                        accuracy=accuracy,
                    ),
                    latency=StatMeasure.constant(footprint.latency),
                    hop_count=footprint.hop_count,
                    satisfied=median.satisfied.get(label) if klass == "fixed" else None,
                    bottleneck=median.bottlenecks.get(label),
                )
            )
        return result

    return FlowInfoResult(
        timeframe=timeframe,
        fixed=answers("fixed", fixed),
        variable=answers("variable", variable),
        independent=answers("independent", independent),
    )


def admission(
    resolve: Resolver, price: Pricer, fixed_flows: Sequence[Flow]
) -> AdmissionReport:
    """Would these fixed flows fit at once, at median availability?

    Reads only the resources the flows cross, so the check stays
    flow-sized on arbitrarily large networks.
    """
    requests = _requests(resolve, fixed_flows, "fixed", {})
    crossed = dict.fromkeys(key for request in requests for key in request.resources)
    capacities = {key: m.median for key, m in _prices(price, crossed).items()}
    return admission_report(capacities, requests)
