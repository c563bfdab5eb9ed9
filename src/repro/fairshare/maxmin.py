"""Weighted, demand-capped max-min fair allocation by progressive filling.

The classic water-filling algorithm: raise every unfrozen flow's rate at a
speed proportional to its weight until either (a) some resource saturates —
all flows crossing it freeze at their current rate — or (b) a flow reaches
its demand cap and freezes there.  Repeat until every flow is frozen.

The result is the unique allocation in which no flow's rate can be raised
without lowering the rate of another flow with an equal-or-smaller
weighted rate (max-min fairness, Jaffe 1981; see also Hahne 1991 for the
round-robin realisation the paper cites).

Implementation notes (scalable filling loop)
--------------------------------------------
The naive loop rebuilds the resource→weight-sum "pressure" index from every
active flow on every iteration, costing O(active flows × resources) per
filling step.  This module instead keeps the weight sums incrementally:

* per-resource weight sums are built once from the initial active set and,
  when flows freeze, recomputed only for the resources those flows cross
  (``crossing[r]`` is iterated in original demand order, so the float
  addition sequence — and therefore the bits of every sum — is identical
  to a full rebuild);
* rate increments are applied eagerly only to demand-capped flows (whose
  rates feed the per-iteration headroom test); uncapped flows record
  nothing per step and materialise their rate at freeze time by replaying
  the increment history, which performs the same float operations in the
  same order as the eager loop would have;
* saturation is detected while decrementing ``remaining``, and when more
  than one resource saturates in a step they are processed in the order
  the rebuilt pressure index would have enumerated them, keeping
  bottleneck attribution stable.

The result is bit-for-bit identical to the reference implementation (see
``benchmarks/_reference.py`` and the differential tests) while each
filling step costs O(capped-active + constrained resources + affected).

For repeated solves over the same flow set (e.g. the five quartile levels
plus the mean inside one ``flow_info`` query), build a
:class:`MaxMinProblem` once and call :meth:`MaxMinProblem.solve` per
capacity snapshot — the crossing index and validation are shared.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Hashable, Iterable, Mapping

from repro.util.errors import ConfigurationError

# Relative slack below which a resource counts as saturated / a flow as
# having met its cap.  Rates are bits/second, so absolute epsilons would be
# scale-sensitive; everything here is relative to the quantity compared.
_EPS = 1e-9

# Caps below this are physically meaningless (less than one bit per 30
# years) and can underflow the progressive-filling arithmetic; such flows
# are frozen at zero immediately.
_RATE_FLOOR = 1e-9


@dataclass(frozen=True)
class Demand:
    """One flow's participation in an allocation.

    Attributes
    ----------
    flow_id:
        Caller's identifier for the flow; unique within one allocation call.
    resources:
        Hashable keys of every resource the flow consumes (directed links
        and finite-bandwidth node crossbars along its route).  A flow with
        no resources (e.g. a loopback flow) is only limited by its cap.
    weight:
        Relative share weight; variable Remos flows with bandwidth
        requirements "3, 4.5 and 9 Mbps relative to each other" become
        weights 3, 4.5 and 9.
    cap:
        Demand ceiling in bits/second; ``inf`` for greedy flows.
    """

    flow_id: Hashable
    resources: tuple[Hashable, ...]
    weight: float = 1.0
    cap: float = float("inf")

    def __post_init__(self) -> None:
        if self.weight <= 0:
            raise ConfigurationError(
                f"flow {self.flow_id!r}: weight must be positive, got {self.weight}"
            )
        if self.cap < 0:
            raise ConfigurationError(
                f"flow {self.flow_id!r}: cap must be non-negative, got {self.cap}"
            )


@dataclass
class MaxMinResult:
    """Outcome of one max-min allocation.

    ``rates`` maps flow_id to bits/second.  ``bottlenecks`` maps flow_id to
    the resource that froze the flow, or ``None`` when the flow was frozen
    by its own demand cap (it got everything it asked for).
    ``residual_capacity`` maps each resource key to the capacity left over.
    ``iterations`` counts progressive-filling steps (for observability and
    the scale benchmark's perf trajectory).
    """

    rates: dict[Hashable, float] = field(default_factory=dict)
    bottlenecks: dict[Hashable, Hashable | None] = field(default_factory=dict)
    residual_capacity: dict[Hashable, float] = field(default_factory=dict)
    iterations: int = 0

    def rate(self, flow_id: Hashable) -> float:
        """Allocated rate for *flow_id* in bits/second."""
        return self.rates[flow_id]

    def demand_limited(self, flow_id: Hashable) -> bool:
        """True if the flow got its full cap (network did not limit it)."""
        return self.bottlenecks[flow_id] is None


class MaxMinProblem:
    """A fixed flow set, solvable against many capacity snapshots.

    Validates the demand list and builds the resource→crossing-demands
    index once; :meth:`solve` then runs the incremental filling loop per
    capacity dict.  ``Remos._flow_info`` evaluates the same flow set at
    six load levels — sharing the problem across those solves avoids
    rebuilding the crossing index per level.
    """

    __slots__ = ("demands", "_crossing", "_order", "_positions", "_arrays")

    def __init__(self, demands: Iterable[Demand]):
        self.demands: list[Demand] = list(demands)
        seen: set[Hashable] = set()
        for demand in self.demands:
            if demand.flow_id in seen:
                raise ConfigurationError(f"duplicate flow_id {demand.flow_id!r}")
            seen.add(demand.flow_id)
        # Both index forms are built lazily on first use: the crossing
        # dicts by the scalar path, the incidence arrays by the vectorized
        # path — a problem solved only one way never builds the other.
        self._crossing: dict[Hashable, list[Demand]] | None = None
        self._order: dict[Hashable, int] | None = None
        self._positions: dict[Hashable, dict[Hashable, int]] | None = None
        self._arrays = None

    def _ensure_index(self) -> None:
        """Build the scalar path's crossing index (idempotent).

        resource -> demands crossing it, in original demand order, one
        entry per occurrence in the demand's resource tuple (so filtered
        iteration reproduces the pressure rebuild's float-add sequence);
        flow_id -> original position; flow_id -> {resource: first index}.
        """
        if self._crossing is not None:
            return
        crossing: dict[Hashable, list[Demand]] = {}
        order: dict[Hashable, int] = {}
        all_positions: dict[Hashable, dict[Hashable, int]] = {}
        for index, demand in enumerate(self.demands):
            order[demand.flow_id] = index
            positions: dict[Hashable, int] = {}
            all_positions[demand.flow_id] = positions
            for pos, resource in enumerate(demand.resources):
                crossing.setdefault(resource, []).append(demand)
                positions.setdefault(resource, pos)
        self._order = order
        self._positions = all_positions
        self._crossing = crossing

    def _weight_sum(self, resource: Hashable, active: dict[Hashable, Demand]) -> float:
        """Sum active crossers' weights in original demand order."""
        total = 0.0
        for demand in self._crossing[resource]:
            if demand.flow_id in active:
                total += demand.weight
        return total

    def _pressure_rank(
        self, resource: Hashable, active: dict[Hashable, Demand]
    ) -> tuple[int, int]:
        """Position *resource* would take in a freshly rebuilt pressure index.

        The rebuilt index enumerates resources in first-encounter order over
        active demands, i.e. ordered by (first active crossing demand,
        position of the resource within that demand's tuple).
        """
        for demand in self._crossing[resource]:
            if demand.flow_id in active:
                return (
                    self._order[demand.flow_id],
                    self._positions[demand.flow_id][resource],
                )
        raise AssertionError(  # pragma: no cover - saturated => has crossers
            f"resource {resource!r} saturated with no active crossers"
        )

    def solve(self, capacities: Mapping[Hashable, float]) -> MaxMinResult:
        """Allocate *capacities* among this problem's demands.

        Resources referenced by a demand but absent from *capacities* are
        treated as unconstrained (infinite).  Capacities may already have
        background load subtracted by the caller; negative capacities are
        clamped to zero once at entry, and the clamped value is reused by
        the relative-epsilon saturation test.

        Dispatches to the numpy kernel (:mod:`repro.fairshare.vectorized`)
        when it is enabled and the problem is large enough to benefit; the
        two paths are bit-identical (differentially fuzzed), so callers
        never observe which one answered.
        """
        if _vectorized._use_vectorized(len(self.demands)):
            return self.solve_vectorized(capacities)
        return self.solve_scalar(capacities)

    def solve_vectorized(self, capacities: Mapping[Hashable, float]) -> MaxMinResult:
        """The numpy filling loop (requires numpy; same answers, bit for bit)."""
        if self._arrays is None:
            self._arrays = _vectorized.DemandArrays(self.demands)
        return _vectorized.solve_arrays(self._arrays, self.demands, capacities)

    def solve_scalar(self, capacities: Mapping[Hashable, float]) -> MaxMinResult:
        """The pure-Python filling loop — the differential oracle and the
        no-numpy fallback."""
        self._ensure_index()
        _vectorized.counters["scalar_solves"] += 1
        result = MaxMinResult()
        remaining = {key: max(0.0, float(cap)) for key, cap in capacities.items()}
        # Clamped capacities, frozen at entry: the saturation threshold is
        # relative to these, not to the raw (possibly negative) inputs.
        limits = dict(remaining)

        for demand in self.demands:
            result.rates[demand.flow_id] = 0.0
            result.bottlenecks[demand.flow_id] = None

        # Flows with (near-)zero cap are frozen at 0 immediately,
        # demand-limited.  ``active`` keeps original demand order under
        # deletions; ``capped`` is the subset whose rates must be tracked
        # eagerly (they feed the headroom test each iteration).
        active: dict[Hashable, Demand] = {
            d.flow_id: d for d in self.demands if d.cap > _RATE_FLOOR
        }
        capped: dict[Hashable, Demand] = {
            fid: d for fid, d in active.items() if d.cap != float("inf")
        }

        # Per-resource active weight sums, inserted in first-encounter
        # order over the initial active set (the rebuilt pressure index's
        # order for iteration one).
        weight_sum: dict[Hashable, float] = {}
        for demand in active.values():
            for resource in demand.resources:
                if resource in remaining:
                    weight_sum[resource] = weight_sum.get(resource, 0.0) + demand.weight

        # Increment history for deferred (uncapped) rate materialisation.
        thetas: list[float] = []

        def materialise(demand: Demand) -> None:
            # Replays the eager loop's float ops in order: bitwise equal.
            rate = 0.0
            for theta in thetas:
                rate += theta * demand.weight
            result.rates[demand.flow_id] = rate

        while active:
            result.iterations += 1

            # Largest uniform per-weight increment every resource allows...
            theta = float("inf")
            for resource, total in weight_sum.items():
                theta = min(theta, remaining[resource] / total)
            # ... and each demand cap allows (uncapped flows have infinite
            # headroom and cannot lower the minimum).
            for flow_id, demand in capped.items():
                headroom = (demand.cap - result.rates[flow_id]) / demand.weight
                theta = min(theta, headroom)

            if theta == float("inf"):
                # Only uncapped flows over unconstrained resources remain;
                # they can grow without bound.  Report infinite rates.
                for flow_id in active:
                    result.rates[flow_id] = float("inf")
                break

            theta = max(0.0, theta)
            thetas.append(theta)

            # Apply the increment eagerly to capped flows only; uncapped
            # flows replay ``thetas`` when they freeze.
            for flow_id, demand in capped.items():
                result.rates[flow_id] += theta * demand.weight

            # Drain resources and detect saturation in one pass.
            saturated: list[Hashable] = []
            for resource, total in weight_sum.items():
                remaining[resource] -= theta * total
                if remaining[resource] <= _EPS * max(limits[resource], 1.0):
                    remaining[resource] = max(0.0, remaining[resource])
                    saturated.append(resource)

            # Freeze flows crossing saturated resources.  With several
            # saturations in one step, attribute bottlenecks in rebuilt-
            # pressure-index order, exactly as a full rebuild would.
            if len(saturated) > 1:
                saturated.sort(key=lambda r: self._pressure_rank(r, active))
            frozen: set[Hashable] = set()
            for resource in saturated:
                for demand in self._crossing[resource]:
                    if demand.flow_id in active and demand.flow_id not in frozen:
                        frozen.add(demand.flow_id)
                        result.bottlenecks[demand.flow_id] = resource

            # Freeze flows that reached their cap.
            for flow_id, demand in list(capped.items()):
                if flow_id in frozen:
                    continue
                if result.rates[flow_id] >= demand.cap * (1.0 - _EPS):
                    result.rates[flow_id] = demand.cap
                    frozen.add(flow_id)
                    # bottleneck stays None: demand-limited.

            if not frozen:  # pragma: no cover - defensive against FP stagnation
                raise ConfigurationError(
                    "max-min allocation failed to make progress; "
                    "check for zero-capacity resources with active flows"
                )

            # Retire frozen flows and refresh only the affected resources'
            # weight sums (recomputed in original demand order, so the sums
            # stay bitwise identical to a full rebuild).
            affected: set[Hashable] = set()
            for flow_id in frozen:
                demand = active.pop(flow_id)
                capped.pop(flow_id, None)
                if demand.cap == float("inf"):
                    materialise(demand)
                for resource in demand.resources:
                    if resource in weight_sum:
                        affected.add(resource)
            for resource in affected:
                total = self._weight_sum(resource, active)
                if total > 0.0:
                    weight_sum[resource] = total
                else:
                    # No active crossers left: the rebuilt index would
                    # simply omit this resource.
                    del weight_sum[resource]

        result.residual_capacity = remaining
        return result


def weighted_max_min(
    demands: list[Demand],
    capacities: dict[Hashable, float],
) -> MaxMinResult:
    """Allocate *capacities* among *demands* with weighted max-min fairness.

    One-shot convenience wrapper around :class:`MaxMinProblem`; callers
    evaluating the same flow set against several capacity snapshots should
    build the problem once and call :meth:`MaxMinProblem.solve` per
    snapshot.
    """
    return MaxMinProblem(demands).solve(capacities)


# Imported last: vectorized.py type-references MaxMinResult from this
# module, so the import must run after the definitions above.
from repro.fairshare import vectorized as _vectorized  # noqa: E402
