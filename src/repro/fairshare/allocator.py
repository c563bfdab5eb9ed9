"""Three-stage allocation for Remos flow queries.

The paper's ``remos_flow_info(fixed_flows, variable_flows, independent_flow,
timeframe)`` satisfies the flow classes in strict priority order (§4.2):

1. **fixed** flows — each wants exactly its requested bandwidth; equal-weight
   max-min among them, capped at the request, decides what is achievable;
2. **variable** flows — share what is left *proportionally to their relative
   requirements* (weighted max-min, uncapped unless the caller caps them);
3. **independent** flows — absorb whatever remains (equal-weight max-min).

Each later stage sees capacities reduced by the earlier stages' allocations.
This module is topology-agnostic: callers supply each flow's resource keys
(directed links + finite node crossbars); :mod:`repro.core` derives those
from routes.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Hashable, Mapping, Sequence

import numpy as np

from repro import obs
from repro.fairshare import vectorized as _vectorized
from repro.fairshare.maxmin import Demand, MaxMinProblem, MaxMinResult
from repro.util.errors import ConfigurationError


@dataclass(frozen=True)
class FlowRequest:
    """A single flow presented for staged allocation.

    For *fixed* flows, ``requested`` is the exact bandwidth wanted.
    For *variable* flows, ``requested`` is the **relative** requirement (the
    paper's "3, 4.5 and 9 Mbps relative to each other") used as the max-min
    weight; ``cap`` optionally bounds the absolute rate.
    For *independent* flows, ``requested`` is ignored.
    """

    flow_id: Hashable
    resources: tuple[Hashable, ...]
    requested: float = 1.0
    cap: float = float("inf")

    def __post_init__(self) -> None:
        if self.requested < 0:
            raise ConfigurationError(
                f"flow {self.flow_id!r}: requested bandwidth must be non-negative"
            )


@dataclass
class StagedAllocation:
    """Combined result of the three allocation stages.

    ``rates`` covers every flow from all stages.  ``satisfied`` marks fixed
    flows that received their full request.  ``bottlenecks`` names the
    limiting resource per flow (None = demand-limited).
    """

    rates: dict[Hashable, float] = field(default_factory=dict)
    satisfied: dict[Hashable, bool] = field(default_factory=dict)
    bottlenecks: dict[Hashable, Hashable | None] = field(default_factory=dict)
    residual_capacity: dict[Hashable, float] = field(default_factory=dict)
    iterations: int = 0

    def rate(self, flow_id: Hashable) -> float:
        """Allocated bits/second for *flow_id*."""
        return self.rates[flow_id]

    @property
    def all_fixed_satisfied(self) -> bool:
        """True when every fixed flow received its full request."""
        return all(self.satisfied.values())


def _merge(result: MaxMinResult, into: StagedAllocation) -> dict[Hashable, float]:
    """Fold a stage's result into the combined allocation; return new capacities."""
    into.rates.update(result.rates)
    into.bottlenecks.update(result.bottlenecks)
    return result.residual_capacity


class StagedProblem:
    """A prepared three-stage pipeline, solvable at many load levels.

    One Remos ``flow_info`` query evaluates the identical flow set at six
    capacity snapshots (five quartile levels plus the mean).
    :meth:`solve_levels` takes them together, choosing the kernel by
    size — the one such choice left: from
    :data:`~repro.fairshare.vectorized.MIN_DEMANDS` flows up the three
    stages are interned into one
    :class:`~repro.fairshare.vectorized.KeySpace` once and each stage is
    **one** filling run over every level, under one ``fairshare.allocate``
    span (``levels=L``); smaller problems solve level by level through the
    stage :class:`MaxMinProblem` instances, prepared once, one span per
    level — a one-shot problem that small does not earn back the array
    build.  :meth:`solve` is the same call at one level.
    """

    __slots__ = ("fixed", "variable", "independent", "_problems", "_arrays")

    def __init__(
        self,
        fixed: list[FlowRequest] | None = None,
        variable: list[FlowRequest] | None = None,
        independent: list[FlowRequest] | None = None,
    ):
        self.fixed = list(fixed or [])
        self.variable = list(variable or [])
        self.independent = list(independent or [])

        all_ids = [f.flow_id for f in self.fixed + self.variable + self.independent]
        if len(set(all_ids)) != len(all_ids):
            raise ConfigurationError("flow_ids must be unique across all flow classes")

        # Stage 1: fixed flows.  Equal weights, capped at the request —
        # max-min among them decides who loses when they cannot all be
        # satisfied.  Stage 2: variable flows share the remainder
        # proportionally to their relative requirements.  Stage 3:
        # independent flows absorb the leftovers.
        self._problems: list[MaxMinProblem | None] = [
            MaxMinProblem(
                Demand(f.flow_id, f.resources, weight=1.0, cap=f.requested)
                for f in self.fixed
            )
            if self.fixed
            else None,
            MaxMinProblem(
                Demand(
                    f.flow_id,
                    f.resources,
                    weight=f.requested if f.requested > 0 else 1.0,
                    cap=f.cap,
                )
                for f in self.variable
            )
            if self.variable
            else None,
            MaxMinProblem(
                Demand(f.flow_id, f.resources, weight=1.0, cap=f.cap)
                for f in self.independent
            )
            if self.independent
            else None,
        ]
        self._arrays = None

    def resource_keys(self) -> tuple[Hashable, ...]:
        """Every resource key referenced by any flow in any stage.

        Allocation results depend only on the capacities of crossed
        resources, so callers may prune capacity snapshots to this set
        before :meth:`solve` without changing any rate or bottleneck.
        Returned in deterministic first-reference order.
        """
        keys: dict[Hashable, None] = {}
        for request in self.fixed + self.variable + self.independent:
            for resource in request.resources:
                keys.setdefault(resource, None)
        return tuple(keys)

    def solve(self, capacities: Mapping[Hashable, float]) -> StagedAllocation:
        """Run the fixed → variable → independent pipeline on *capacities*."""
        return self.solve_levels([capacities])[0]

    def solve_levels(
        self, levels: Sequence[Mapping[Hashable, float]]
    ) -> list[StagedAllocation]:
        """The pipeline at every capacity mapping in *levels*, in order.

        Each allocation equals — rates, satisfied, bottlenecks, residual
        capacities and iterations, bit for bit — the level-by-level chain's
        for that mapping alone.
        """
        demands = len(self.fixed) + len(self.variable) + len(self.independent)
        if demands < _vectorized.MIN_DEMANDS:
            return [self._solve_level(capacities) for capacities in levels]
        with obs.span("fairshare.allocate") as sp:
            self._annotate(sp, max(map(len, levels), default=0), levels=len(levels))
            return self._solve_arrays(levels)

    def _annotate(self, sp, resources: int, **extra) -> None:
        if sp:
            sp.set(
                fixed=len(self.fixed),
                variable=len(self.variable),
                independent=len(self.independent),
                resources=resources,
                **extra,
            )

    def _solve_arrays(self, levels) -> list[StagedAllocation]:
        """Every level through :func:`~repro.fairshare.vectorized.fill_stages`."""
        if self._arrays is None:
            keyspace = _vectorized.KeySpace()
            stages = [
                (requests, _vectorized.DemandArrays(problem.demands, keyspace))
                for requests, problem in zip(
                    (self.fixed, self.variable, self.independent), self._problems
                )
                if problem is not None
            ]
            self._arrays = (keyspace, stages)
        keyspace, stages = self._arrays

        # The entry clamp the scalar chain applies; the clamped mappings
        # become the residuals, their crossed slots the capacity block.
        # Levels usually share one key order, so its layout is reused.
        index = keyspace.index
        remaining = np.zeros((len(levels), len(keyspace)), dtype=np.float64)
        present = np.zeros(remaining.shape, dtype=bool)
        residuals, crossings = [], []
        layout = None
        for level, capacities in enumerate(levels):
            keys = list(capacities)
            if layout is None or layout[0] != keys:
                cols = [j for j, key in enumerate(keys) if key in index]
                layout = (keys, cols, [keys[j] for j in cols], [index[keys[j]] for j in cols])
            _, cols, crossed, ids = layout
            row = np.fromiter(capacities.values(), dtype=np.float64, count=len(keys))
            # Python's ``max(0.0, float(cap))`` exactly: NaN and -0.0 give +0.0.
            row = np.where(row > 0.0, row, 0.0)
            residuals.append(dict(zip(keys, row.tolist())))
            crossings.append((crossed, ids))
            remaining[level, ids] = row[cols]
            present[level, ids] = True

        results = _vectorized.fill_stages(
            [arrays for _, arrays in stages], remaining, present
        )
        allocations = [StagedAllocation(residual_capacity=r) for r in residuals]
        for (requests, arrays), (rates, bottleneck, iterations) in zip(stages, results):
            flow_ids = [request.flow_id for request in requests]
            res_keys = arrays.res_keys
            # A fixed demand's cap is its request.
            satisfied = (
                (rates >= arrays.caps * (1.0 - 1e-9)).tolist()
                if requests is self.fixed
                else None
            )
            for level, allocation in enumerate(allocations):
                allocation.rates.update(zip(flow_ids, rates[level].tolist()))
                allocation.bottlenecks.update(
                    zip(
                        flow_ids,
                        [None if r < 0 else res_keys[r] for r in bottleneck[level].tolist()],
                    )
                )
                allocation.iterations += int(iterations[level])
                if satisfied is not None:
                    allocation.satisfied.update(zip(flow_ids, satisfied[level]))
        for allocation, (crossed, ids), drained in zip(allocations, crossings, remaining):
            allocation.residual_capacity.update(zip(crossed, drained[ids].tolist()))
        return allocations

    def _solve_level(self, capacities: Mapping[Hashable, float]) -> StagedAllocation:
        with obs.span("fairshare.allocate") as sp:
            self._annotate(sp, len(capacities))
            return self._solve(capacities)

    def _solve(self, capacities: Mapping[Hashable, float]) -> StagedAllocation:
        allocation = StagedAllocation()
        current = {key: max(0.0, float(cap)) for key, cap in capacities.items()}

        fixed_problem, variable_problem, independent_problem = self._problems

        if fixed_problem is not None:
            result = fixed_problem.solve(current)
            allocation.iterations += result.iterations
            current = _merge(result, allocation)
            for request in self.fixed:
                granted = result.rates[request.flow_id]
                allocation.satisfied[request.flow_id] = (
                    granted >= request.requested * (1.0 - 1e-9)
                )

        if variable_problem is not None:
            result = variable_problem.solve(current)
            allocation.iterations += result.iterations
            current = _merge(result, allocation)

        if independent_problem is not None:
            result = independent_problem.solve(current)
            allocation.iterations += result.iterations
            current = _merge(result, allocation)

        allocation.residual_capacity = current
        return allocation


def allocate_three_stage(
    capacities: dict[Hashable, float],
    fixed: list[FlowRequest] | None = None,
    variable: list[FlowRequest] | None = None,
    independent: list[FlowRequest] | None = None,
) -> StagedAllocation:
    """Run the fixed → variable → independent allocation pipeline.

    *capacities* should already exclude background (external) traffic; the
    Modeler subtracts measured utilization before calling this.  One-shot
    wrapper around :class:`StagedProblem`; callers solving the same flow
    set at several load levels should prepare the problem once.
    """
    return StagedProblem(fixed, variable, independent).solve(capacities)
