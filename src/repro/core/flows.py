"""Flow query data types.

A :class:`Flow` is an *application-level connection between a pair of
computation nodes* (§4.2) — the query names endpoints, never links.  The
meaning of ``requested`` depends on which argument of
:meth:`~repro.core.api.Remos.flow_info` the flow is passed in:

* fixed flows — exact bits/second wanted;
* variable flows — the *relative* requirement (weights 3 / 4.5 / 9 in the
  paper's example);
* independent flows — ignored (they absorb leftovers).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Hashable

from repro.core.jsontext import JSONWriter, string
from repro.core.timeframe import Timeframe
from repro.stats import StatMeasure
from repro.util.errors import QueryError


@dataclass(frozen=True)
class Flow:
    """One application-level flow in a query."""

    src: str
    dst: str
    requested: float = 1.0
    cap: float = float("inf")
    name: str | None = None

    def __post_init__(self) -> None:
        if self.requested < 0:
            raise QueryError(f"flow {self.src}->{self.dst}: negative request")
        if self.cap <= 0:
            raise QueryError(f"flow {self.src}->{self.dst}: cap must be positive")

    @property
    def endpoints(self) -> tuple[str, ...]:
        """Every node the flow starts or ends at, source first."""
        return (self.src, self.dst)

    def label(self, index: int, klass: str) -> str:
        """Stable identifier used in answers (explicit name wins)."""
        return self.name or f"{klass}[{index}]:{self.src}->{self.dst}"


@dataclass(frozen=True)
class MulticastFlow:
    """A one-to-many flow in a query (the §4.5 multicast extension).

    ``requested`` follows the same per-class conventions as :class:`Flow`.
    The answer's latency is the deepest receiver's path latency.
    """

    src: str
    dsts: tuple[str, ...]
    requested: float = 1.0
    cap: float = float("inf")
    name: str | None = None

    def __init__(self, src, dsts, requested=1.0, cap=float("inf"), name=None):
        object.__setattr__(self, "src", src)
        object.__setattr__(self, "dsts", tuple(dsts))
        object.__setattr__(self, "requested", requested)
        object.__setattr__(self, "cap", cap)
        object.__setattr__(self, "name", name)
        if not self.dsts:
            raise QueryError(f"multicast flow from {src!r} needs at least one receiver")
        if self.requested < 0:
            raise QueryError(f"multicast flow from {src!r}: negative request")
        if self.cap <= 0:
            raise QueryError(f"multicast flow from {src!r}: cap must be positive")

    @property
    def endpoints(self) -> tuple[str, ...]:
        """Every node the flow starts or ends at, source first."""
        return (self.src, *self.dsts)

    @property
    def dst(self) -> str:
        """Display form of the receiver set."""
        return "{" + ",".join(self.dsts) + "}"

    def label(self, index: int, klass: str) -> str:
        """Stable identifier used in answers (explicit name wins)."""
        return self.name or f"{klass}[{index}]:{self.src}->{self.dst}"


@dataclass(frozen=True)
class FlowQuery:
    """One flow-set scenario inside a :meth:`Remos.flow_info_batch` call.

    A scenario carries the same three flow classes as a single
    :meth:`Remos.flow_info` query.  Batching scenarios lets the engine
    share route resolution and the per-quantile availability snapshots
    across all of them — the answer for each scenario is identical to
    issuing it through ``flow_info`` alone.
    """

    fixed: tuple[Flow, ...] = ()
    variable: tuple[Flow, ...] = ()
    independent: tuple[Flow, ...] = ()
    name: str | None = None

    def __init__(self, fixed=(), variable=(), independent=(), name=None):
        object.__setattr__(self, "fixed", tuple(fixed))
        object.__setattr__(self, "variable", tuple(variable))
        object.__setattr__(self, "independent", tuple(independent))
        object.__setattr__(self, "name", name)
        if not self.fixed and not self.variable and not self.independent:
            raise QueryError("a FlowQuery scenario requires at least one flow")

    @property
    def flows(self) -> tuple[Flow, ...]:
        """All flows in fixed, variable, independent order."""
        return (*self.fixed, *self.variable, *self.independent)


@dataclass
class FlowAnswer:
    """Remos's answer for one queried flow.

    ``bandwidth`` is a quartile measure: the rate the flow would obtain
    under the pessimistic .. optimistic availability estimates for the
    chosen timeframe.  ``satisfied`` is meaningful for fixed flows only
    (did the median-availability allocation deliver the full request?).
    ``bottleneck`` names the limiting resource at median availability, or
    None when the flow was limited by its own request/cap.
    """

    flow: Flow
    label: str
    bandwidth: StatMeasure
    latency: StatMeasure
    hop_count: int
    satisfied: bool | None = None
    bottleneck: Hashable | None = None

    def to_dict(self) -> dict:
        """Plain-data form for JSON export."""
        return {
            "label": self.label,
            "src": self.flow.src,
            "dst": self.flow.dst,
            "bandwidth": self.bandwidth.to_dict(),
            "latency_s": self.latency.median,
            "hop_count": self.hop_count,
            "satisfied": self.satisfied,
            "bottleneck": None if self.bottleneck is None else str(self.bottleneck),
        }

    def _json(self, writer: JSONWriter) -> str:
        """:meth:`to_dict` as compact JSON, numbers through *writer*."""
        v = writer.value
        bottleneck = self.bottleneck
        return (
            f'{{"label":{string(self.label)},"src":{string(self.flow.src)},'
            f'"dst":{string(self.flow.dst)},"bandwidth":{writer.measure(self.bandwidth)},'
            f'"latency_s":{v(self.latency.median)},"hop_count":{v(self.hop_count)},'
            f'"satisfied":{v(self.satisfied)},'
            f'"bottleneck":{"null" if bottleneck is None else writer.text(bottleneck)}}}'
        )

    def __str__(self) -> str:
        return f"{self.label}: bw={self.bandwidth} lat={self.latency.median:.3g}s"


@dataclass
class FlowInfoResult:
    """Answer to a full flow_info query."""

    timeframe: Timeframe
    fixed: list[FlowAnswer] = field(default_factory=list)
    variable: list[FlowAnswer] = field(default_factory=list)
    independent: list[FlowAnswer] = field(default_factory=list)

    @property
    def all_fixed_satisfied(self) -> bool:
        """True when every fixed flow got its full request (vacuously true
        with no fixed flows)."""
        return all(answer.satisfied for answer in self.fixed)

    @property
    def answers(self) -> list[FlowAnswer]:
        """All answers in fixed, variable, independent order."""
        return [*self.fixed, *self.variable, *self.independent]

    def answer(self, label: str) -> FlowAnswer:
        """Look an answer up by its label."""
        for candidate in self.answers:
            if candidate.label == label:
                return candidate
        raise QueryError(f"no flow labelled {label!r} in this result")

    def to_dict(self) -> dict:
        """Plain-data form for JSON export."""
        return {
            "timeframe": str(self.timeframe),
            "all_fixed_satisfied": self.all_fixed_satisfied,
            "fixed": [a.to_dict() for a in self.fixed],
            "variable": [a.to_dict() for a in self.variable],
            "independent": [a.to_dict() for a in self.independent],
        }

    def to_json(self) -> str:
        """:meth:`to_dict` as compact JSON, each distinct number formatted
        once (non-finite figures are ``null``; see :mod:`repro.core.jsontext`)."""
        writer = JSONWriter()

        def answers(group: list[FlowAnswer]) -> str:
            return ",".join([answer._json(writer) for answer in group])

        satisfied = "true" if self.all_fixed_satisfied else "false"
        return (
            f'{{"timeframe":{string(str(self.timeframe))},"all_fixed_satisfied":{satisfied},'
            f'"fixed":[{answers(self.fixed)}],"variable":[{answers(self.variable)}],'
            f'"independent":[{answers(self.independent)}]}}'
        )
