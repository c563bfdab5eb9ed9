"""Collector interface and the NetworkView handed to the Modeler."""

from __future__ import annotations

import abc
import enum
from collections import deque
from dataclasses import dataclass, field

from repro.collector.metrics import MetricsStore
from repro.net import Topology
from repro.stats import TimeSeries
from repro.util.errors import CollectorError

#: Journal entries retained per view.  Deep enough that a Modeler querying
#: at any realistic cadence finds a contiguous chain; an overrun simply
#: degrades to a full invalidation, never to a stale answer.
JOURNAL_DEPTH = 256


class DeltaKind(enum.Enum):
    """How much of the world one collector sweep may have moved."""

    METRICS_ONLY = "metrics_only"
    """Only utilization/CPU series grew; topology and routes are intact."""

    TOPOLOGY_CHANGED = "topology_changed"
    """Nodes, links or capacities changed; everything derived is suspect."""


@dataclass(frozen=True)
class ViewDelta:
    """One generation step of a :class:`NetworkView`, classified.

    A delta covers the half-open generation interval
    ``(base_generation, generation]``.  ``touched`` lists the metric-store
    keys — ``(link name, from node)`` directions, with the reserved
    ``"cpu"`` pseudo-link naming hosts — whose series gained samples during
    the step, so consumers can merge exactly those resources.  A
    ``TOPOLOGY_CHANGED`` delta makes no completeness promise about
    ``touched``; consumers must treat the whole view as new.
    """

    kind: DeltaKind
    base_generation: int
    generation: int
    touched: frozenset[tuple[str, str]] = frozenset()

    @property
    def is_structural(self) -> bool:
        """True when the step may have altered topology or capacities."""
        return self.kind is DeltaKind.TOPOLOGY_CHANGED


@dataclass
class NetworkView:
    """What a collector knows: a topology plus utilization series.

    The topology is the collector's *belief* — discovered via SNMP, or a
    synthetic cloud abstraction from probing — not necessarily the true
    physical network.  Link capacities/latencies live on the topology;
    utilization series live in the metrics store.

    Freshness is stamped at **two levels** (see ``docs/PERFORMANCE.md``):

    * ``generation`` advances once per completed measurement sweep, exactly
      as before — the Modeler's caches are never served across generations;
    * ``structure_generation`` advances only when the topology (or a link
      capacity) changes, so routing tables and structural memos survive
      metrics-only sweeps.

    Collectors that know *what* a sweep touched call :meth:`record_sweep`
    (or :meth:`record_structure_change`), which also appends a
    :class:`ViewDelta` to a bounded journal; the
    :class:`~repro.collector.master.CollectorMaster` reads a child's journal
    via :meth:`deltas_since` to merge just what the sweep measured.
    Hand-built views may keep calling :meth:`bump_generation` — the
    resulting journal gap makes consumers fall back to a full re-merge,
    never to staleness.

    Snapshot publication (``repro.core.snapshot``) builds an immutable copy
    of a live view and calls :meth:`freeze` on it: every later attribute
    assignment or stamp advance raises, so published epochs can be shared
    across reader threads without locks (see ``docs/CONCURRENCY.md``).
    """

    topology: Topology
    metrics: MetricsStore
    generation: int = 0
    structure_generation: int = 0
    _journal: deque = field(
        default_factory=lambda: deque(maxlen=JOURNAL_DEPTH), repr=False, compare=False
    )

    def __setattr__(self, name, value):
        if getattr(self, "_frozen", False):
            raise CollectorError(
                f"cannot set {name!r}: this NetworkView is frozen (published "
                "in a snapshot); mutate the live collector view instead"
            )
        object.__setattr__(self, name, value)

    def freeze(self) -> None:
        """Make this view immutable (called once, at snapshot publication)."""
        object.__setattr__(self, "_frozen", True)

    @property
    def frozen(self) -> bool:
        """True once published inside a snapshot."""
        return getattr(self, "_frozen", False)

    def _assert_mutable(self) -> None:
        if getattr(self, "_frozen", False):
            raise CollectorError(
                "cannot advance stamps on a frozen NetworkView (published "
                "in a snapshot); sweeps belong on the live collector view"
            )

    def bump_generation(self) -> int:
        """Mark one completed collector sweep; returns the new generation.

        Appends nothing to the delta journal, so consumers treat the step
        as opaque (full invalidation) — the safe default for hand-mutated
        views.  Collectors that can enumerate what they touched should use
        :meth:`record_sweep` instead.
        """
        self._assert_mutable()
        self.generation += 1
        return self.generation

    def record_sweep(
        self,
        touched: "frozenset[tuple[str, str]] | set[tuple[str, str]]",
        generation: int | None = None,
    ) -> ViewDelta:
        """Mark one metrics-only sweep that touched exactly *touched* keys.

        *generation* overrides the default +1 step (the collector master
        stamps merged views with the sum of child generations).  Returns
        the journal entry.
        """
        self._assert_mutable()
        base = self.generation
        self.generation = base + 1 if generation is None else generation
        delta = ViewDelta(
            kind=DeltaKind.METRICS_ONLY,
            base_generation=base,
            generation=self.generation,
            touched=frozenset(touched),
        )
        self._journal.append(delta)
        return delta

    def record_structure_change(self, generation: int | None = None) -> ViewDelta:
        """Mark a sweep that changed topology/capacities (full invalidation).

        Bumps both stamp levels and journals a ``TOPOLOGY_CHANGED`` delta.
        """
        self._assert_mutable()
        base = self.generation
        self.generation = base + 1 if generation is None else generation
        self.structure_generation += 1
        delta = ViewDelta(
            kind=DeltaKind.TOPOLOGY_CHANGED,
            base_generation=base,
            generation=self.generation,
        )
        self._journal.append(delta)
        return delta

    def deltas_since(self, generation: int) -> list[ViewDelta] | None:
        """The contiguous delta chain from *generation* to the current one.

        Returns ``[]`` when the view has not advanced, the ordered deltas
        whose intervals exactly tile ``(generation, self.generation]`` when
        the journal can account for every step, and ``None`` when it cannot
        (journal overrun, or generations minted via :meth:`bump_generation`)
        — the caller must then invalidate everything.
        """
        if generation == self.generation:
            return []
        if generation > self.generation:
            return None
        chain: list[ViewDelta] = []
        expected = self.generation
        for delta in reversed(self._journal):
            if delta.generation != expected:
                if delta.generation < expected:
                    return None  # gap minted without a journal entry
                continue  # newer duplicate stamp; keep scanning back
            chain.append(delta)
            expected = delta.base_generation
            if expected <= generation:
                break
        if expected != generation:
            return None
        chain.reverse()
        return chain

    def link_use(self, link_name: str, from_node: str) -> TimeSeries:
        """Used-bandwidth series (bits/s) for a link direction."""
        return self.metrics.series(link_name, from_node)


class Collector(abc.ABC):
    """Common lifecycle for collectors.

    ``start()`` launches the collection process(es) on the simulation
    engine and returns an event that fires once the first full sweep has
    completed (discovery + first samples), after which :meth:`view` is
    usable.
    """

    def __init__(self) -> None:
        self._view: NetworkView | None = None

    @abc.abstractmethod
    def start(self):
        """Begin collecting; returns a 'ready' event."""

    @abc.abstractmethod
    def stop(self) -> None:
        """Stop collecting (idempotent)."""

    @property
    def ready(self) -> bool:
        """True once a view is available."""
        return self._view is not None

    def view(self) -> NetworkView:
        """The current network view (raises until ready)."""
        if self._view is None:
            raise CollectorError(
                f"{type(self).__name__} has no view yet; wait for start() event"
            )
        return self._view
