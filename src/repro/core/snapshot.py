"""Immutable published snapshots: RCU-style epoch publication.

The paper's Collector is a *shared service* answering queries from many
network-aware applications at once.  This module is what makes that safe in
the reproduction: collection mutates freely on the writer side, while every
query runs against an immutable :class:`Snapshot` — a frozen
:class:`~repro.collector.base.NetworkView` plus the per-epoch
:class:`~repro.core.modeler.Modeler` that memoises capacities and routing
for it — published by a single atomic reference swap.

The protocol (documented in full in ``docs/CONCURRENCY.md``):

* **Writer side** — the sweeper (or, outside the service, the querying
  thread itself) calls :meth:`SnapshotPublisher.refresh`.  If the live
  view's ``(generation, structure_generation, latest timestamp)`` stamp
  moved, the publisher assembles the successor privately: it pins every
  metric series at its current length (a frozen clone shares the live
  series' append-only sample storage, so no sample is copied), shares the
  topology by reference
  (collectors replace topology objects, never mutate them structurally in
  place), freezes the view, and forks the previous epoch's Modeler with an
  empty price memo: each epoch prices what its readers ask for from its
  own frozen series, and nothing dynamic carries over.  Purely structural
  state — the routing table and the hierarchical
  :class:`~repro.core.collapse.CollapseTree` — is immutable per epoch and
  therefore *shared by reference* across forks while the topology is
  structurally unchanged (sharing is its copy-on-write: a
  structural change builds a fresh tree for the new epoch while the old
  epoch keeps traversing its own).  The finished snapshot is installed
  with one attribute store — atomic under the GIL — so readers switch
  epochs all-or-nothing.

* **Reader side** — :meth:`SnapshotPublisher.current` is lock-free: grab
  the snapshot once per query and use it for everything (topology, routes,
  capacities).  A reader can never observe a partial sweep because nothing
  reachable from a snapshot is ever written again; within one epoch the
  Modeler's memo only *fills*, and concurrent fills insert bit-identical
  values (the frozen view's stamp never moves).

Answer preservation: a query against snapshot N is bit-identical to the
single-threaded answer at generation N, because the frozen clone preserves
every sample and generation stamp the live view had at publication.
"""

from __future__ import annotations

import threading
import time

from repro import obs
from repro.collector.base import Collector, NetworkView
from repro.core.cachestats import CacheStats
from repro.core.modeler import Modeler
from repro.net import RoutingTable

_log = obs.get_logger("repro.core.snapshot")


class Snapshot:
    """One published epoch: a frozen view and its memoising Modeler.

    Immutable: every attribute assignment after construction raises, and
    the CI threading-hygiene gate additionally greps for snapshot-field
    mutation.  ``epoch`` is the publisher's monotone publication counter
    (1-based); ``published_at`` is the wall-clock publication time.
    """

    __slots__ = (
        "view",
        "modeler",
        "epoch",
        "generation",
        "structure_generation",
        "published_at",
        "_stamp",
        "_init_done",
    )

    def __init__(
        self,
        view: NetworkView,
        modeler: Modeler,
        epoch: int,
        stamp: tuple,
        published_at: float,
    ):
        object.__setattr__(self, "view", view)
        object.__setattr__(self, "modeler", modeler)
        object.__setattr__(self, "epoch", epoch)
        object.__setattr__(self, "generation", view.generation)
        object.__setattr__(self, "structure_generation", view.structure_generation)
        object.__setattr__(self, "published_at", published_at)
        object.__setattr__(self, "_stamp", stamp)
        object.__setattr__(self, "_init_done", True)

    def __setattr__(self, name, value):
        raise AttributeError(
            f"Snapshot is immutable; cannot set {name!r} on a published epoch"
        )

    def __delattr__(self, name):
        raise AttributeError(
            f"Snapshot is immutable; cannot delete {name!r} from a published epoch"
        )

    def age_seconds(self, now: float | None = None) -> float:
        """Wall-clock seconds since publication."""
        reference = time.time() if now is None else now
        return max(0.0, reference - self.published_at)

    def to_dict(self) -> dict:
        """Plain-data form for telemetry export."""
        return {
            "epoch": self.epoch,
            "generation": self.generation,
            "structure_generation": self.structure_generation,
            "published_at": self.published_at,
            "age_seconds": self.age_seconds(),
            "nodes": len(self.view.topology.nodes),
            "links": len(self.view.topology.links),
            "latest_timestamp": self.view.metrics.latest_timestamp(),
        }

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<Snapshot epoch={self.epoch} generation={self.generation} "
            f"structure={self.structure_generation}>"
        )


class SnapshotPublisher:
    """Assembles and atomically publishes snapshots of one view source.

    One publisher per :class:`~repro.core.api.Remos` facade.  The source is
    either a live :class:`~repro.collector.base.Collector` (its ``view()``
    is re-read on every refresh) or a static ``NetworkView``.

    Thread contract: :meth:`current` is safe from any thread, lock-free.
    :meth:`refresh` serialises publication internally, but the intended
    discipline is a **single writer** (the service's sweeper thread, or the
    sole thread of a classic single-threaded run) — concurrent refreshes
    are safe, just pointless contention.
    """

    def __init__(
        self,
        source: Collector | NetworkView,
        enable_cache: bool = True,
        stats: CacheStats | None = None,
    ):
        self._source = source
        self._enable_cache = enable_cache
        self._stats = stats if stats is not None else CacheStats()
        self._lock = threading.Lock()
        self._current: Snapshot | None = None
        self.publishes = 0

    @property
    def epoch(self) -> int:
        """Publication count (0 before the first snapshot)."""
        snapshot = self._current
        return 0 if snapshot is None else snapshot.epoch

    def current(self) -> Snapshot | None:
        """The latest published snapshot (lock-free; None before first)."""
        return self._current

    def _live_view(self) -> NetworkView:
        if isinstance(self._source, Collector):
            return self._source.view()
        return self._source

    def _live_stamp(self, view: NetworkView) -> tuple:
        return (
            view.generation,
            view.structure_generation,
            view.metrics.latest_timestamp(),
        )

    def refresh(self) -> Snapshot:
        """Publish a successor if the live view moved; return the current.

        O(1) when nothing changed: one stamp comparison, no lock.  Raises
        :class:`~repro.util.errors.CollectorError` while a collector source
        has no view yet.
        """
        snapshot = self._current
        view = self._live_view()
        if snapshot is not None and snapshot._stamp == self._live_stamp(view):
            return snapshot
        with self._lock:
            # Re-read under the lock: another publisher call may have won.
            view = self._live_view()
            stamp = self._live_stamp(view)
            snapshot = self._current
            if snapshot is not None and snapshot._stamp == stamp:
                return snapshot
            return self._publish(view, stamp)

    def _publish(self, view: NetworkView, stamp: tuple) -> Snapshot:
        """Assemble the successor privately; install it atomically."""
        with obs.span("snapshot.publish") as sp:
            frozen_metrics = view.metrics.frozen_clone()
            frozen_view = NetworkView(
                topology=view.topology,
                metrics=frozen_metrics,
                generation=view.generation,
                structure_generation=view.structure_generation,
            )
            frozen_view.freeze()
            previous = self._current
            if previous is None:
                modeler = Modeler(
                    frozen_view,
                    RoutingTable(frozen_view.topology),
                    stats=self._stats,
                    enable_cache=self._enable_cache,
                )
            else:
                modeler = previous.modeler.fork(frozen_view)
            epoch = self.publishes + 1
            snapshot = Snapshot(
                view=frozen_view,
                modeler=modeler,
                epoch=epoch,
                stamp=stamp,
                published_at=time.time(),
            )
            if sp:
                sp.set(epoch=epoch, generation=view.generation)
        # The one store every reader synchronises on: atomic under the GIL.
        self._current = snapshot
        self.publishes = epoch
        obs.inc(
            "remos_snapshots_published_total",
            help="Immutable snapshots published to readers",
        )
        if _log.enabled_for("debug"):
            _log.debug(
                "snapshot_published",
                epoch=epoch,
                generation=view.generation,
                structure_generation=view.structure_generation,
            )
        return snapshot
