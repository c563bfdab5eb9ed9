"""FederationService: the query service over a federation of cells.

The reader side (the flow-query turn, SLOs, slow-query log, health) and
the sweeper thread with its lifecycle are inherited unchanged from
:class:`~repro.service.core.SweepingService`, pointed at a
:class:`~repro.federation.api.FederatedRemos` facade.  What differs is
what one sweep publishes: every region cell, then the backbone, then the
re-merged aggregation tree — in that order, so readers always observe
cell epochs at least as new as the summary built from them.  (One thread,
many shards: the engine is not thread-safe, and a sweep is cheap —
per-cell refresh is an O(1) stamp compare when nothing moved.)
"""

from __future__ import annotations

from repro.federation.world import FederationWorld
from repro.service.core import SweepingService


class FederationService(SweepingService):
    """A snapshot-isolated query service over a :class:`FederationWorld`.

    Usage mirrors :class:`~repro.service.core.RemosService`::

        world = FederationWorld.build(shards=4, leaves=2, spines=2, hosts_per_leaf=8)
        with FederationService(world) as service:
            service.flow_info(variable_flows=[Flow("s0-leaf0-h0", "s3-leaf1-h2")])

    Parameters
    ----------
    world:
        The federation to serve (cells, backbone, aggregation tree).
    sweep_interval, sim_step, **front_end:
        As for :class:`~repro.service.core.SweepingService`.
    """

    def __init__(self, world: FederationWorld, **kwargs):
        super().__init__(world.make_remos(), world.env, **kwargs)
        self.world = world

    def _make_ready(self) -> None:
        pending = [cell.start() for cell in self.world.all_cells() if not cell.ready]
        if pending:
            self._env.run(until=self._env.all_of(pending))

    def _sweep_once(self) -> None:
        # Shard phases before the merge: the summary must never be newer
        # than the cells it describes.
        for cell in self.world.all_cells():
            cell.refresh()
        self.world.aggregator.refresh()

    def _stop_collectors(self) -> None:
        self.world.stop()
