"""Event-driven fluid-flow network simulation.

This package animates a static :class:`~repro.net.Topology` over a
:class:`~repro.sim.Engine`: concurrent flows receive instantaneous rates
from the weighted max-min engine (:mod:`repro.fairshare`), and every change
to the flow set triggers a global re-allocation.  Between changes rates are
constant, so byte counts are exact integrals — which makes the simulated
SNMP octet counters (:mod:`repro.snmp`) faithful.

Packet-level detail is deliberately absent: every phenomenon the paper
measures (bottleneck sharing, competing traffic, hop latency) is a
rate-allocation phenomenon, and max-min is exactly the sharing model Remos
itself assumes (§4.2).
"""

from repro.netsim.fluid import FluidFlow, FluidNetwork, TransferHandle

__all__ = ["FluidNetwork", "FluidFlow", "TransferHandle"]
