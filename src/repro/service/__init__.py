"""The concurrent Remos query service.

The paper positions Remos as a *service* multiple network-aware
applications query at once: "the implementation is based on a distributed
set of Collectors" answering queries while measurement continues.  This
package is that deployment shape for the reproduction:

* a **single writer** — the sweep scheduler thread — advances the
  simulation, lets the collector(s) sweep, and publishes each completed
  sweep as an immutable :class:`~repro.core.snapshot.Snapshot`;
* any number of **reader threads** issue ``flow_info`` / ``get_graph`` /
  ``node_info`` / ``check_admission`` queries through
  :class:`RemosService`; each query pins the current snapshot once and
  never observes a partial sweep;
* concurrent ``flow_info`` requests evaluate **one at a time**: the work
  is CPU-bound Python, so two evaluations in flight only trade the GIL
  and both finish later.  Each epoch's expensive work is shared through
  the per-epoch price memo whoever asks, so there is nothing left for a
  batch to amortise (``docs/CONCURRENCY.md`` has the measurements).

``repro serve`` (see :mod:`repro.cli`) exposes the service over HTTP with
``/metrics`` for Prometheus scraping: an asyncio event loop
(:mod:`repro.service.aio`) in front of the transport-agnostic application
layer (:mod:`repro.service.app`).  ``--workers N`` pre-forks N of those
servers on a shared socket (:mod:`repro.service.workers`); the parent
keeps the only sweeper and broadcasts each published epoch to the
workers.  The full threading model is documented in
``docs/CONCURRENCY.md``.
"""

from repro.service.aio import AioServer, AsyncHTTPServer, serve_aio
from repro.service.core import QueryFrontEnd, RemosService
from repro.service.workers import MultiProcessServer, WorkerReplica

__all__ = [
    "AioServer",
    "AsyncHTTPServer",
    "MultiProcessServer",
    "QueryFrontEnd",
    "RemosService",
    "WorkerReplica",
    "serve_aio",
]
