"""The benchmark's server launcher: one real Remos service on a loopback port.

Spawned by ``run.py`` as its own process, configured the way ``repro
serve`` configures its service (metrics on, product tracing on, admission
off, the CLI's front-end defaults) over one of the benchmark worlds.
Prints ``READY <port>`` once the first snapshot is published and the
socket listens, serves until its stdin closes, then shuts down — so a
dead parent never leaves a server behind.

With ``--trace-out FILE`` the public callables named in
``tracing.LAYER_BOUNDARIES`` are wrapped before the world is built and
the folded spans are written to FILE at shutdown.
"""

from __future__ import annotations

import argparse
import json
import sys

from repro import obs
from repro.federation import FederationService
from repro.service import RemosService, serve_aio

import tracing
import worlds

#: ``repro serve``'s defaults for everything the benchmark does not vary.
FRONT_END = dict(
    sim_step=1.0,
    workers=4,
    slow_query_threshold=0.25,
    max_epoch_age=10.0,
    max_sweep_seconds=5.0,
    admission_mode="off",
    admission_threshold_qps=200.0,
    admission_horizon=5.0,
    admission_retry_after=1.0,
)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--world", choices=worlds.WORLDS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--sweep-interval", type=float, required=True)
    parser.add_argument("--trace-out", help="wrap the layer boundaries; write spans here")
    args = parser.parse_args(argv)

    recorder, unresolved = None, []
    if args.trace_out:
        recorder = tracing.Recorder()
        unresolved = tracing.install(recorder)
    obs.configure_observability(metrics=True, tracing=True, logging=False)
    world = worlds.build_world(args.world, args.seed)
    front_end = dict(FRONT_END, sweep_interval=args.sweep_interval)
    if args.world == "fed4":
        service = FederationService(world, **front_end)
    else:
        service = RemosService.from_world(world, **front_end)
    service.start(warmup=worlds.WARMUP_S)
    server = serve_aio(service, host="127.0.0.1", port=0)
    try:
        print(f"READY {server.address[1]}", flush=True)
        sys.stdin.read()  # serve until the parent closes our stdin
    finally:
        server.stop()
        service.stop()
    if recorder is not None:
        report = tracing.summarize(recorder.threads)
        report["unresolved"] = unresolved
        with open(args.trace_out, "w") as out:
            json.dump(report, out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
