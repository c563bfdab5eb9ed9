"""Answer checking: per-response invariants and a frozen-server oracle.

Two strengths of check, both feeding the failed count:

* :func:`check_response` runs on **every** response of every phase: status
  200, JSON parses, one answer per requested flow/node, quartiles ordered,
  bandwidths within the link capacity, accuracies in [0, 1].
* :func:`oracle_mismatches` runs once per workload against a *frozen*
  server (sweeper parked, so its snapshot never moves): sampled pool
  requests must be answered exactly as an in-process
  ``World.start_monitoring`` stack built from the same seed answers them —
  flows equal to the bit, graphs compared keyed by node/edge name because
  their list order follows set iteration order.
"""

from __future__ import annotations

import json

from repro.core import Flow, Timeframe

import worlds

ORACLE_SAMPLES = 30
_QUARTILES = ("min", "q1", "median", "q3", "max")
_SLACK = 1.0 + 1e-9  #: float slack on the capacity ceiling


def _check_measure(measure: dict, ceiling: float, what: str) -> None:
    values = [measure[name] for name in _QUARTILES]
    if values != sorted(values):
        raise ValueError(f"{what}: quartiles out of order {values}")
    if values[0] < 0.0 or values[-1] > ceiling * _SLACK:
        raise ValueError(f"{what}: outside [0, {ceiling:g}]: {values}")
    if not 0.0 <= measure["accuracy"] <= 1.0:
        raise ValueError(f"{what}: accuracy {measure['accuracy']} outside [0, 1]")


def check_response(request, status: int, body: bytes, capacity: float) -> str | None:
    """None when *body* is a valid answer to *request*, else what is wrong.

    *capacity* is the world's access-link capacity (bits/s): no flow can be
    granted more than the link its endpoint hangs on.
    """
    if status != 200:
        return f"status {status}"
    try:
        answer = json.loads(body)
        if request.kind == "flow":
            flows = answer["variable"]
            if [(f["src"], f["dst"]) for f in flows] != list(request.pairs):
                return "answered flows do not match the requested flows"
            # Forecasts of *used* bandwidth can go negative at this commit,
            # so a FUTURE answer may exceed the link; only measured
            # timeframes are held to the physical ceiling.
            forecast = (request.timeframe or {}).get("kind") == "future"
            ceiling = float("inf") if forecast else capacity
            for flow in flows:
                _check_measure(flow["bandwidth"], ceiling, flow["label"])
        elif request.kind == "graph":
            names = {node["name"] for node in answer["nodes"]}
            if not names.issuperset(request.nodes):
                return f"graph lacks query nodes {sorted(set(request.nodes) - names)}"
            for edge in answer["edges"]:
                for endpoint, measure in edge["available"].items():
                    _check_measure(measure, edge["capacity"], f"{edge['name']}@{endpoint}")
        else:
            if answer["name"] != request.nodes[0]:
                return f"asked for {request.nodes[0]}, answered {answer['name']}"
            _check_measure(answer["cpu_load"], 1.0, "cpu_load")
            _check_measure(answer["cpu_available"], 1.0, "cpu_available")
    except (ValueError, KeyError, TypeError) as exc:
        return f"{type(exc).__name__}: {exc}"
    return None


def parse_timeframe(spec: dict | None) -> Timeframe:
    """The :class:`Timeframe` a request's JSON timeframe spec denotes."""
    kind = (spec or {}).get("kind", "current")
    if kind == "history":
        return Timeframe.history(spec["window"])
    if kind == "future":
        return Timeframe.future(spec["horizon"], predictor=spec["predictor"])
    return Timeframe.static() if kind == "static" else Timeframe.current()


def oracle_answer(remos, request) -> dict:
    """What an in-process facade answers to *request*, in wire form."""
    timeframe = parse_timeframe(request.timeframe)
    if request.kind == "flow":
        flows = [Flow(src, dst) for src, dst in request.pairs]
        result = remos.flow_info(variable_flows=flows, timeframe=timeframe)
    elif request.kind == "graph":
        result = remos.get_graph(list(request.nodes), timeframe)
    else:
        result = remos.node_info(request.nodes[0], timeframe)
    return json.loads(json.dumps(result.to_dict()))


def canonical(answer: dict) -> dict:
    """*answer* with order-free parts keyed by name (graphs only)."""
    if "edges" not in answer:
        return answer
    keyed = dict(answer)
    keyed["nodes"] = {node["name"]: node for node in answer["nodes"]}
    keyed["edges"] = {
        edge["name"]: dict(edge, physical_links=sorted(edge["physical_links"]))
        for edge in answer["edges"]
    }
    return keyed


def oracle_mismatches(world: str, seed: int, requests: list, fetch) -> list[str]:
    """Compare a frozen server's answers with an in-process oracle's.

    *fetch(request)* returns the server's ``(status, body)``.  Both sides
    see the same requests in the same order, so FUTURE queries meet the
    same forecast state.
    """
    oracle_world = worlds.build_world(world, seed)
    remos = oracle_world.start_monitoring(warmup=worlds.WARMUP_S)
    mismatches = []
    for request in requests:
        status, body = fetch(request)
        if status != 200:
            mismatches.append(f"{request.target}: status {status}")
            continue
        if canonical(json.loads(body)) != canonical(oracle_answer(remos, request)):
            mismatches.append(f"{request.method} {request.target}: differs from oracle")
    return mismatches
