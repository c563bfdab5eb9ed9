"""The array evaluator against the plan, scenario by scenario.

``Remos`` answers every single-cell unicast scenario with
:func:`repro.core.snaparrays.evaluate_flow_query`, from one flow up; the
shared plan (:func:`repro.core.plan.evaluate` over a
:class:`~repro.core.plan.LocalSource`) is its oracle.  Both are called
directly here on one epoch, over small mixed scenarios — the sizes that
used to go to the plan — at every timeframe kind, with unknown endpoints,
routers as endpoints and duplicate labels mixed in: the answers must be
the same text, or the raised errors the same type and message.
"""

import functools
import random

from hypothesis import given, settings, strategies as st

from repro.collector import MetricsStore
from repro.collector.base import NetworkView
from repro.core import Flow, Remos, Timeframe, plan, snaparrays
from repro.net import TopologyBuilder

HOSTS = [f"h{i}" for i in range(8)]
#: Endpoints a query may name besides the hosts: a router, a stranger.
BAD = ["leaf0", "core", "nowhere"]

TIMEFRAMES = [
    Timeframe.static(),
    Timeframe.current(),
    Timeframe.history(6.0),
    Timeframe.history(40.0),
    Timeframe.future(5.0, predictor="auto", window=30.0),
    Timeframe.future(3.0, predictor="ewma", window=20.0),
]


@functools.lru_cache(maxsize=1)
def modeler():
    """One measured epoch: two leaves (one with a finite crossbar), noisy
    load on every direction, some directions idle."""
    builder = TopologyBuilder("diff").router("core")
    for leaf in range(2):
        crossbar = "300Mbps" if leaf == 0 else float("inf")
        builder.router(f"leaf{leaf}", internal_bandwidth=crossbar)
        builder.link(f"leaf{leaf}", "core", "200Mbps", "0.5ms", name=f"up{leaf}")
        for host in HOSTS[4 * leaf : 4 * leaf + 4]:
            builder.host(host).link(host, f"leaf{leaf}", "100Mbps", "0.1ms", name=f"a{host}")
    topology = builder.build()
    rng = random.Random(41)
    metrics = MetricsStore()
    for direction in topology.iter_directions():
        level = rng.choice([0.0, rng.uniform(0.0, 0.9)]) * direction.capacity
        for t in range(30):
            metrics.record(
                direction.link.name, direction.src, float(t), level * rng.uniform(0.6, 1.4)
            )
    return Remos(NetworkView(topology=topology, metrics=metrics))._modeler()


#: About one endpoint in 30 is bad, so most scenarios get answered.
endpoints = st.sampled_from(HOSTS * 10 + BAD)


@st.composite
def flows(draw):
    src, dst = draw(endpoints), draw(endpoints)
    return Flow(
        src,
        dst,
        requested=draw(st.sampled_from([0.0, 1.0, 2.5, 9.0, 40e6, 150e6])),
        cap=draw(st.sampled_from([float("inf"), float("inf"), 5e6, 60e6])),
        # Two flows both named "x" collide; so can a name and a default label.
        name=draw(st.sampled_from([None] * 12 + ["x", "fixed[0]:h0->h1"])),
    )


@st.composite
def scenarios(draw):
    total = draw(st.integers(min_value=1, max_value=11))
    classes = {"fixed": [], "variable": [], "independent": []}
    for _ in range(total):
        classes[draw(st.sampled_from(list(classes)))].append(draw(flows()))
    return classes, draw(st.sampled_from(TIMEFRAMES))


def outcome(evaluate):
    try:
        return evaluate().to_json()
    except Exception as error:  # noqa: BLE001 - error parity is the assertion
        return type(error).__name__, str(error)


@settings(max_examples=300, deadline=None)
@given(scenario=scenarios())
def test_array_evaluator_answers_what_the_plan_answers(scenario):
    classes, timeframe = scenario
    fixed, variable, independent = classes["fixed"], classes["variable"], classes["independent"]
    epoch = modeler()
    local = plan.LocalSource(epoch, timeframe)
    expected = outcome(
        lambda: plan.evaluate(
            local.resolve, local.price, fixed, variable, independent, timeframe
        )
    )
    assert snaparrays.vectorizable(fixed, variable, independent)
    assert outcome(
        lambda: snaparrays.evaluate_flow_query(
            epoch, fixed, variable, independent, timeframe
        )
    ) == expected
