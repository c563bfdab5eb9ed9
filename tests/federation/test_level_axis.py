"""Cross-shard scenarios allocate all six availability levels in one call.

A composed scenario runs the shared plan over the query pin, and the
plan's allocate stage is ``StagedProblem.solve_levels``: from
``MIN_DEMANDS`` flows up, one filling run per stage over every level.
That must answer exactly what the level-by-level scalar chain answers, at
every timeframe, and record one ``fairshare.allocate`` span (``levels=6``).
"""

import json

import pytest

from repro import obs
from repro.core import Flow, FlowQuery, Timeframe
from repro.core.plan import PRICED
from repro.fairshare import StagedProblem

A, B, C, D, E, F = (
    "s0-leaf0-h0",
    "s0-leaf1-h1",
    "s1-leaf0-h0",
    "s1-leaf1-h1",
    "s2-leaf0-h1",
    "s2-leaf1-h0",
)

#: 14 flows over three shards, every class, intra- and cross-shard alike.
QUERY = FlowQuery(
    fixed=[
        Flow(A, C, requested=40e6),
        Flow(D, E, requested=25e6),
        Flow(F, B, requested=900e6),  # more than any path carries
        Flow(A, B, requested=10e6),
    ],
    variable=[
        Flow(A, D, requested=1.0),
        Flow(B, E, requested=2.0),
        Flow(C, F, requested=3.0, cap=20e6),
        Flow(E, A, requested=1.0),
        Flow(D, C, requested=4.5),
        Flow(F, D, requested=9.0),
    ],
    independent=[
        Flow(B, C),
        Flow(C, E, cap=5e6),
        Flow(E, F),
        Flow(F, A),
    ],
)

TIMEFRAMES = [
    Timeframe.static(),
    Timeframe.current(),
    Timeframe.history(5.0),
    Timeframe.future(10.0, predictor="auto", window=120.0),
]


def level_by_level(self, levels):
    """The scalar oracle of ``StagedProblem.solve_levels``: one chain per row."""
    return [self._solve(capacities) for capacities in levels]


@pytest.mark.parametrize("timeframe", TIMEFRAMES, ids=lambda tf: tf.kind.value)
def test_answers_bit_identical_to_the_level_by_level_chain(
    loaded_world, timeframe, monkeypatch
):
    _world, remos, _oracle = loaded_world
    assert remos.home_shard(e for f in QUERY.flows for e in f.endpoints) is None
    auto = remos.flow_info_batch([QUERY], timeframe)[0]
    monkeypatch.setattr(StagedProblem, "solve_levels", level_by_level)
    scalar = remos.flow_info_batch([QUERY], timeframe)[0]
    assert len(auto.answers) == len(QUERY.flows) == 14
    # JSON floats round-trip exactly, -0.0 included: equal text, equal bits.
    assert json.dumps(auto.to_dict()) == json.dumps(scalar.to_dict())


def spans_named(span, name: str) -> list:
    found = [span] if span.name == name else []
    for child in span.children():
        found.extend(spans_named(child, name))
    return found


def test_one_allocate_span_with_six_levels(loaded_world):
    _world, remos, _oracle = loaded_world
    obs.configure_observability(metrics=False, tracing=True, logging=False)
    try:
        remos.flow_info_batch([QUERY], Timeframe.current())
        trace = obs.get_tracer().last_trace("query.flow_info_batch")
        (allocate,) = spans_named(trace, "fairshare.allocate")
    finally:
        obs.reset_observability()
    assert allocate.attributes["levels"] == len(PRICED) == 6
    assert allocate.attributes["fixed"] == 4
    assert allocate.attributes["variable"] == 6
    assert allocate.attributes["independent"] == 4
