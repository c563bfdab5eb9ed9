"""``StagedProblem.solve_levels``: many capacity rows, one answer per row.

From ``MIN_DEMANDS`` flows up (or when vectorization is forced) the three
stages are interned into one key space and each stage is one filling run
over every row; below that the rows are solved one by one.  Either way
each row's allocation must equal, field for field and bit for bit, what
the scalar level-by-level chain computes for that row alone — rates,
satisfied, bottlenecks, residual capacities and iteration counts, dict
order included.
"""

import math
import struct

import pytest
from hypothesis import given, settings, strategies as st

from repro import obs
from repro.fairshare import FlowRequest, StagedProblem, vectorized
from repro.util.errors import ConfigurationError

RESOURCES = tuple(f"r{i}" for i in range(6))
CLASSES = ("fixed", "variable", "independent")

capacities = st.one_of(
    st.floats(min_value=0.0, max_value=200.0),
    st.floats(min_value=-50.0, max_value=0.0),
    st.sampled_from([0.0, -0.0, 1.0, math.nan, math.inf]),
)
caps = st.one_of(
    st.just(math.inf), st.floats(min_value=0.0, max_value=60.0), st.just(0.0)
)
# Relative requirements well above the subnormals: ``headroom / weight``
# must not overflow (numpy warns where Python returns inf silently).
requests = st.one_of(st.floats(min_value=1e-3, max_value=40.0), st.just(0.0))


@st.composite
def staged_problems(draw):
    """Requests of all three classes (on both sides of ``MIN_DEMANDS``)
    and 1–6 capacity rows, each over its own subset of the resources."""
    resources = RESOURCES[: draw(st.integers(min_value=1, max_value=len(RESOURCES)))]
    total = draw(st.integers(min_value=1, max_value=2 * vectorized.MIN_DEMANDS))
    flows = {klass: [] for klass in CLASSES}
    for i in range(total):
        klass = draw(st.sampled_from(CLASSES))
        crossed = draw(st.lists(st.sampled_from(resources), max_size=4))  # repeats too
        flows[klass].append(
            FlowRequest(
                flow_id=f"{klass}{i}",
                resources=tuple(crossed),
                requested=draw(requests),
                cap=draw(caps),
            )
        )
    rows = [
        {key: draw(capacities) for key in resources if draw(st.booleans())}
        for _ in range(draw(st.integers(min_value=1, max_value=6)))
    ]
    return flows, rows


def bits(x: float) -> int:
    return struct.unpack("<Q", struct.pack("<d", x))[0]


def fingerprint(allocation):
    """Every field of a StagedAllocation, floats as bits, order kept."""
    return (
        [(key, bits(rate)) for key, rate in allocation.rates.items()],
        list(allocation.satisfied.items()),
        list(allocation.bottlenecks.items()),
        [(key, bits(cap)) for key, cap in allocation.residual_capacity.items()],
        allocation.iterations,
    )


def outcome(solve):
    try:
        return [fingerprint(allocation) for allocation in solve()]
    except ConfigurationError as error:  # FP stagnation: same error both ways
        return str(error)


@pytest.mark.parametrize("mode", [True, False, None], ids=["forced", "scalar", "auto"])
@settings(max_examples=150, deadline=None)
@given(problem=staged_problems())
def test_solve_levels_equals_each_row_solved_alone(mode, problem):
    flows, rows = problem
    vectorized.set_vectorized(False)
    try:
        oracle = outcome(
            lambda: [StagedProblem(**flows).solve(dict(row)) for row in rows]
        )
        vectorized.set_vectorized(mode)
        staged = StagedProblem(**flows)
        assert outcome(lambda: staged.solve_levels(rows)) == oracle
        assert outcome(lambda: [staged.solve(row) for row in rows]) == oracle
    finally:
        vectorized.set_vectorized(None)


def test_forced_levels_fill_each_stage_once_under_one_span(monkeypatch):
    if not vectorized.HAVE_NUMPY:
        pytest.skip("numpy not installed; no level axis")
    calls = []
    fill = vectorized.fill

    def counted(arrays, remaining, present, thresholds):
        calls.append(remaining.shape)
        return fill(arrays, remaining, present, thresholds)

    monkeypatch.setattr(vectorized, "fill", counted)
    problem = StagedProblem(
        fixed=[FlowRequest("f", ("a",), requested=3.0)],
        variable=[FlowRequest("v", ("a", "b"), requested=2.0)],
        independent=[FlowRequest("i", ("b",))],
    )
    rows = [{"a": 10.0 * level, "b": 5.0} for level in range(6)]
    obs.configure_observability(metrics=False, tracing=True, logging=False)
    try:
        vectorized.set_vectorized(True)
        problem.solve_levels(rows)
        trace = obs.get_tracer().last_trace("fairshare.allocate")
    finally:
        vectorized.set_vectorized(None)
        obs.reset_observability()
    assert calls == [(6, 1), (6, 2), (6, 1)]  # one run per stage, six rows each
    assert trace.attributes["levels"] == 6
