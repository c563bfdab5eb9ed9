"""Vectorized max-min kernels vs the scalar loop: bit-identical.

The numpy waterfilling kernel (:mod:`repro.fairshare.vectorized`) is a
*reordering* of the scalar loop's float operations, not a reformulation:
``np.bincount`` accumulates weight sums in entry order, theta updates are
applied full-vector with masked zero weights (adding ``+0.0`` never
perturbs a positive partial sum), and multi-saturation bottleneck
attribution reproduces the scalar pass's in-order freeze.  So the
contract is exact: equal float *bits* for every rate and residual, the
same dict ordering, the same bottleneck attributions, the same iteration
count, and the same raised errors — across randomized adversarial inputs
(duplicate crossings, zero/absent capacities, zero caps, infinities).

The API-level test closes the loop end to end: ``flow_info_batch``
answers over a real topology must be equal whether the array evaluator
or the scalar path computed them.
"""

import math
import os
import random
import struct

import pytest
from hypothesis import given, settings, strategies as st

from repro.fairshare import Demand, MaxMinProblem
from repro.fairshare import vectorized
from repro.fairshare.maxmin import _EPS

if vectorized.HAVE_NUMPY:
    import numpy as np

pytestmark = pytest.mark.skipif(
    not vectorized.HAVE_NUMPY, reason="numpy not installed; no vectorized kernel"
)


def bits(x: float) -> int:
    return struct.unpack("<Q", struct.pack("<d", x))[0]


def assert_same_floats(a: dict, b: dict, label: str) -> None:
    assert list(a) == list(b), f"{label}: key order diverged"
    for key in a:
        x, y = a[key], b[key]
        same = (math.isnan(x) and math.isnan(y)) or bits(x) == bits(y)
        assert same, f"{label}[{key}]: {x!r} vs {y!r}"


@pytest.fixture(autouse=True)
def _restore_mode():
    yield
    vectorized.set_vectorized(None)


def random_problem(rng: random.Random):
    n_res = rng.randint(1, 12)
    resources = [f"r{i}" for i in range(n_res)]
    demands = []
    for i in range(rng.randint(1, 40)):
        k = rng.randint(1, min(5, n_res))
        crossed = tuple(rng.choice(resources) for _ in range(k))  # repeats allowed
        weight = rng.choice([1.0, 1.0, rng.uniform(0.1, 10.0)])
        cap = rng.choice([math.inf, math.inf, rng.uniform(0.0, 50.0), 0.0])
        demands.append(
            Demand(flow_id=f"f{i}", resources=crossed, weight=weight, cap=cap)
        )
    capacities = {}
    for resource in resources:
        if rng.random() < 0.8:  # some resources absent from capacities
            capacities[resource] = rng.choice(
                [rng.uniform(0.0, 100.0), 0.0, rng.uniform(0.0, 1.0)]
            )
    return demands, capacities


def solve_both(demands, capacities):
    """(scalar result|error, vectorized result|error) for one problem."""
    outcomes = []
    for mode in (False, True):
        vectorized.set_vectorized(mode)
        try:
            outcomes.append((MaxMinProblem(demands).solve(dict(capacities)), None))
        except Exception as exc:  # noqa: BLE001 - error parity is the assertion
            outcomes.append((None, (type(exc).__name__, str(exc))))
    vectorized.set_vectorized(None)
    return outcomes


def check_identical(demands, capacities) -> None:
    (scalar, scalar_err), (vector, vector_err) = solve_both(demands, capacities)
    assert scalar_err == vector_err
    if scalar is None:
        return
    assert_same_floats(dict(scalar.rates), dict(vector.rates), "rates")
    assert scalar.bottlenecks == vector.bottlenecks
    assert_same_floats(
        dict(scalar.residual_capacity), dict(vector.residual_capacity), "residual"
    )
    assert scalar.iterations == vector.iterations


def test_differential_fuzz_bit_identical():
    rng = random.Random(20260808)
    for _ in range(500):
        check_identical(*random_problem(rng))


def fill_levels(demands, keys, rows):
    """One :func:`vectorized.fill` over capacity *rows* (each aligned with
    *keys*), read back per level in ``MaxMinResult`` terms."""
    arrays = vectorized.DemandArrays(demands)
    column = {key: j for j, key in enumerate(arrays.res_keys)}
    crossed = [(k, column[key]) for k, key in enumerate(keys) if key in column]
    remaining = np.zeros((len(rows), len(arrays.res_keys)))
    present = np.zeros(len(arrays.res_keys), dtype=bool)
    for k, j in crossed:
        present[j] = True
        remaining[:, j] = [max(0.0, float(row[k])) for row in rows]
    thresholds = _EPS * np.maximum(remaining, 1.0)
    rates, bottleneck, iterations = vectorized.fill(
        arrays, remaining, present, thresholds
    )
    assert rates.shape == bottleneck.shape == (len(rows), len(demands))
    levels = []
    for level in range(len(rows)):
        levels.append(
            (
                {d.flow_id: float(rates[level, i]) for i, d in enumerate(demands)},
                {
                    d.flow_id: None if r < 0 else arrays.res_keys[r]
                    for d, r in zip(demands, bottleneck[level].tolist())
                },
                {keys[k]: float(remaining[level, j]) for k, j in crossed},
                int(iterations[level]),
            )
        )
    return levels


def check_levels_identical(demands, keys, rows) -> None:
    """Every level of one kernel run == the scalar solve of that row alone."""
    problem = MaxMinProblem(demands)
    for level, (rates, bottlenecks, residual, iterations) in enumerate(
        fill_levels(demands, keys, rows)
    ):
        scalar = problem.solve_scalar(dict(zip(keys, rows[level])))
        assert_same_floats(dict(scalar.rates), rates, f"rates@{level}")
        assert scalar.bottlenecks == bottlenecks, f"bottlenecks@{level}"
        assert_same_floats(
            {key: scalar.residual_capacity[key] for key in residual},
            residual,
            f"residual@{level}",
        )
        assert scalar.iterations == iterations, f"iterations@{level}"


def random_rows(rng: random.Random, capacities: dict, count: int) -> list[list[float]]:
    """*count* capacity rows over one key set, degenerate rows included."""
    base = list(capacities.values())
    rows = []
    for _ in range(count):
        kind = rng.randrange(6)
        if kind == 0:
            rows.append(list(base))  # the problem's own row (often repeated)
        elif kind == 1:
            rows.append([0.0] * len(base))
        elif kind == 2:
            rows.append([1e12] * len(base))  # caps, not links, bind
        elif kind == 3:
            rows.append([math.inf] * len(base))  # nothing binds an uncapped flow
        elif kind == 4 and rows:
            rows.append(list(rng.choice(rows)))  # an exact duplicate
        else:
            rows.append(
                [rng.choice([rng.uniform(0.0, 100.0), 0.0, cap]) for cap in base]
            )
    return rows


def test_level_axis_differential_fuzz_bit_identical():
    rng = random.Random(20261003)
    for _ in range(400):
        demands, capacities = random_problem(rng)
        rows = random_rows(rng, capacities, rng.randint(1, 6))
        check_levels_identical(demands, list(capacities), rows)


@st.composite
def two_row_problems(draw):
    rng = random.Random(draw(st.integers(min_value=0, max_value=2**32 - 1)))
    demands, capacities = random_problem(rng)
    return demands, list(capacities), random_rows(rng, capacities, 2)


@settings(max_examples=150, deadline=None)
@given(two_row_problems())
def test_levels_never_touch_each_other(problem):
    """Rows solved together == rows solved apart, in whichever order: a
    level that finishes early idles beside one still filling."""
    demands, keys, (a, b) = problem
    together = fill_levels(demands, keys, [a, b])
    assert fill_levels(demands, keys, [b, a]) == together[::-1]
    apart = fill_levels(demands, keys, [a]) + fill_levels(demands, keys, [b])
    for (rates, *rest), (rates_apart, *rest_apart) in zip(together, apart):
        assert_same_floats(rates, rates_apart, "rates")
        assert rest == rest_apart


def test_two_saturate_in_one_level_while_one_saturates_in_another():
    # Step one, theta = 5 in both levels: level 0 saturates r1 *and* r0
    # (contested: r1 ranks first, through a's first crossing, and takes
    # a), level 1 only r0 (no contest: r0 takes both).  c fills on.
    demands = [
        Demand(flow_id="a", resources=("r1", "r0")),
        Demand(flow_id="b", resources=("r0",)),
        Demand(flow_id="c", resources=("r2",)),
    ]
    keys = ["r0", "r1", "r2"]
    rows = [[10.0, 5.0, 100.0], [10.0, 20.0, 100.0]]
    check_levels_identical(demands, keys, rows)
    (_, contested, _, steps), (_, single, _, _) = fill_levels(demands, keys, rows)
    assert contested == {"a": "r1", "b": "r0", "c": "r2"}
    assert single == {"a": "r0", "b": "r0", "c": "r2"}
    assert steps == 2


def test_a_level_finished_unbounded_keeps_its_capped_flow_infinite():
    # "a"'s headroom over its subnormal weight overflows to inf, so level 0
    # (nothing binds) finishes in step one with every rate inf while level
    # 1 still fills: that step's cap freeze must not pull level 0's inf
    # back to the cap.
    demands = [
        Demand(flow_id="a", resources=(), weight=2.2250738585e-313, cap=1.0),
        Demand(flow_id="b", resources=("r0",)),
    ]
    with np.errstate(over="ignore"):
        check_levels_identical(demands, ["r0"], [[math.inf], [0.0]])
        (rates, *_), _ = fill_levels(demands, ["r0"], [[math.inf], [0.0]])
    assert rates == {"a": math.inf, "b": math.inf}


def test_single_demand_shapes():
    for cap in (math.inf, 5.0, 0.0):
        check_identical(
            [Demand(flow_id="f0", resources=("r0",), cap=cap)], {"r0": 10.0}
        )


def test_unconstrained_is_infinite_both_paths():
    demands = [Demand(flow_id="f0", resources=("missing",))]
    (scalar, _), (vector, _) = solve_both(demands, {"r0": 1.0})
    assert scalar.rates["f0"] == math.inf
    assert vector.rates["f0"] == math.inf


def test_shared_bottleneck_attribution():
    # Two resources saturate at the same theta: attribution must pick the
    # same winner on both paths (the scalar loop freezes in crossing order).
    demands = [
        Demand(flow_id="a", resources=("r0", "r1")),
        Demand(flow_id="b", resources=("r1", "r0")),
    ]
    check_identical(demands, {"r0": 10.0, "r1": 10.0})


def test_duplicate_crossings_count_twice():
    check_identical(
        [Demand(flow_id="a", resources=("r0", "r0"))],
        {"r0": 10.0},
    )


def test_forced_modes_route_to_their_kernels():
    demands = [Demand(flow_id=f"f{i}", resources=("r0",)) for i in range(3)]
    before = dict(vectorized.counters)
    vectorized.set_vectorized(True)
    MaxMinProblem(demands).solve({"r0": 9.0})
    assert vectorized.counters["vectorized_solves"] == before["vectorized_solves"] + 1
    vectorized.set_vectorized(False)
    MaxMinProblem(demands).solve({"r0": 9.0})
    assert vectorized.counters["scalar_solves"] == before["scalar_solves"] + 1


def test_auto_mode_uses_min_demands_threshold():
    if os.environ.get("REPRO_VECTORIZE") is not None:
        pytest.skip("REPRO_VECTORIZE pins a kernel; the auto heuristic is bypassed")
    vectorized.set_vectorized(None)
    small = [Demand(flow_id="f0", resources=("r0",))]
    before = dict(vectorized.counters)
    MaxMinProblem(small).solve({"r0": 1.0})
    assert vectorized.counters["scalar_solves"] == before["scalar_solves"] + 1
    large = [
        Demand(flow_id=f"f{i}", resources=("r0",))
        for i in range(vectorized.MIN_DEMANDS)
    ]
    before = dict(vectorized.counters)
    MaxMinProblem(large).solve({"r0": 1.0})
    assert (
        vectorized.counters["vectorized_solves"] == before["vectorized_solves"] + 1
    )


def test_flow_info_batch_answers_identical_end_to_end():
    """The whole query path: array evaluator vs scalar, equal answers."""
    from repro.collector import MetricsStore
    from repro.collector.base import NetworkView
    from repro.core import Flow, FlowQuery, Remos, Timeframe
    from repro.net import TopologyBuilder

    builder = TopologyBuilder("diff").router("core")
    hosts = []
    for leaf in range(4):
        router = f"leaf{leaf}"
        builder.router(router).link(router, "core", "1Gbps", "0.5ms")
        for slot in range(4):
            host = f"h{leaf * 4 + slot}"
            hosts.append(host)
            builder.host(host).link(host, router, "100Mbps", "0.1ms")
    topology = builder.build()
    pool = hosts[::3]
    queries = [
        FlowQuery(
            variable=[
                Flow(src, dst, requested=2.0)
                for src in pool
                for dst in pool
                if src != dst
            ]
        ),
        FlowQuery(
            fixed=[Flow(pool[0], pool[1], requested=40.0)],
            independent=[Flow(pool[2], pool[3], cap=30.0)],
        ),
    ]
    remos = Remos(NetworkView(topology=topology, metrics=MetricsStore()))
    timeframe = Timeframe.current()

    vectorized.set_vectorized(False)
    scalar_answers = remos.flow_info_batch(queries, timeframe)
    vectorized.set_vectorized(True)
    vector_answers = remos.flow_info_batch(queries, timeframe)

    assert scalar_answers == vector_answers
    for result in scalar_answers:
        assert result.answers  # non-degenerate comparison
