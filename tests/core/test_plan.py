"""The shared flow-query plan, driven without a topology.

``repro.core.plan.evaluate`` takes a resolver and a pricer; everything the
facades add is where those two come from.  A fake resolver and a table of
constant prices are therefore enough to reproduce the paper's §4.2
semantics: fixed flows satisfied first, variable flows sharing in
proportion to their relative requirements (3 / 4.5 / 9), an independent
flow absorbing what is left — read at the availability quartiles.
"""

import pytest

from repro.core import Flow, Remos, Timeframe, plan
from repro.core.plan import Footprint
from repro.stats import StatMeasure
from repro.util import mbps
from repro.util.errors import QueryError

from tests.core.conftest import line_topology, measured_view

TIMEFRAME = Timeframe.history(30.0)

#: Which resources each (src, dst) pair crosses, with latency and hops.
FOOTPRINTS = {
    ("a", "b"): Footprint(("core",), 0.002, 2),
    ("v", "w"): Footprint(("core", "shared"), 0.003, 3),
    ("i", "j"): Footprint(("core", "ghost"), 0.001, 1),
}

#: "shared" is the variable flows' own bottleneck and the uncertain one.
PRICES = {
    "core": StatMeasure.constant(mbps(30)),
    "shared": StatMeasure(
        minimum=mbps(8.25),
        q1=mbps(11),
        median=mbps(16.5),
        q3=mbps(16.5),
        maximum=mbps(33),
        mean=mbps(16.5),
        n_samples=20,
        accuracy=0.8,
    ),
}


def resolve(flow) -> Footprint:
    return FOOTPRINTS[flow.src, flow.dst]


class CountingPricer:
    def __init__(self, prices=PRICES):
        self.prices = prices
        self.calls: list = []

    def __call__(self, key):
        self.calls.append(key)
        return self.prices.get(key)  # "ghost" is unpriceable: None


FIXED = [Flow("a", "b", requested=mbps(5))]
VARIABLE = [
    Flow("v", "w", requested=3.0, name="three"),
    Flow("v", "w", requested=4.5, name="four-and-a-half"),
    Flow("v", "w", requested=9.0, name="nine"),
]
INDEPENDENT = [Flow("i", "j")]


class TestPaperExample:
    def test_three_classes_in_priority_order(self):
        price = CountingPricer()
        result = plan.evaluate(resolve, price, FIXED, VARIABLE, INDEPENDENT, TIMEFRAME)

        (fixed,) = result.fixed
        assert fixed.satisfied is True and fixed.bottleneck is None
        assert fixed.bandwidth == StatMeasure(
            *[mbps(5)] * 5, mean=mbps(5), n_samples=5, accuracy=0.8
        )
        # 16.5 Mbps of "shared" split 3 : 4.5 : 9.
        medians = [answer.bandwidth.median for answer in result.variable]
        assert medians == pytest.approx([mbps(3), mbps(4.5), mbps(9)])
        assert {answer.bottleneck for answer in result.variable} == {"shared"}
        assert all(answer.satisfied is None for answer in result.variable)
        # The independent flow absorbs what the first two stages left of
        # "core": 30 - 5 - 16.5; its unpriceable "ghost" constrains nothing.
        (independent,) = result.independent
        assert independent.bandwidth.median == pytest.approx(mbps(8.5))
        assert independent.bottleneck == "core"

    def test_read_at_the_availability_quartiles(self):
        result = plan.evaluate(
            resolve, CountingPricer(), FIXED, VARIABLE, INDEPENDENT, TIMEFRAME
        )
        nine = result.answer("nine").bandwidth
        assert nine.minimum == pytest.approx(mbps(4.5))  # "shared" at 8.25
        assert nine.q1 == pytest.approx(mbps(6))  # at 11
        # At the optimistic end "core" binds instead: (30 - 5) split 3:4.5:9.
        assert nine.maximum == pytest.approx(mbps(25) * 9 / 16.5)
        assert result.independent[0].bandwidth.minimum == pytest.approx(0.0)
        for answer in result.answers:
            bandwidth = answer.bandwidth
            assert (
                bandwidth.minimum <= bandwidth.q1 <= bandwidth.median
                <= bandwidth.q3 <= bandwidth.maximum
            )
            # As accurate as the worst measure the query read.
            assert bandwidth.accuracy == 0.8 and bandwidth.n_samples == 5

    def test_resolver_supplies_latency_and_hops(self):
        result = plan.evaluate(resolve, CountingPricer(), FIXED, [], INDEPENDENT, TIMEFRAME)
        assert result.timeframe is TIMEFRAME
        assert result.fixed[0].latency == StatMeasure.constant(0.002)
        assert result.fixed[0].hop_count == 2
        assert result.independent[0].hop_count == 1
        assert result.fixed[0].label == "fixed[0]:a->b"

    def test_each_crossed_resource_is_priced_once(self):
        price = CountingPricer()
        plan.evaluate(resolve, price, FIXED, VARIABLE, INDEPENDENT, TIMEFRAME)
        assert sorted(price.calls) == ["core", "ghost", "shared"]

    def test_duplicate_labels_are_refused(self):
        twins = [Flow("v", "w", name="same"), Flow("a", "b", name="same")]
        with pytest.raises(QueryError, match="labels must be unique"):
            plan.evaluate(resolve, CountingPricer(), [], twins, [], TIMEFRAME)

    def test_admission_twin_reads_median_prices(self):
        price = CountingPricer()
        fits = [Flow("a", "b", requested=mbps(10)), Flow("v", "w", requested=mbps(16))]
        assert plan.admission(resolve, price, fits).admitted
        assert sorted(price.calls) == ["core", "shared"]
        report = plan.admission(
            resolve, CountingPricer(), [*fits, Flow("i", "j", requested=mbps(6))]
        )
        assert not report.admitted
        assert report.oversubscribed == {"core": pytest.approx(mbps(2))}


class TestUnpriceableKeys:
    """What an unpriceable key means is the pricer's decision."""

    def test_local_pricer_leaves_it_unconstrained(self):
        view = measured_view(line_topology(), {("t23", "r2"): mbps(60)})
        remos = Remos(view)
        flows = [Flow("h1", "h3"), Flow("h2", "h4", requested=2.0)]
        local = plan.LocalSource(remos._modeler(), TIMEFRAME)
        assert local.price(("alien", "resource")) is None

        def tainted(flow):
            footprint = local.resolve(flow)
            return footprint._replace(
                resources=(*footprint.resources, ("alien", "resource"))
            )

        expected = remos.flow_info(variable_flows=flows, timeframe=TIMEFRAME)
        assert plan.evaluate(tainted, local.price, [], flows, [], TIMEFRAME) == expected
        assert plan.admission(
            tainted, local.price, [Flow("h1", "h3", requested=mbps(30))]
        ).admitted

    def test_refusing_pricer_fails_the_query(self):
        def strict(key):
            if key not in PRICES:
                raise QueryError(f"no shard can price resource {key!r}")
            return PRICES[key]

        with pytest.raises(QueryError, match="no shard can price resource 'ghost'"):
            plan.evaluate(resolve, strict, FIXED, VARIABLE, INDEPENDENT, TIMEFRAME)
        with pytest.raises(QueryError, match="no shard can price"):
            plan.admission(resolve, strict, [Flow("i", "j", requested=1.0)])
        # Without the flow that crosses it, the same pricer answers.
        assert plan.evaluate(resolve, strict, FIXED, VARIABLE, [], TIMEFRAME).fixed
