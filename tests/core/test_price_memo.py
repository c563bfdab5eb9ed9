"""The epoch price memo: each resource is priced once per epoch.

The contract under test (docs/PERFORMANCE.md, "The price memo"): on one
published epoch the first read of a resource costs one series summary
and one ``complement_of``; every later read — by any path: the array
evaluator, the lazy capacity views, admission — is a lookup.  A host's
CPU load is memoised the same way.
Answers stay those of the cold ``enable_cache=False`` oracle to the bit,
across sweeps, journal gaps, structural changes and metrics-only forks.
"""

import random
import sys
import threading
import time

import pytest
from hypothesis import given, settings, strategies as st

from repro.collector import MetricsStore
from repro.collector.base import NetworkView
from repro.collector.metrics import CPU_PSEUDO_LINK
from repro.core import Flow, Modeler, Remos, Timeframe
from repro.core import modeler as modeler_module
from repro.core.evaluator import TimeframeEvaluator
from repro.fairshare import vectorized
from repro.net import TopologyBuilder
from repro.stats import StatMeasure
from repro.util import mbps

HOSTS_PER_LEAF = 4


def tree_topology(n_hosts: int = 16, crossbar: float | str = float("inf")):
    """core -- leaf routers -- hosts: 1 Gbps uplinks, 100 Mbps access."""
    builder = TopologyBuilder(f"tree{n_hosts}").router("core")
    for leaf in range(n_hosts // HOSTS_PER_LEAF):
        builder.router(f"leaf{leaf}", internal_bandwidth=crossbar)
        builder.link(f"leaf{leaf}", "core", "1Gbps", "0.5ms", name=f"up{leaf}")
        for index in range(leaf * HOSTS_PER_LEAF, (leaf + 1) * HOSTS_PER_LEAF):
            builder.host(f"h{index}")
            builder.link(f"h{index}", f"leaf{leaf}", "100Mbps", "0.1ms", name=f"a{index}")
    return builder.build()


def hosts_of(topology) -> list[str]:
    return sorted((n.name for n in topology.compute_nodes), key=lambda h: int(h[1:]))


def sampled_view(topology, rng: random.Random, samples: int = 12) -> NetworkView:
    """Every direction measured at t = 0..samples-1 with its own noisy load."""
    metrics = MetricsStore()
    for direction in topology.iter_directions():
        level = rng.uniform(0.0, 0.6) * direction.capacity
        for i in range(samples):
            metrics.record(
                direction.link.name, direction.src, float(i), level * rng.uniform(0.5, 1.5)
            )
    return NetworkView(topology=topology, metrics=metrics)


def all_pairs(hosts: list[str]) -> list[Flow]:
    return [Flow(a, b) for a in hosts for b in hosts if a != b]


def crossed_directions(modeler: Modeler, flows: list[Flow]) -> set:
    return {
        hop.key for flow in flows for hop in modeler.routing.route(flow.src, flow.dst).hops
    }


@pytest.fixture
def pricing_calls(monkeypatch):
    """Counts of the two things pricing a resource costs."""
    calls = {"used": 0, "complement": 0}
    used, complement = Modeler._used_bandwidth, StatMeasure.complement_of

    def counting_used(self, *args):
        calls["used"] += 1
        return used(self, *args)

    def counting_complement(self, total):
        calls["complement"] += 1
        return complement(self, total)

    monkeypatch.setattr(Modeler, "_used_bandwidth", counting_used)
    monkeypatch.setattr(StatMeasure, "complement_of", counting_complement)
    return calls


TIMEFRAMES = {
    "history": Timeframe.history(10.0),
    "future": Timeframe.future(10.0, predictor="ewma", window=30.0),
}


class TestPricedOncePerEpoch:
    @pytest.mark.parametrize("timeframe", TIMEFRAMES.values(), ids=TIMEFRAMES.keys())
    @pytest.mark.parametrize("n_hosts", [10, 2], ids=["all-pairs-10", "scalar-2"])
    def test_cold_query_prices_each_direction_once_then_never(
        self, pricing_calls, timeframe, n_hosts
    ):
        topology = tree_topology()
        remos = Remos(sampled_view(topology, random.Random(5)))
        flows = all_pairs(hosts_of(topology)[2 : 2 + n_hosts])
        crossed = crossed_directions(remos._modeler(), flows)
        stats = remos.cache_stats

        first = remos.flow_info(variable_flows=flows, timeframe=timeframe)
        assert stats.misses == len(crossed)
        assert pricing_calls == {"used": len(crossed), "complement": len(crossed)}

        hits = stats.hits
        again = remos.flow_info(variable_flows=flows, timeframe=timeframe)
        assert again == first
        assert pricing_calls == {"used": len(crossed), "complement": len(crossed)}
        assert stats.misses == len(crossed)
        # One price read per crossed direction per scenario, on either kernel.
        assert stats.hits - hits == len(crossed)

    def test_every_path_reads_the_same_price(self, pricing_calls):
        """Vector query, scalar query, admission and the graph share one memo."""
        topology = tree_topology()
        remos = Remos(sampled_view(topology, random.Random(6)))
        hosts = hosts_of(topology)
        timeframe = TIMEFRAMES["history"]
        flows = all_pairs(hosts[:6])
        remos.flow_info(variable_flows=flows, timeframe=timeframe)
        priced = dict(pricing_calls)
        remos.flow_info(variable_flows=flows[:2], timeframe=timeframe)
        remos.check_admission(
            [Flow(hosts[0], hosts[5], requested=mbps(10))], timeframe
        )
        view = remos._modeler().capacity_view(timeframe, "q1")
        for key in crossed_directions(remos._modeler(), flows):
            assert key in view and view[key] >= 0.0
        assert pricing_calls == priced

    @pytest.mark.parametrize("n_hosts", [6, 2], ids=["vector-6", "scalar-2"])
    def test_crossbar_constants_are_not_cache_hits(self, n_hosts):
        """A finite crossbar is priced once too, but never stood in for a
        series summary: warm reads count the crossed directions only."""
        topology = tree_topology()
        finite = tree_topology(crossbar="400Mbps")
        hosts = hosts_of(topology)
        flows = all_pairs(hosts[2 : 2 + n_hosts])
        timeframe = TIMEFRAMES["history"]
        warm_hits = []
        for built in (topology, finite):
            remos = Remos(sampled_view(built, random.Random(5)))
            assert remos.flow_info(variable_flows=flows, timeframe=timeframe) == Remos(
                remos._modeler().view, enable_cache=False
            ).flow_info(variable_flows=flows, timeframe=timeframe)
            hits = remos.cache_stats.hits
            remos.flow_info(variable_flows=flows, timeframe=timeframe)
            warm_hits.append(remos.cache_stats.hits - hits)
        assert any(key[0] == "xbar" for key in remos._modeler()._prices[timeframe])
        assert warm_hits[0] == warm_hits[1] > 0

    def test_metrics_only_fork_reprices_but_keeps_the_rows(self, pricing_calls):
        topology = tree_topology()
        view = sampled_view(topology, random.Random(7))
        remos = Remos(view)
        timeframe = Timeframe.history(1000.0)  # nothing ever ages out
        flows = all_pairs(hosts_of(topology)[:6])
        crossed = crossed_directions(remos._modeler(), flows)
        before = remos.flow_info(variable_flows=flows, timeframe=timeframe)
        parent = remos._modeler()

        view.metrics.record("a15", "h15", 12.0, mbps(1))  # off every route
        view.record_sweep({("a15", "h15")})
        after = remos.flow_info(variable_flows=flows, timeframe=timeframe)
        child = remos._modeler()

        assert child is not parent and after == before
        # A fresh epoch: every crossed direction priced exactly once more.
        assert pricing_calls == {"used": 2 * len(crossed), "complement": 2 * len(crossed)}
        if vectorized.vectorization_enabled():
            assert child._snaparrays._routes is parent._snaparrays._routes
            assert (
                child._snaparrays._columns[timeframe][1]
                is not parent._snaparrays._columns[timeframe][1]
            )

    def test_structural_change_drops_rows_and_prices(self):
        if not vectorized.vectorization_enabled():
            pytest.skip("no array rows without the numpy kernels")
        topology = tree_topology()
        view = sampled_view(topology, random.Random(8))
        remos = Remos(view)
        cold = Remos(view, enable_cache=False)
        timeframe = TIMEFRAMES["history"]
        flows = all_pairs(hosts_of(topology)[:6])
        remos.flow_info(variable_flows=flows, timeframe=timeframe)
        routes = remos._modeler()._snaparrays._routes

        grown = tree_topology()
        grown.add_compute_node("h99")
        grown.add_link("h99", "leaf0", mbps(100), 1e-4, name="a99")
        view.topology = grown
        view.record_structure_change()
        flows = all_pairs(["h99", *hosts_of(topology)[:5]])
        answer = remos.flow_info(variable_flows=flows, timeframe=timeframe)
        assert answer == cold.flow_info(variable_flows=flows, timeframe=timeframe)
        assert remos._modeler()._snaparrays._routes is not routes


class TestCpuMemo:
    def test_node_info_evaluates_a_cpu_series_once_per_epoch(self, monkeypatch):
        view = sampled_view(tree_topology(), random.Random(10))
        for i in range(12):
            view.metrics.record_cpu("h3", float(i), 0.2 + 0.05 * (i % 4))
        evaluations = []
        evaluate = TimeframeEvaluator.evaluate

        def counting(self, key, *args):
            if key == (CPU_PSEUDO_LINK, "h3"):
                evaluations.append(key)
            return evaluate(self, key, *args)

        monkeypatch.setattr(TimeframeEvaluator, "evaluate", counting)
        remos = Remos(view)
        first = remos.node_info("h3")
        assert remos.node_info("h3") == first
        assert len(evaluations) == 1
        assert remos.cache_stats.per_cache["cpu"] == {"hits": 1, "misses": 1}

        # A sweep that measured only a link still starts a new epoch, and
        # the new epoch evaluates h3's unchanged series again, once.
        view.metrics.record("a0", "h0", 12.0, mbps(5))
        view.record_sweep({("a0", "h0")})
        again = remos.node_info("h3")
        assert remos.node_info("h3") == again
        assert len(evaluations) == 2
        assert again == Remos(view, enable_cache=False).node_info("h3")


class TestTimeframeCap:
    def test_oldest_table_is_evicted_and_refills(self, pricing_calls):
        topology = tree_topology()
        view = sampled_view(topology, random.Random(9))
        remos, cold = Remos(view), Remos(view, enable_cache=False)
        flows = all_pairs(hosts_of(topology)[:5])
        cap = modeler_module._MAX_PRICED_TIMEFRAMES
        timeframes = [Timeframe.history(5.0 + i) for i in range(cap + 2)]
        answers = [remos.flow_info(variable_flows=flows, timeframe=t) for t in timeframes]
        prices = remos._modeler()._prices
        assert list(prices) == timeframes[2:]  # the two oldest went

        crossed = crossed_directions(remos._modeler(), flows)
        calls = dict(pricing_calls)
        misses = remos.cache_stats.misses
        again = remos.flow_info(variable_flows=flows, timeframe=timeframes[0])
        assert again == answers[0]
        assert again == cold.flow_info(variable_flows=flows, timeframe=timeframes[0])
        # Refilled from the series: the table was the epoch's only copy.
        assert pricing_calls["complement"] - calls["complement"] >= len(crossed)
        assert remos.cache_stats.misses == misses + len(crossed)
        assert list(prices) == [*timeframes[3:], timeframes[0]]
        if vectorized.vectorization_enabled():
            # The array projections go with the tables they project.
            assert set(remos._modeler()._snaparrays._columns) <= set(prices)


# -- differential: tabled == cold oracle over random interleavings -------------

QUERY_TIMEFRAMES = (
    Timeframe.static(),
    Timeframe.current(),
    Timeframe.history(6.0),
    Timeframe.history(40.0),
    Timeframe.future(8.0, predictor="ewma", window=20.0),
    Timeframe.future(3.0, predictor="last", window=20.0),
)

sweep_op = st.tuples(
    st.just("sweep"),
    st.lists(st.integers(0, 39), min_size=1, max_size=6),  # which directions
    st.floats(0.0, 1.0),  # load share
    st.sampled_from([0.5, 2.0, 9.0]),  # clock step
)
query_op = st.tuples(
    st.just("query"),
    st.lists(st.integers(0, 15), min_size=2, max_size=7, unique=True),
    st.integers(0, len(QUERY_TIMEFRAMES) - 1),
    st.sampled_from([None, True, False]),  # auto / force vector / REPRO_VECTORIZE=0
)
other_op = st.tuples(st.sampled_from(["gap", "same-structure", "new-structure"]))


@settings(max_examples=30, deadline=None)
@given(ops=st.lists(st.one_of(sweep_op, query_op, query_op, other_op), min_size=4, max_size=24))
def test_tabled_answers_equal_the_cold_oracle(ops):
    view = sampled_view(tree_topology(), random.Random(11))
    tabled, cold = Remos(view), Remos(view, enable_cache=False)
    held = Modeler(view)  # hand-held over the live view: never forked
    clock = 12.0
    extra = 0
    try:
        for op in ops:
            if op[0] == "sweep":
                _, picks, share, step = op
                clock += step
                directions = list(view.topology.iter_directions())
                touched = set()
                for pick in picks:
                    direction = directions[pick % len(directions)]
                    key = (direction.link.name, direction.src)
                    view.metrics.record(*key, clock, share * direction.capacity)
                    touched.add(key)
                view.record_sweep(touched)
            elif op[0] == "gap":
                view.bump_generation()
            elif op[0] == "same-structure":
                view.topology = _grow(tree_topology(), extra)
                view.record_structure_change()
            elif op[0] == "new-structure":
                extra += 1
                view.topology = _grow(tree_topology(), extra)
                view.record_structure_change()
            else:
                _, picks, which, mode = op
                names = hosts_of(view.topology)
                flows = all_pairs([names[p % len(names)] for p in picks])
                timeframe = QUERY_TIMEFRAMES[which]
                vectorized.set_vectorized(False)
                expected = cold.flow_info(variable_flows=flows, timeframe=timeframe)
                vectorized.set_vectorized(mode)
                assert tabled.flow_info(variable_flows=flows, timeframe=timeframe) == expected
                assert (
                    tabled._evaluate_flow_query(held, [], flows, [], timeframe) == expected
                )
    finally:
        vectorized.set_vectorized(None)


def _grow(topology, extra: int):
    """*topology* plus *extra* more hosts on leaf0 (a different structure each)."""
    for index in range(extra):
        topology.add_compute_node(f"h{100 + index}")
        topology.add_link(
            f"h{100 + index}", "leaf0", mbps(100), 1e-4, name=f"a{100 + index}"
        )
    return topology


# -- threads: concurrent fills of one epoch's table beside a live sweeper -------


def test_concurrent_first_queries_share_one_keyspace(monkeypatch):
    """N readers make an epoch's *first* vectorized query at the same time.

    Nobody has built the epoch's snapshot arrays yet, so every reader
    finds none and tries to create them — slowly here, so all of them are
    inside that window together.  They must end up filling one set of
    columns through one keyspace and one fill lock: each reader asks for
    different flows (so private keyspaces would number the resources
    differently), then reads the others' flows through the warm table, and
    every answer is checked against the cold scalar oracle.
    """
    from repro.core import snaparrays

    built: list[int] = []
    init = snaparrays.SnapshotArrays.__init__

    def slow_init(self, *args, **kwargs):
        time.sleep(0.02)
        init(self, *args, **kwargs)
        built.append(1)

    monkeypatch.setattr(snaparrays.SnapshotArrays, "__init__", slow_init)
    topology = tree_topology(32)
    hosts = hosts_of(topology)
    timeframe = Timeframe.history(8.0)
    n_readers = 6
    vectorized.set_vectorized(True)
    try:
        for round_seed in range(3):
            view = sampled_view(topology, random.Random(20 + round_seed))
            remos = Remos(view, auto_publish=False)
            modeler = remos.publish().modeler
            assert modeler._snaparrays is None  # a fresh epoch
            rng = random.Random(30 + round_seed)
            flow_sets = [all_pairs(rng.sample(hosts, 5)) for _ in range(n_readers)]
            barrier = threading.Barrier(n_readers)
            answers: dict[tuple[int, int], object] = {}
            failures: list[BaseException] = []

            def reader(index: int):
                try:
                    barrier.wait()
                    order = [index, *(i for i in range(n_readers) if i != index)]
                    for which in order:
                        answers[index, which] = remos._evaluate_flow_query(
                            modeler, [], flow_sets[which], [], timeframe
                        )
                except BaseException as exc:
                    failures.append(exc)

            threads = [
                threading.Thread(target=reader, args=(i,)) for i in range(n_readers)
            ]
            built.clear()
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=30.0)
            assert not any(thread.is_alive() for thread in threads)
            assert not failures, failures
            assert len(built) == 1

            vectorized.set_vectorized(False)
            oracle = Modeler(modeler.view, modeler.routing, enable_cache=False)
            expected = [
                remos._evaluate_flow_query(oracle, [], flows, [], timeframe)
                for flows in flow_sets
            ]
            vectorized.set_vectorized(True)
            assert len(answers) == n_readers * n_readers
            for (_, which), answer in answers.items():
                assert answer == expected[which]
    finally:
        vectorized.set_vectorized(None)


def test_concurrent_fills_return_the_single_threaded_answer():
    """8 readers fill whichever epoch they pinned while a sweeper publishes.

    Forced onto the array path so small early queries intern few routes and
    later ones grow the price arrays under concurrent readers.
    """
    topology = tree_topology(32)
    rng = random.Random(13)
    view = sampled_view(topology, rng)
    remos = Remos(view, auto_publish=False)
    remos.publish()
    hosts = hosts_of(topology)
    timeframes = (Timeframe.history(8.0), Timeframe.current())
    directions = list(topology.iter_directions())
    stop = threading.Event()
    failures: list[BaseException] = []
    seen: list[tuple] = []  # (snapshot, flows, timeframe, answer)

    def sweeper():
        clock, sweep_rng = 12.0, random.Random(14)
        try:
            while not stop.is_set():
                clock += 1.0
                touched = set()
                for direction in sweep_rng.sample(directions, 5):
                    key = (direction.link.name, direction.src)
                    view.metrics.record(
                        *key, clock, sweep_rng.uniform(0.0, 0.8) * direction.capacity
                    )
                    touched.add(key)
                view.record_sweep(touched)
                remos.publish()
                time.sleep(0.002)
        except BaseException as exc:  # surfaced by the main thread
            failures.append(exc)

    def reader(seed: int):
        read_rng = random.Random(seed)
        try:
            while not stop.is_set():
                snapshot = remos.snapshot()
                for size in (3, 4, 6, 9):
                    flows = all_pairs(read_rng.sample(hosts, size))
                    timeframe = read_rng.choice(timeframes)
                    answer = remos._evaluate_flow_query(
                        snapshot.modeler, [], flows, [], timeframe
                    )
                    seen.append((snapshot, flows, timeframe, answer))
        except BaseException as exc:
            failures.append(exc)

    threads = [threading.Thread(target=sweeper)] + [
        threading.Thread(target=reader, args=(seed,)) for seed in range(8)
    ]
    interval = sys.getswitchinterval()
    vectorized.set_vectorized(True)
    sys.setswitchinterval(1e-5)
    try:
        for thread in threads:
            thread.start()
        time.sleep(1.5)
        stop.set()
        for thread in threads:
            thread.join(timeout=30.0)
    finally:
        sys.setswitchinterval(interval)
        vectorized.set_vectorized(None)
    assert not any(thread.is_alive() for thread in threads)
    assert not failures, failures
    assert len({snapshot.epoch for snapshot, *_ in seen}) > 3
    assert len(seen) > 50
    # Far more ids than a first query's table was sized for: arrays grew.
    assert len(remos.snapshot().modeler.snapshot_arrays().keyspace) > 64

    # The single-threaded answer for each reader's epoch: the cold scalar
    # path over that epoch's frozen view.
    vectorized.set_vectorized(False)
    try:
        oracles: dict[int, Modeler] = {}
        for snapshot, flows, timeframe, answer in seen[:: max(1, len(seen) // 400)]:
            oracle = oracles.get(snapshot.epoch)
            if oracle is None:
                oracle = oracles[snapshot.epoch] = Modeler(
                    snapshot.view, snapshot.modeler.routing, enable_cache=False
                )
            assert remos._evaluate_flow_query(oracle, [], flows, [], timeframe) == answer
    finally:
        vectorized.set_vectorized(None)
