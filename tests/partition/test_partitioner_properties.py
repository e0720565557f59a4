"""Property tests every registry partitioner must satisfy.

The registry contract (:mod:`repro.partition.registry`): whatever the
algorithm — greedy descent or branch-and-bound — a partitioner maps
``(graph, seed)`` to a
:class:`~repro.partition.greedy.PartitionResult` whose sets cover the
nodes disjointly, whose cost trace starts at the everything-in-X cost
and strictly decreases to the cost of the returned assignment, and
which is bit-identical when rerun with the same seed.
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.ir.symbols import Symbol
from repro.partition.interference import InterferenceGraph
from repro.partition.registry import PARTITIONERS, make_partitioner

ALL_PARTITIONERS = sorted(PARTITIONERS)


@st.composite
def interference_graphs(draw):
    n = draw(st.integers(min_value=0, max_value=10))
    symbols = [Symbol("s%d" % i, size=1 + i) for i in range(n)]
    graph = InterferenceGraph()
    for sym in symbols:
        graph.add_node(sym)
    if n >= 2:
        edge_count = draw(st.integers(min_value=0, max_value=n * (n - 1) // 2))
        for _ in range(edge_count):
            a = draw(st.integers(min_value=0, max_value=n - 1))
            b = draw(st.integers(min_value=0, max_value=n - 1))
            if a == b:
                continue
            weight = draw(st.integers(min_value=1, max_value=9))
            graph.add_edge(symbols[a], symbols[b], weight, accumulate=True)
    return graph


def _random_graph(seed, max_nodes=12):
    """A deterministic random graph for the seeded-determinism checks
    (hypothesis shrinks examples, so seed-stability needs its own
    generator)."""
    rng = random.Random(seed)
    n = rng.randint(0, max_nodes)
    symbols = [Symbol("s%d" % i, size=1) for i in range(n)]
    graph = InterferenceGraph()
    for sym in symbols:
        graph.add_node(sym)
    for i in range(n):
        for j in range(i + 1, n):
            if rng.random() < 0.4:
                graph.add_edge(symbols[i], symbols[j], rng.randint(1, 9))
    return graph


def _names(result):
    return (
        [s.name for s in result.set_x],
        [s.name for s in result.set_y],
    )


@pytest.mark.parametrize("name", ALL_PARTITIONERS)
@given(graph=interference_graphs())
@settings(max_examples=40, deadline=None)
def test_sets_disjointly_cover_the_nodes(name, graph):
    result = make_partitioner(graph, name).partition()
    names_x = {s.name for s in result.set_x}
    names_y = {s.name for s in result.set_y}
    assert not names_x & names_y
    assert names_x | names_y == {s.name for s in graph.nodes}


@pytest.mark.parametrize("name", ALL_PARTITIONERS)
@given(graph=interference_graphs())
@settings(max_examples=40, deadline=None)
def test_cost_trace_is_anchored_and_strictly_decreasing(name, graph):
    result = make_partitioner(graph, name).partition()
    trace = result.cost_trace
    assert trace[0] == graph.total_weight()
    for earlier, later in zip(trace, trace[1:]):
        assert later < earlier
    assert result.final_cost <= result.initial_cost
    assert result.final_cost >= 0


@pytest.mark.parametrize("name", ALL_PARTITIONERS)
@given(graph=interference_graphs())
@settings(max_examples=40, deadline=None)
def test_final_cost_is_the_cost_of_the_returned_assignment(name, graph):
    result = make_partitioner(graph, name).partition()
    recomputed = graph.internal_cost(result.set_x) + graph.internal_cost(
        result.set_y
    )
    assert recomputed == result.final_cost


@pytest.mark.parametrize("name", ALL_PARTITIONERS)
@pytest.mark.parametrize("seed", [0, 1, 12345])
def test_bit_identical_under_a_fixed_seed(name, seed):
    for graph_seed in range(8):
        first = make_partitioner(
            _random_graph(graph_seed), name, seed=seed
        ).partition()
        second = make_partitioner(
            _random_graph(graph_seed), name, seed=seed
        ).partition()
        assert _names(first) == _names(second)
        assert first.cost_trace == second.cost_trace
        assert first.proved_optimal == second.proved_optimal


@pytest.mark.parametrize("name", ALL_PARTITIONERS)
def test_heuristics_never_beat_exact(name):
    """On graphs the exact solver proves, no heuristic lands lower."""
    for graph_seed in range(10):
        exact = make_partitioner(_random_graph(graph_seed), "exact").partition()
        assert exact.proved_optimal is True
        other = make_partitioner(_random_graph(graph_seed), name).partition()
        assert other.final_cost >= exact.final_cost


def test_proved_optimal_marks_only_the_exact_solver():
    graph_seed = 3
    for name in ALL_PARTITIONERS:
        result = make_partitioner(_random_graph(graph_seed), name).partition()
        if name == "exact":
            assert result.proved_optimal is True
        else:
            assert result.proved_optimal is None
