"""Cross-partitioner differential tests on enumerable graphs.

Graphs small enough to enumerate every one of the ``2^n`` two-way
assignments are the ground truth the whole registry is checked against:

* the exact branch-and-bound solver's cost must equal the brute-force
  minimum on every graph (and claim ``proved_optimal``);
* no heuristic may land below it — and whatever a heuristic returns must
  cost at least the brute-force minimum too.

This is what makes the ``exact`` entry trustworthy enough to anchor the
gap-to-optimal study (``tests/evaluation/test_partition_gap.py``).
"""

import itertools
import random

import pytest

from repro.ir.symbols import Symbol
from repro.partition.interference import InterferenceGraph
from repro.partition.registry import PARTITIONERS, make_partitioner

HEURISTICS = sorted(set(PARTITIONERS) - {"exact"})

#: enumerable ceiling: 2^12 = 4096 assignments per graph
MAX_NODES = 12


def _random_graph(seed, max_nodes=MAX_NODES):
    rng = random.Random(seed)
    n = rng.randint(0, max_nodes)
    symbols = [Symbol("s%d" % i, size=1) for i in range(n)]
    graph = InterferenceGraph()
    for sym in symbols:
        graph.add_node(sym)
    for i in range(n):
        for j in range(i + 1, n):
            if rng.random() < rng.choice((0.15, 0.4, 0.8)):
                graph.add_edge(symbols[i], symbols[j], rng.randint(1, 9))
    return graph


def _brute_force_minimum(graph):
    """The true minimum internal cost over all 2^n assignments."""
    nodes = list(graph.nodes)
    best = None
    for mask in range(1 << len(nodes)):
        set_x = [n for i, n in enumerate(nodes) if not mask & (1 << i)]
        set_y = [n for i, n in enumerate(nodes) if mask & (1 << i)]
        cost = graph.internal_cost(set_x) + graph.internal_cost(set_y)
        if best is None or cost < best:
            best = cost
    return 0 if best is None else best


GRAPH_SEEDS = range(30)


@pytest.mark.parametrize("graph_seed", GRAPH_SEEDS)
def test_exact_matches_brute_force_enumeration(graph_seed):
    graph = _random_graph(graph_seed)
    result = make_partitioner(graph, "exact").partition()
    assert result.proved_optimal is True
    assert result.final_cost == _brute_force_minimum(graph)


@pytest.mark.parametrize("graph_seed", GRAPH_SEEDS)
def test_no_heuristic_beats_exact(graph_seed):
    exact = make_partitioner(_random_graph(graph_seed), "exact").partition()
    for name in HEURISTICS:
        result = make_partitioner(_random_graph(graph_seed), name).partition()
        assert result.final_cost >= exact.final_cost, (
            "%s claims cost %s below the proved optimum %s on graph seed %d"
            % (name, result.final_cost, exact.final_cost, graph_seed)
        )


@pytest.mark.parametrize("name", sorted(PARTITIONERS))
def test_every_partitioner_respects_the_brute_force_floor(name):
    for graph_seed in (0, 7, 19):
        graph = _random_graph(graph_seed, max_nodes=8)
        floor = _brute_force_minimum(graph)
        result = make_partitioner(_random_graph(graph_seed, max_nodes=8),
                                  name).partition()
        assert result.final_cost >= floor


def test_exact_past_its_node_limit_returns_the_greedy_incumbent():
    """Beyond ``node_limit`` the search is skipped: the result is the
    greedy partition for the same seed, flagged as not proved."""
    from repro.obs.core import Recorder
    from repro.partition.exact import ExactPartitioner
    from repro.partition.greedy import GreedyPartitioner

    graph = _random_graph(6)
    assert len(graph.nodes) >= 3
    recorder = Recorder()
    result = ExactPartitioner(graph, seed=5, node_limit=2).partition(
        observe=recorder
    )
    greedy = GreedyPartitioner(graph, seed=5).partition()
    assert result.proved_optimal is False
    assert result.final_cost == greedy.final_cost
    assert recorder.counters["bnb.skipped_too_large"] == 1


def test_exact_on_paper_figure5_graph():
    """The Figure 5 example: greedy's cost-2 answer is in fact optimal
    (K4 with one weight-2 edge cannot be split cheaper)."""
    symbols = {n: Symbol(n, size=4) for n in "ABCD"}
    graph = InterferenceGraph()
    for sym in symbols.values():
        graph.add_node(sym)
    for a, b in itertools.combinations("ABCD", 2):
        graph.add_edge(symbols[a], symbols[b], 2 if (a, b) == ("A", "D") else 1)
    result = make_partitioner(graph, "exact").partition()
    assert result.proved_optimal is True
    assert result.final_cost == 2
    assert result.final_cost == _brute_force_minimum(graph)
