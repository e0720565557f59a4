"""Data allocation for dual data-memory banks (the paper's contribution).

This package implements the two algorithms of paper Section 3:

* **Compaction-based (CB) data partitioning** — build a weighted
  interference graph over program variables by running the compaction
  algorithm in analysis mode (:mod:`repro.partition.graph_builder`), then
  split the nodes across the X and Y banks with a minimum-cost
  partitioner.  The paper's greedy algorithm
  (:mod:`repro.partition.greedy`) is the default of an interchangeable
  registry (:mod:`repro.partition.registry`) that also offers an exact
  branch-and-bound solver, run by ``repro partition-gap`` and the fuzz
  oracle to measure greedy's cut against the optimum.
* **Partial data duplication** — duplicate arrays that are accessed twice
  in potentially-parallel memory operations, inserting integrity stores to
  keep both copies coherent (:mod:`repro.partition.duplication`).

:func:`repro.partition.strategies.run_allocation` is the pass entry point,
covering all the paper's configurations (single bank, CB, CB with profile
weights, CB + partial duplication, full duplication, and the dual-ported
Ideal reference).
"""

from repro.partition.interference import InterferenceGraph
from repro.partition.graph_builder import build_interference_graph
from repro.partition.greedy import GreedyPartitioner, PartitionResult
from repro.partition.exact import ExactPartitioner
from repro.partition.registry import (
    DEFAULT_PARTITIONER,
    PARTITIONERS,
    make_partitioner,
)
from repro.partition.weights import ProfileWeights, StaticDepthWeights
from repro.partition.duplication import (
    duplicate_symbols,
    full_duplication_symbols,
)
from repro.partition.strategies import AllocationResult, Strategy, run_allocation

__all__ = [
    "AllocationResult",
    "DEFAULT_PARTITIONER",
    "ExactPartitioner",
    "GreedyPartitioner",
    "InterferenceGraph",
    "PARTITIONERS",
    "PartitionResult",
    "ProfileWeights",
    "StaticDepthWeights",
    "Strategy",
    "build_interference_graph",
    "duplicate_symbols",
    "full_duplication_symbols",
    "make_partitioner",
    "run_allocation",
]
