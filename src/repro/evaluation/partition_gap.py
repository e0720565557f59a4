"""Gap-to-optimal study: every partitioner over the workload registry.

The paper (Section 3.1) picks the greedy node-moving heuristic because
the authors found it "near-ideal" — but never quantifies the gap.  This
module does: every registry workload is compiled under ``CB`` once per
registered partitioner (:data:`~repro.partition.registry.PARTITIONERS`),
and each run records

* the partitioner's **final interference cost** (the objective the
  partition pass minimizes) and whether optimality was proved,
* the **gap ratio** ``final_cost / exact final_cost`` — 1.0 means the
  heuristic found the branch-and-bound optimum,
* the **realized** numbers that actually matter downstream: cycles,
  PG/CI/PCR against the single-bank baseline (paper Table 3 style).

The registry graphs all fit inside the exact solver's node limit, so
the ``exact`` column is a proved optimum and every gap is exact, not
estimated.  ``tests/evaluation/BENCH_partition.json`` freezes the full
study; ``tests/evaluation/test_partition_gap.py`` regenerates it and
compares field for field.
"""

from repro.compiler import CompileOptions
from repro.evaluation.runner import _ratio, _run_once
from repro.partition.registry import PARTITIONERS
from repro.partition.strategies import Strategy

__all__ = ["measure_gap", "partition_gap"]

#: the strategy whose partition the study measures: plain compaction-
#: based partitioning, where the cut cost is the whole story (no
#: duplication rewriting on top)
GAP_STRATEGY = Strategy.CB


def measure_gap(name, backend="interp"):
    """Worker entry point: one workload under every partitioner.

    Returns a JSON-able row: per-partitioner final cost / proved flag /
    cycles / PG / CI / PCR, plus the per-partitioner gap ratio to the
    exact solver's cost.  Every run is verified against the workload's
    reference model — a partitioner that broke semantics would fault
    here, not skew the numbers.  This is the one evaluation that picks
    a partitioner, through the ``partitioner`` compile option.
    """
    from repro.workloads.registry import get_workload

    workload = get_workload(name)
    expected = workload.expected()
    baseline, _compiled, _result = _run_once(
        workload, CompileOptions(strategy=Strategy.SINGLE_BANK),
        backend=backend, expected=expected,
    )
    per_partitioner = {}
    graph_nodes = None
    for partitioner in sorted(PARTITIONERS):
        options = CompileOptions(strategy=GAP_STRATEGY, partitioner=partitioner)
        measurement, compiled, _result = _run_once(
            workload, options, backend=backend, expected=expected
        )
        partition = compiled.allocation.partition
        graph_nodes = len(compiled.allocation.graph)
        pg = _ratio(baseline.cycles, measurement.cycles)
        ci = _ratio(measurement.cost.total, baseline.cost.total)
        per_partitioner[partitioner] = {
            "initial_cost": partition.initial_cost,
            "final_cost": partition.final_cost,
            "proved_optimal": partition.proved_optimal,
            "cycles": measurement.cycles,
            "pg": pg,
            "ci": ci,
            "pcr": pg / ci if ci else float("inf"),
        }
    exact_cost = per_partitioner["exact"]["final_cost"]
    return {
        "workload": name,
        "category": workload.category,
        "graph_nodes": graph_nodes,
        "baseline_cycles": baseline.cycles,
        "partitioners": per_partitioner,
        "gap": {
            partitioner: _ratio(entry["final_cost"], exact_cost)
            for partitioner, entry in per_partitioner.items()
        },
    }


def _aggregate(rows):
    """Fold per-workload rows into the headline per-partitioner stats."""
    aggregate = {}
    total = len(rows)
    for partitioner in sorted(PARTITIONERS):
        gaps = [row["gap"][partitioner] for row in rows]
        finite = [gap for gap in gaps if gap != float("inf")]
        pcrs = [
            row["partitioners"][partitioner]["pcr"]
            for row in rows
            if row["partitioners"][partitioner]["pcr"] != float("inf")
        ]
        aggregate[partitioner] = {
            "mean_gap": sum(finite) / len(finite) if finite else 1.0,
            "max_gap": max(finite) if finite else 1.0,
            # workloads where this partitioner matched the proved optimum
            "optimal_count": sum(
                1
                for row in rows
                if row["partitioners"]["exact"]["proved_optimal"]
                and row["gap"][partitioner] <= 1.0
            ),
            "proved_count": sum(
                1
                for row in rows
                if row["partitioners"][partitioner]["proved_optimal"]
            ),
            "mean_pcr": sum(pcrs) / len(pcrs) if pcrs else 0.0,
        }
    aggregate["workloads"] = total
    return aggregate


def partition_gap(jobs=None, backend="interp", workloads=None):
    """The full gap-to-optimal report over the workload registry.

    ``workloads`` (names) restricts the sweep; ``jobs`` fans workloads
    over worker processes exactly like the figure/table regenerations
    (None/1 = serial, 0 resolved by the caller to all cores).  Returns a
    JSON-able dict: ordered per-workload rows (:func:`measure_gap`)
    under ``"workloads"`` plus per-partitioner aggregates — mean/max
    greedy-vs-exact gap, how often each heuristic hit the proved
    optimum, and the mean realized PCR.
    """
    from repro.evaluation.parallel import supervised_map
    from repro.workloads.registry import all_workloads

    table = all_workloads()
    names = list(workloads) if workloads is not None else sorted(table)
    unknown = [name for name in names if name not in table]
    if unknown:
        raise ValueError(
            "unknown workload(s) %s (choose from: %s)"
            % (", ".join(unknown), ", ".join(sorted(table)))
        )
    rows = supervised_map(measure_gap, [(name, backend) for name in names],
                          jobs=jobs, retries=0)
    return {
        "backend": backend,
        "strategy": GAP_STRATEGY.name,
        "order": names,
        "partitioners": sorted(PARTITIONERS),
        "workloads": {row["workload"]: row for row in rows},
        "aggregate": _aggregate(rows),
    }
