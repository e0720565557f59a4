"""Tests for the gap-to-optimal study (repro partition-gap)."""

import json

import pytest

from repro.evaluation.partition_gap import measure_gap, partition_gap
from repro.evaluation.reporting import render_partition_gap
from repro.partition.registry import PARTITIONERS

#: a small, shape-diverse subset so tier-1 stays fast: a kernel whose
#: graph cuts to zero, the heaviest kernel graph, and the application
#: graph where greedy is measurably off-optimal
SUBSET = ("fir_32_1", "iir_1_1", "trellis")


@pytest.fixture(scope="module")
def report():
    return partition_gap(workloads=SUBSET)


def test_report_shape(report):
    assert report["strategy"] == "CB"
    assert report["order"] == list(SUBSET)
    assert set(report["partitioners"]) == set(PARTITIONERS)
    for name in SUBSET:
        row = report["workloads"][name]
        assert set(row["partitioners"]) == set(PARTITIONERS)
        assert row["graph_nodes"] > 0
        assert row["baseline_cycles"] > 0
        for entry in row["partitioners"].values():
            assert entry["final_cost"] <= entry["initial_cost"]
            assert entry["cycles"] > 0
            assert entry["pg"] >= 1.0  # CB never loses to single-bank


def test_exact_is_proved_and_anchors_every_gap(report):
    for name in SUBSET:
        row = report["workloads"][name]
        assert row["partitioners"]["exact"]["proved_optimal"] is True
        assert row["gap"]["exact"] == 1.0
        for partitioner in PARTITIONERS:
            assert row["gap"][partitioner] >= 1.0


def test_greedy_gap_is_real_on_trellis(report):
    """The study's headline finding: the paper's greedy heuristic misses
    the proved optimum on the trellis graph (the registry's largest),
    while the exact solver finds it — the gap column is not vacuously
    1.0."""
    row = report["workloads"]["trellis"]
    assert row["gap"]["greedy"] > 1.0
    assert row["gap"]["exact"] == 1.0


def test_aggregate_counts(report):
    aggregate = report["aggregate"]
    assert aggregate["workloads"] == len(SUBSET)
    assert aggregate["exact"]["proved_count"] == len(SUBSET)
    assert aggregate["exact"]["mean_gap"] == 1.0
    for partitioner in PARTITIONERS:
        stats = aggregate[partitioner]
        assert stats["max_gap"] >= stats["mean_gap"] >= 1.0
        assert 0 <= stats["optimal_count"] <= len(SUBSET)


def test_measure_gap_verifies_and_is_deterministic():
    first = measure_gap("fir_32_1")
    second = measure_gap("fir_32_1")
    assert first == second


def test_unknown_workload_rejected():
    with pytest.raises(ValueError, match="unknown workload"):
        partition_gap(workloads=("no_such_kernel",))


def test_render_and_json_round_trip(report):
    text = render_partition_gap(report)
    assert "gap-to-optimal" in text
    for name in SUBSET:
        assert name in text
    assert "proved minimum-cost" in text
    # the CLI writes the same dict as JSON; it must round-trip
    assert json.loads(json.dumps(report)) == report


def test_committed_bench_matches_regeneration_keys():
    """BENCH_partition.json (committed by benchmarks/bench_partition.py)
    must cover the full registry with the current partitioner set —
    drift in either direction fails the bench gate, this just keeps the
    committed artifact's shape honest in tier-1 without rerunning the
    full study."""
    from pathlib import Path

    path = Path(__file__).resolve().parents[2] / "BENCH_partition.json"
    assert path.exists(), "run `python benchmarks/bench_partition.py`"
    committed = json.loads(path.read_text())
    assert set(committed["partitioners"]) == set(PARTITIONERS)
    from repro.workloads.registry import all_workloads

    assert set(committed["workloads"]) == set(all_workloads())
    assert committed["aggregate"]["exact"]["mean_gap"] == 1.0
