"""Self-tests of the benchmark's helpers; they run in seconds.

    PYTHONPATH=src python3 -m pytest e2ebench -q
"""

import json
import os
import statistics

import pytest

import pools
from stats import (MIN_COVERAGE, Tally, best_per_unit, compare_expected,
                   layer_coverage, median, percentile, serve_outcome, spread)


# -- percentile, median, spread ---------------------------------------
def test_median_odd_and_even():
    assert median([3.0, 1.0, 2.0]) == 2.0
    assert median([4.0, 1.0, 3.0, 2.0]) == 2.5
    with pytest.raises(ValueError):
        median([])


def test_percentile_interpolates_between_ranks():
    values = list(range(1, 11))  # 1..10
    assert percentile(values, 0) == 1
    assert percentile(values, 100) == 10
    assert percentile(values, 50) == pytest.approx(5.5)
    assert percentile(values, 90) == pytest.approx(9.1)
    assert percentile([7.0], 99) == 7.0
    with pytest.raises(ValueError):
        percentile(values, 101)


def test_spread_matches_statistics_quantiles():
    values = [10.0, 11.0, 9.5, 10.2, 10.8, 9.9, 10.1, 10.4, 9.7, 10.0]
    q1, _q2, q3 = statistics.quantiles(values, n=4)
    assert spread(values) == pytest.approx((q3 - q1) / statistics.median(values))
    assert spread([5.0, 5.0, 5.0]) == 0.0
    assert spread([1.0]) == 0.0


def test_best_per_unit_takes_each_units_fastest_round():
    rounds = [[2.0, 0.5, 9.0], [1.5, 0.7, 8.0], [3.0, 0.6, 8.5]]
    assert best_per_unit(rounds) == [1.5, 0.5, 8.0]
    with pytest.raises(ValueError):
        best_per_unit([])
    with pytest.raises(ValueError):
        best_per_unit([[1.0, 2.0], [1.0]])


# -- fail_share accounting ---------------------------------------------
def test_tally_counts_failures_against_attempts():
    tally = Tally()
    tally.ok(3)
    tally.fail("rejected")
    assert tally.check(False, "digest-mismatch") is False
    assert (tally.attempted, tally.failed) == (5, 2)
    assert tally.fail_share == pytest.approx(0.4)
    assert tally.reasons == {"rejected": 1, "digest-mismatch": 1}
    assert Tally().fail_share == 1.0  # nothing attempted is not a pass


EXPECTED = {"cycles": 69, "digest": "ab"}


@pytest.mark.parametrize("event, outcome", [
    ({"event": "result", "cycles": 69, "digest": "ab"}, "ok"),
    ({"event": "rejected", "retry_after_s": 0.1}, "rejected"),
    ({"event": "error", "category": "deadline"}, "deadline"),
    ({"event": "error", "category": "program"}, "error"),
    ({"event": "cancelled"}, "unexpected-cancelled"),
    ({"event": "result", "cycles": 70, "digest": "ab"}, "cycles-mismatch"),
    ({"event": "result", "cycles": 69, "digest": "cd"}, "digest-mismatch"),
    (None, "missing"),
])
def test_serve_outcomes(event, outcome):
    assert serve_outcome(event, EXPECTED) == outcome


def test_rejected_and_deadline_jobs_count_in_fail_share():
    tally = Tally()
    events = [{"event": "result", "cycles": 69, "digest": "ab"},
              {"event": "rejected"},
              {"event": "error", "category": "deadline"},
              None]
    for event in events:
        outcome = serve_outcome(event, EXPECTED)
        tally.check(outcome == "ok", outcome)
    assert tally.fail_share == pytest.approx(0.75)


# -- layer-sum check -----------------------------------------------------
def test_layer_coverage_and_remainder():
    coverage, rest = layer_coverage({"a": 0.5, "b": 0.46}, 1.0)
    assert coverage == pytest.approx(0.96) and coverage >= MIN_COVERAGE
    assert rest == pytest.approx(0.04)
    coverage, _rest = layer_coverage({"a": 0.9}, 1.0)
    assert coverage < MIN_COVERAGE
    with pytest.raises(ValueError):
        layer_coverage({"a": 1.0}, 0.0)


def test_patched_refuses_a_missing_layer_entry_point():
    import types

    paper_eval = pytest.importorskip("paper_eval")
    module = types.SimpleNamespace(present=lambda: 1)
    with paper_eval.patched(module, "present", lambda f: lambda: f() + 1):
        assert module.present() == 2
    assert module.present() == 1
    with pytest.raises(AttributeError):
        with paper_eval.patched(module, "renamed", lambda f: f):
            pass


def test_serve_schedule_follows_the_mix():
    serve_open = pytest.importorskip("serve_open")
    arrivals = serve_open.schedule(seed=3, rate=40.0, seconds=20.0)
    assert arrivals == serve_open.schedule(seed=3, rate=40.0, seconds=20.0)
    total = sum(weight for _kind, weight in pools.SERVE_MIX)
    for kind, weight in pools.SERVE_MIX:
        count = sum(1 for _due, key in arrivals if key.split(":")[0] == kind)
        # each kind's count is rounded; the rounding remainder pads or
        # trims the schedule
        assert abs(count - weight * len(arrivals) / total) <= len(
            pools.SERVE_MIX), kind
    pool = pools.serve_pool()
    assert all(key in pool for _due, key in arrivals)


def test_compare_expected_reports_wrong_and_missing():
    wrong, missing = compare_expected({"a": 1, "b": 3}, {"a": 1, "b": 2, "c": 4})
    assert (wrong, missing) == (["b"], ["c"])


# -- expected-file comparison on a tiny size ------------------------------
def test_benchmark_json_names_every_metric_once():
    root = os.path.dirname(pools.HERE)
    with open(os.path.join(root, "BENCHMARK.json")) as handle:
        spec = json.load(handle)
    names = [m["name"] for m in spec["end_to_end"] + spec["per_layer"]]
    assert len(names) == len(set(names))
    assert "setup_s" in names


def test_lane_instances_match_expected():
    lane_sweep = pytest.importorskip("lane_sweep")
    pytest.importorskip("repro")
    from repro.compiler import compile_module
    from repro.partition.strategies import Strategy
    from repro.workloads.registry import get_workload

    expected = pools.load_expected("lane_sweep")
    program = compile_module(get_workload("iir_4_64").build(),
                             strategy=Strategy.CB).program
    sizes = {s.name: s.size for s in program.module.globals}
    reads = tuple(sorted(sizes))
    pairs = [(pools.uniform_key("iir_4_64", i),
              (program, pools.uniform_writes("iir_4_64", "x", sizes["x"], i),
               reads))
             for i in (0, 7)]
    outcomes, _wall = lane_sweep._run([task for _key, task in pairs])
    tally = Tally()
    lane_sweep._check(pairs, outcomes, expected["instances"], tally)
    assert (tally.attempted, tally.failed) == (2, 0)
    # the same outcomes against a corrupted expectation must fail
    corrupt = dict(expected["instances"])
    corrupt[pairs[0][0]] = [0, "0" * 16]
    tally = Tally()
    lane_sweep._check(pairs, outcomes, corrupt, tally)
    assert (tally.attempted, tally.failed) == (2, 1)


def test_serve_jobs_match_expected():
    pytest.importorskip("repro")
    from repro.serve.jobs import execute_job
    from repro.serve.protocol import validate_job

    expected = pools.load_expected("serve_open")
    pool = pools.serve_pool()
    cache = {}
    for key in ("registry:fir_32_1:CB", "backend:fast", "writes:3", "recipe:5",
                "profile"):
        result = execute_job(validate_job(dict(pool[key])), cache=cache)
        event = dict(result, event="result")
        assert serve_outcome(event, expected[key]) == "ok", key


def test_paper_points_match_expected():
    pytest.importorskip("repro")
    from repro.evaluation import evaluate_workload
    from repro.partition.strategies import Strategy
    from repro.workloads.registry import get_workload

    expected = pools.load_expected("paper_eval")["figure7"]["fir_32_1"]
    evaluation = evaluate_workload(get_workload("fir_32_1"),
                                   [Strategy.CB, Strategy.IDEAL],
                                   backend="jit")
    observed = {s.name: [m.cycles, m.cost.total]
                for s, m in evaluation.measurements.items()}
    assert compare_expected(observed, expected) == ([], [])
