"""Live chaos campaigns against a ``repro serve`` subprocess.

The smoke campaign (one kill/restart cycle) runs in tier-1; the longer
soak rides behind the ``full_diff`` marker with the other exhaustive
sweeps.  Both hold the crash-safety invariants absolutely: nothing
accepted is lost, nothing runs twice, replays are bit-identical."""

import pytest

from repro.chaos import generate_plan, render_chaos, run_chaos


def _assert_invariants(report, expected_kills, expected_accepted,
                       expected_protocol_errors):
    invariants = report["invariants"]
    assert report["ok"], invariants
    assert invariants["lost"] == 0, invariants["lost_ids"]
    assert invariants["duplicate_executions"] == 0
    assert invariants["replay_mismatches"] == 0, invariants["mismatched_ids"]
    assert invariants["kills"] == expected_kills
    assert invariants["accepted"] == expected_accepted
    assert invariants["deduped_replays"] > 0
    assert invariants["recovery_worst_s"] <= invariants["recovery_budget_s"]
    # one typed protocol error per oversize probe the plan sends
    assert invariants["protocol_errors_survived"] == expected_protocol_errors


@pytest.mark.chaos
def test_smoke_campaign_survives_one_kill_cycle(tmp_path):
    plan = generate_plan(17, cycles=1, jobs_per_cycle=2)
    report = run_chaos(plan, str(tmp_path), recovery_budget_s=60.0)
    _assert_invariants(report, expected_kills=1, expected_accepted=2,
                       expected_protocol_errors=0)

    rendered = render_chaos(report)
    assert "verdict: OK" in rendered
    assert "accepted jobs lost" in rendered


@pytest.mark.chaos
@pytest.mark.full_diff
def test_soak_campaign_survives_repeated_kills_and_sabotage(tmp_path):
    plan = generate_plan(99, cycles=3, jobs_per_cycle=4)
    report = run_chaos(plan, str(tmp_path), recovery_budget_s=60.0)
    _assert_invariants(report, expected_kills=3, expected_accepted=12,
                       expected_protocol_errors=1)
