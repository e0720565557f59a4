"""The resilience campaign: aggregation, the report, and resume."""

import pytest

from repro.faults import campaign as campaign_module
from repro.faults.campaign import (
    campaign_workloads,
    fault_campaign,
    run_task,
)
from repro.faults.experiment import OUTCOMES
from repro.faults.report import render_resilience
from repro.obs.core import Recorder


def test_campaign_workloads_include_autocorr():
    """The Fig-6 autocorrelation rides along without entering the frozen
    figure/table registry."""
    from repro.workloads.registry import KERNELS

    table = campaign_workloads()
    assert "autocorr_24_4" in table
    assert "autocorr_24_4" not in KERNELS
    assert "fir_32_1" in table


def test_unknown_workload_is_rejected():
    with pytest.raises(ValueError):
        fault_campaign(1, workloads=["nonexistent"])


def test_report_structure_and_rendering():
    report = fault_campaign(
        3, workloads=["fir_32_1"], strategies=["SINGLE_BANK", "CB_DUP"],
    )
    assert report["backend"] == "interp"
    assert report["runs"] == 6
    assert set(report["strategies"]) == {"SINGLE_BANK", "CB_DUP"}
    for entry in report["strategies"].values():
        assert entry["runs"] == 3
        assert sum(entry[outcome] for outcome in OUTCOMES) == 3
        assert 0.0 <= entry["coverage"] <= 1.0
    markdown = render_resilience(report)
    assert "# Resilience report" in markdown
    assert "## Per strategy" in markdown
    assert "### fir_32_1" in markdown


def test_dup_detection_beats_baseline_masking_on_autocorr():
    """The acceptance criterion: on the Fig-6 autocorrelation workload,
    partial duplication's coverage (masked + detected) must be at least
    the non-duplicated strategies' masking rate — the duplicated copy
    pays off as an error-detection mechanism."""
    report = fault_campaign(
        10, workloads=["autocorr_24_4"],
        strategies=["SINGLE_BANK", "CB", "CB_DUP"],
    )
    entries = report["workloads"]["autocorr_24_4"]
    dup = entries["CB_DUP"]
    assert dup["detection_rate"] > 0.0
    assert dup["coverage"] >= entries["SINGLE_BANK"]["masked_rate"]
    assert dup["coverage"] >= entries["CB"]["masked_rate"]


def test_serial_campaign_counts_every_completed_task():
    """The serial leg counts ``supervised.completed`` once per task, as
    the pool leg does, so the counters read the same on either leg."""
    report = fault_campaign(runs=2, observe=Recorder())
    counters = report["obs"]["spans"][0]["counters"]
    assert counters["supervised.tasks"] > 0
    assert counters["supervised.completed"] == counters["supervised.tasks"]


def test_run_task_row_is_json_able():
    import json

    row = run_task("fir_32_1", "CB_DUP", "interp", 0)
    assert row["workload"] == "fir_32_1"
    assert row["strategy"] == "CB_DUP"
    assert row["outcome"] in OUTCOMES
    json.dumps(row)  # must survive the journal


def test_interrupted_campaign_resumes_to_same_report(tmp_path, monkeypatch):
    """Kill a campaign partway (KeyboardInterrupt out of a task), rerun
    with the same journal: the resumed campaign skips the completed
    rows and converges to the same aggregate report as an
    uninterrupted run."""
    kwargs = dict(
        runs=3, seed=0, workloads=["fir_32_1"],
        strategies=["SINGLE_BANK", "CB_DUP"],
    )
    expected = fault_campaign(**kwargs)

    journal = str(tmp_path / "campaign.jsonl")
    calls = {"n": 0}
    real_run_task = run_task

    def poisoned(*arguments):
        calls["n"] += 1
        if calls["n"] == 4:
            raise KeyboardInterrupt()
        return real_run_task(*arguments)

    monkeypatch.setattr(campaign_module, "run_task", poisoned)
    with pytest.raises(KeyboardInterrupt):
        fault_campaign(journal=journal, **kwargs)
    monkeypatch.setattr(campaign_module, "run_task", real_run_task)

    from repro.evaluation.parallel import Journal

    assert 0 < len(Journal(journal)) < 6  # partial progress flushed
    resumed = fault_campaign(journal=journal, **kwargs)
    assert resumed == expected
