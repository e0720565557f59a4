"""build_report / render_observability: structure, JSON, error paths."""

import json

import pytest

from repro.evaluation.reporting import render_observability
from repro.obs.report import build_report
from repro.partition.strategies import Strategy


@pytest.fixture(scope="module")
def fir_report():
    return build_report("fir_32_1", strategy="CB", top=5)


def test_report_structure(fir_report):
    assert fir_report["workload"] == "fir_32_1"
    assert fir_report["backend"] == "interp"
    assert set(fir_report) == {
        "workload", "category", "backend", "top",
        "baseline", "strategy", "deltas",
    }
    for config in (fir_report["baseline"], fir_report["strategy"]):
        assert config["cycles"] > 0
        assert config["compile_seconds"] > 0
        assert config["compile_passes"], "per-pass breakdown missing"
        for row in config["compile_passes"]:
            assert row["seconds"] >= 0
        assert len(config["profile"]["hot_pcs"]) <= 5
    assert fir_report["baseline"]["strategy"] == "SINGLE_BANK"
    assert fir_report["strategy"]["strategy"] == "CB"


def test_report_pass_rows_carry_ir_deltas(fir_report):
    passes = {
        row["pass"]: row for row in fir_report["strategy"]["compile_passes"]
    }
    assert {"validate", "allocate", "regalloc", "layout", "compaction"} <= set(
        passes
    )
    compaction = passes["compaction"]
    assert compaction["instructions"] == fir_report["strategy"]["code_size"]
    assert 0 < compaction["fill_rate"] <= 1
    assert passes["allocate"]["strategy"] == "CB"


def test_report_deltas_tell_the_paper_story(fir_report):
    deltas = fir_report["deltas"]
    assert deltas["cycles_strategy"] < deltas["cycles_baseline"]
    assert deltas["gain_percent"] > 0
    # CB exists to remove bank conflicts; the ledger must agree.
    assert deltas["conflict_cycles_removed"] > 0
    assert (
        deltas["conflict_cycles_strategy"]
        < deltas["conflict_cycles_baseline"]
    )


def test_report_json_round_trips(fir_report):
    assert json.loads(json.dumps(fir_report)) == fir_report


def test_render_observability_markdown(fir_report):
    text = render_observability(fir_report)
    assert text.startswith("# Observability report — fir_32_1")
    assert "Compile passes" in text
    assert "Hot pcs" in text
    assert "Bank-conflict table" in text
    assert "## Machine-readable report" in text
    payload = text.split("```json\n", 1)[1].split("```", 1)[0]
    assert json.loads(payload) == fir_report


def test_report_accepts_enum_and_profile_strategy():
    report = build_report(
        "fir_32_1", strategy=Strategy.CB_PROFILE, baseline=Strategy.CB, top=3
    )
    assert report["strategy"]["strategy"] == "CB_PROFILE"
    assert report["baseline"]["strategy"] == "CB"


def test_report_rejects_unknown_names():
    with pytest.raises(ValueError):
        build_report("no_such_workload")
    with pytest.raises(ValueError):
        build_report("fir_32_1", strategy="NOT_A_STRATEGY")
