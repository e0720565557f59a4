"""Tests for the `python -m repro` command-line driver."""

import pytest

from repro.__main__ import build_parser, main

#: every registered subcommand (kept in sync by test_parser_has_all_commands)
ALL_COMMANDS = (
    "list",
    "run",
    "compare",
    "figure7",
    "figure8",
    "table3",
    "report",
    "fuzz",
    "faults",
    "graph",
    "partition-gap",
    "serve",
    "chaos",
)


def test_list_command(capsys):
    assert main(["list"]) == 0
    out = capsys.readouterr().out
    assert "fir_256_64" in out
    assert "G721MLencode" in out


def test_run_command(capsys):
    assert main(["run", "fir_32_1", "--strategy", "CB"]) == 0
    out = capsys.readouterr().out
    assert "verified OK" in out
    assert "cycles" in out


def test_run_with_stats_and_dump(capsys):
    assert main(["run", "mult_4_4", "--strategy", "CB", "--stats", "--dump"]) == 0
    out = capsys.readouterr().out
    assert "unit utilization" in out
    assert "MU0" in out
    assert "loop_begin" in out


def test_run_with_pipelining(capsys):
    assert main(["run", "fir_32_1", "--pipeline"]) == 0
    out = capsys.readouterr().out
    assert "verified OK" in out


def test_compare_command(capsys):
    assert main(["compare", "fir_32_1", "--strategies", "CB,IDEAL"]) == 0
    out = capsys.readouterr().out
    assert "baseline" in out
    assert "Ideal" in out


def test_run_profile_strategy(capsys):
    assert main(["run", "mult_4_4", "--strategy", "CB_PROFILE"]) == 0
    out = capsys.readouterr().out
    assert "verified OK" in out


def test_unknown_workload_errors():
    with pytest.raises(SystemExit):
        main(["run", "nonexistent"])


def test_unknown_strategy_errors():
    with pytest.raises(SystemExit):
        main(["run", "fir_32_1", "--strategy", "BOGUS"])


def test_parser_has_all_commands():
    parser = build_parser()
    text = parser.format_help()
    for command in ALL_COMMANDS:
        assert command in text
    # ALL_COMMANDS is exhaustive: a new subcommand must extend the smoke
    # tests below, so flag any drift between the parser and this module.
    listed = set(parser._subparsers._group_actions[0].choices)
    assert listed == set(ALL_COMMANDS)


@pytest.mark.parametrize("command", ALL_COMMANDS)
def test_every_subcommand_has_help(command, capsys):
    with pytest.raises(SystemExit) as excinfo:
        main([command, "--help"])
    assert excinfo.value.code == 0
    assert "usage:" in capsys.readouterr().out


def test_no_command_is_an_error(capsys):
    with pytest.raises(SystemExit) as excinfo:
        main([])
    assert excinfo.value.code != 0


def test_unknown_command_is_an_error():
    with pytest.raises(SystemExit) as excinfo:
        main(["frobnicate"])
    assert excinfo.value.code != 0


def test_fuzz_rejects_negative_runs():
    with pytest.raises(SystemExit):
        main(["fuzz", "--runs", "-5"])


def test_fuzz_tiny_end_to_end(capsys, tmp_path):
    corpus = str(tmp_path / "corpus")
    assert (
        main(["fuzz", "--runs", "3", "--seed", "0", "--corpus", corpus]) == 0
    )
    out = capsys.readouterr().out
    assert "3 runs, 0 oracle violations" in out
    import os

    assert not os.path.exists(corpus)  # nothing archived on a clean run


def test_fuzz_backend_flag_narrows_oracle_pair(capsys, tmp_path):
    """`fuzz --backend batch` runs the corpus with the identity stage
    narrowed to (interp, batch)."""
    corpus = str(tmp_path / "corpus")
    assert (
        main([
            "fuzz", "--runs", "2", "--seed", "0", "--corpus", corpus,
            "--backend", "batch",
        ]) == 0
    )
    assert "2 runs, 0 oracle violations" in capsys.readouterr().out


def test_fuzz_archives_failures(capsys, tmp_path, monkeypatch):
    """End to end through the CLI with an injected oracle bug: nonzero
    exit code, shrunk recipe and regression written to the corpus."""
    from repro.fuzz import campaign
    from repro.fuzz.oracle import OracleViolation

    def broken(recipe, **_kwargs):
        raise OracleViolation("strategy-semantics", "injected")

    monkeypatch.setattr(campaign, "check_recipe", broken)
    corpus = str(tmp_path / "corpus")
    assert (
        main(["fuzz", "--runs", "1", "--seed", "7", "--corpus", corpus]) == 1
    )
    out = capsys.readouterr().out
    assert "1 oracle violation" in out
    import glob

    assert glob.glob(corpus + "/recipe_*.json")
    assert glob.glob(corpus + "/test_regression_*.py")


def test_fuzz_with_journal_resumes(capsys, tmp_path):
    """`fuzz --journal` checkpoints seeds through the supervised runner;
    a rerun resumes from the journal instead of re-checking."""
    import os

    journal = str(tmp_path / "fuzz.jsonl")
    corpus = str(tmp_path / "corpus")
    argv = [
        "fuzz", "--runs", "2", "--seed", "0", "--corpus", corpus,
        "--journal", journal,
    ]
    assert main(argv) == 0
    assert "2 runs, 0 oracle violations" in capsys.readouterr().out
    before = os.path.getmtime(journal)
    assert main(argv) == 0  # resumed: nothing new lands in the journal
    assert os.path.getmtime(journal) == before


def test_faults_rejects_negative_runs():
    with pytest.raises(SystemExit):
        main(["faults", "--runs", "-1"])


def test_faults_rejects_unknown_workload():
    with pytest.raises(SystemExit):
        main(["faults", "--runs", "1", "--workloads", "nonexistent"])


def test_faults_tiny_end_to_end(capsys):
    assert (
        main(
            [
                "faults", "--runs", "2", "--workloads", "fir_32_1",
                "--strategies", "SINGLE_BANK,CB_DUP",
            ]
        )
        == 0
    )
    out = capsys.readouterr().out
    assert "# Resilience report" in out
    assert "4 faulted runs" in out
    assert "Dup" in out and "baseline" in out


def test_faults_writes_json_report(capsys, tmp_path):
    import json

    path = str(tmp_path / "resilience.json")
    assert (
        main(
            [
                "faults", "--runs", "1", "--workloads", "fir_32_1",
                "--strategies", "CB_DUP", "--json", path,
            ]
        )
        == 0
    )
    with open(path) as handle:
        report = json.load(handle)
    assert report["runs"] == 1
    assert set(report["strategies"]) == {"CB_DUP"}
    assert "obs" in report  # the CLI campaign runs instrumented


@pytest.mark.chaos
def test_chaos_tiny_end_to_end(capsys, tmp_path):
    """`repro chaos` drives a one-cycle campaign end to end: plan draw,
    live service, kill/restart, verdict render, JSON report."""
    import json

    path = str(tmp_path / "chaos.json")
    assert (
        main(
            [
                "chaos", "--seed", "5", "--cycles", "1",
                "--jobs-per-cycle", "1", "--budget", "60",
                "--work-dir", str(tmp_path / "work"), "--json", path,
            ]
        )
        == 0
    )
    out = capsys.readouterr().out
    assert "verdict: OK" in out
    with open(path) as handle:
        report = json.load(handle)
    assert report["ok"] is True
    assert report["invariants"]["lost"] == 0
    assert report["invariants"]["duplicate_executions"] == 0


def test_chaos_replays_a_saved_plan(tmp_path, capsys):
    """`--plan` rejects a plan whose pinned version drifted."""
    import json

    stale = str(tmp_path / "stale.json")
    with open(stale, "w") as handle:
        json.dump({"version": 999, "seed": 0, "cycles": []}, handle)
    with pytest.raises(ValueError, match="chaos plan version"):
        main(["chaos", "--plan", stale])


def test_report_workload_emits_observability_markdown(capsys):
    assert main(["report", "--workload", "fir_32_1", "--strategy", "CB"]) == 0
    out = capsys.readouterr().out
    assert out.startswith("# Observability report — fir_32_1")
    assert "Compile passes" in out
    assert "Hot pcs" in out
    assert "Bank-conflict table" in out
    # Machine-readable payload rides along in the same emission.
    assert "```json" in out


def test_report_workload_writes_json_file(capsys, tmp_path):
    import json

    path = str(tmp_path / "report.json")
    assert (
        main(
            [
                "report", "--workload", "fir_32_1", "--strategy", "CB",
                "--baseline", "SINGLE_BANK", "--top", "3", "--json", path,
            ]
        )
        == 0
    )
    with open(path) as handle:
        report = json.load(handle)
    assert report["workload"] == "fir_32_1"
    assert report["strategy"]["strategy"] == "CB"
    assert report["deltas"]["gain_percent"] > 0
    assert len(report["strategy"]["profile"]["hot_pcs"]) <= 3


def test_report_workload_rejects_unknown_names():
    with pytest.raises(SystemExit):
        main(["report", "--workload", "nonexistent"])
    with pytest.raises(SystemExit):
        main(["report", "--workload", "fir_32_1", "--strategy", "BOGUS"])


#: every subcommand that accepts --backend (kept in sync by
#: test_backend_flag_inventory)
BACKEND_COMMANDS = (
    "run", "compare", "figure7", "figure8", "table3", "report", "faults",
    "fuzz", "partition-gap",
)


def test_backend_flag_inventory():
    """Flag drift guard: the smoke tests below must cover exactly the
    subcommands exposing --backend."""
    parser = build_parser()
    subparsers = parser._subparsers._group_actions[0].choices
    with_backend = {
        name
        for name, sub in subparsers.items()
        if any("--backend" in action.option_strings for action in sub._actions)
    }
    assert with_backend == set(BACKEND_COMMANDS)


#: every subcommand that accepts --cache-dir (kept in sync by
#: test_cache_dir_flag_inventory) — the compiling evaluation commands
#: plus the service; fuzz/faults/graph/partition-gap bypass the store
#: by design (random or partitioner-swept content would only churn it)
CACHE_DIR_COMMANDS = (
    "run", "compare", "figure7", "figure8", "table3", "report", "serve",
)


def test_cache_dir_flag_inventory():
    parser = build_parser()
    subparsers = parser._subparsers._group_actions[0].choices
    with_cache_dir = {
        name
        for name, sub in subparsers.items()
        if any(
            "--cache-dir" in action.option_strings for action in sub._actions
        )
    }
    assert with_cache_dir == set(CACHE_DIR_COMMANDS)


def test_run_command_cache_dir_warm_and_cold(capsys, tmp_path):
    """`run --cache-dir` populates the store; a second invocation reads
    through it and prints the identical report."""
    cache = str(tmp_path / "cache")
    assert main(["run", "fir_32_1", "--cache-dir", cache]) == 0
    cold = capsys.readouterr().out
    import os

    assert os.listdir(os.path.join(cache, "objects"))
    assert main(["run", "fir_32_1", "--cache-dir", cache]) == 0
    assert capsys.readouterr().out == cold


def test_compare_command_cache_dir(capsys, tmp_path):
    cache = str(tmp_path / "cache")
    assert (
        main(["compare", "fir_32_1", "--strategies", "CB",
              "--cache-dir", cache]) == 0
    )
    baseline = capsys.readouterr().out
    assert (
        main(["compare", "fir_32_1", "--strategies", "CB",
              "--cache-dir", cache]) == 0
    )
    assert capsys.readouterr().out == baseline


def test_pipelined_profile_run_reads_through_the_store(
    capsys, tmp_path, monkeypatch
):
    """`run --strategy CB_PROFILE --pipeline --cache-dir` stores the
    pipelined Pr compile and the plain baseline it profiled; a second
    process is served both from the store, with the cycles of an
    uncached pipelined compile."""
    import os
    import re

    from repro.compiler import CompileOptions, compile_module
    from repro.evaluation.runner import profile_counts
    from repro.partition.strategies import Strategy
    from repro.serve import store
    from repro.sim import make_simulator
    from repro.workloads.registry import get_workload

    cache = str(tmp_path / "cache")
    argv = ["run", "fir_32_1", "--strategy", "CB_PROFILE", "--pipeline",
            "--cache-dir", cache]
    monkeypatch.setattr(store, "_PROCESS_CACHES", {})
    assert main(argv) == 0
    first = capsys.readouterr().out
    assert len(store.ArtifactStore(cache).entries()) == 2

    monkeypatch.setattr(store, "_PROCESS_CACHES", {})  # a fresh process
    assert main(argv) == 0
    assert capsys.readouterr().out == first
    warm = store.process_compile_cache(cache)
    assert warm.last_source == "store"
    assert (warm.store.hits, warm.store.misses) == (2, 0)

    workload = get_workload("fir_32_1")
    direct = compile_module(
        workload.build(),
        CompileOptions(
            strategy=Strategy.CB_PROFILE,
            profile_counts=profile_counts(workload),
            software_pipelining=True,
        ),
    )
    cycles = make_simulator(direct.program).run().cycles
    assert int(re.search(r": (\d+) cycles", first).group(1)) == cycles


def test_jit_backend_is_a_cli_choice():
    parser = build_parser()
    sub = parser._subparsers._group_actions[0].choices["run"]
    backend = next(
        action for action in sub._actions if "--backend" in action.option_strings
    )
    assert "jit" in backend.choices


def test_run_command_jit_backend(capsys):
    assert main(["run", "fir_32_1", "--strategy", "CB", "--backend", "jit"]) == 0
    assert "verified OK" in capsys.readouterr().out


def test_compare_command_jit_backend(capsys):
    assert (
        main(["compare", "fir_32_1", "--strategies", "CB", "--backend", "jit"])
        == 0
    )
    assert "baseline" in capsys.readouterr().out


@pytest.mark.parametrize("command", ("figure7", "figure8", "table3"))
def test_artifact_commands_jit_backend(command, capsys):
    assert main([command, "--backend", "jit"]) == 0
    assert capsys.readouterr().out.strip()


def test_report_workload_jit_backend(capsys):
    assert (
        main(
            [
                "report", "--workload", "fir_32_1", "--strategy", "CB",
                "--backend", "jit",
            ]
        )
        == 0
    )
    assert "Observability report" in capsys.readouterr().out


def test_partition_gap_subset_end_to_end(capsys, tmp_path):
    import json

    path = str(tmp_path / "gap.json")
    assert (
        main(["partition-gap", "--workload", "fir_32_1", "--json", path]) == 0
    )
    out = capsys.readouterr().out
    assert "gap-to-optimal" in out
    assert "fir_32_1" in out
    with open(path) as handle:
        report = json.load(handle)
    assert report["order"] == ["fir_32_1"]
    assert report["workloads"]["fir_32_1"]["gap"]["exact"] == 1.0


def test_partition_gap_jit_backend(capsys):
    assert (
        main(["partition-gap", "--workload", "fir_32_1", "--backend", "jit"])
        == 0
    )
    assert "gap-to-optimal" in capsys.readouterr().out


def test_partition_gap_rejects_unknown_workload():
    with pytest.raises(SystemExit):
        main(["partition-gap", "--workload", "nonexistent"])


def test_graph_command_produces_dot(capsys):
    assert main(["graph", "fir_32_1"]) == 0
    out = capsys.readouterr().out
    assert out.startswith("graph interference {")
    assert '"coeff" -- "x"' in out or '"x" -- "coeff"' in out


@pytest.mark.parametrize("flags, named", [
    (["--cache-dir", "D"], "--cache-dir"),
    (["--jobs", "2"], "--jobs"),
])
def test_report_workload_refuses_store_and_pool_flags(
    flags, named, capsys, tmp_path, monkeypatch
):
    """The observability report times a fresh compile in this process,
    so a flag it would silently ignore is a usage error instead."""
    monkeypatch.chdir(tmp_path)
    with pytest.raises(SystemExit) as excinfo:
        main(["report", "--workload", "fir_32_1", *flags])
    assert excinfo.value.code == 2
    assert named in capsys.readouterr().err
    assert not (tmp_path / "D").exists()
