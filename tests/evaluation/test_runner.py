"""Tests for the evaluation runner and derived metrics."""

from types import SimpleNamespace

import pytest

from repro.evaluation.runner import (
    Measurement,
    WorkloadEvaluation,
    evaluate_workload,
    module_fingerprint,
)
from repro.frontend import ProgramBuilder
from repro.partition.strategies import Strategy
from repro.workloads.registry import APPLICATIONS, KERNELS


@pytest.fixture(scope="module")
def fir_eval():
    return evaluate_workload(
        KERNELS["fir_32_1"],
        [Strategy.CB, Strategy.CB_PROFILE, Strategy.CB_DUP, Strategy.IDEAL],
    )


def test_baseline_always_measured(fir_eval):
    assert Strategy.SINGLE_BANK in fir_eval.measurements
    assert fir_eval.baseline.cycles > 0


def test_gain_definitions_consistent(fir_eval):
    for strategy in (Strategy.CB, Strategy.IDEAL):
        pg = fir_eval.performance_gain(strategy)
        percent = fir_eval.gain_percent(strategy)
        assert percent == pytest.approx(100.0 * (pg - 1.0))


def test_pcr_is_pg_over_ci(fir_eval):
    pcr = fir_eval.pcr(Strategy.CB)
    assert pcr == pytest.approx(
        fir_eval.performance_gain(Strategy.CB)
        / fir_eval.cost_increase(Strategy.CB)
    )


def test_profile_strategy_runs_through_runner(fir_eval):
    assert fir_eval.cycles(Strategy.CB_PROFILE) > 0


def test_duplicated_symbols_recorded():
    evaluation = evaluate_workload(APPLICATIONS["lpc"], [Strategy.CB_DUP])
    assert "ws" in evaluation.measurements[Strategy.CB_DUP].duplicated


def test_verification_failure_propagates():
    workload = KERNELS["fir_32_1"]

    class Broken(type(workload)):
        def expected(self):
            return {"y": [123456.0]}

    broken = Broken(32, 1)
    with pytest.raises(AssertionError):
        evaluate_workload(broken, [Strategy.CB])


def _degenerate_evaluation(base_cycles, base_cost, cycles, cost):
    def measurement(strategy, cycle_count, total):
        return Measurement(
            strategy, cycle_count, SimpleNamespace(total=total), 0, []
        )

    return WorkloadEvaluation(
        "degenerate",
        "kernel",
        {
            Strategy.SINGLE_BANK: measurement(
                Strategy.SINGLE_BANK, base_cycles, base_cost
            ),
            Strategy.CB: measurement(Strategy.CB, cycles, cost),
        },
    )


def test_zero_cycle_zero_cost_measurements_do_not_fault():
    evaluation = _degenerate_evaluation(0, 0, 0, 0)
    assert evaluation.performance_gain(Strategy.CB) == 1.0
    assert evaluation.gain_percent(Strategy.CB) == 0.0
    assert evaluation.cost_increase(Strategy.CB) == 1.0
    assert evaluation.pcr(Strategy.CB) == 1.0


def test_zero_cycle_configuration_is_unbounded_gain():
    evaluation = _degenerate_evaluation(100, 10, 0, 10)
    assert evaluation.performance_gain(Strategy.CB) == float("inf")


def test_zero_cost_configuration_gives_infinite_pcr():
    evaluation = _degenerate_evaluation(100, 10, 50, 0)
    assert evaluation.cost_increase(Strategy.CB) == 0.0
    assert evaluation.pcr(Strategy.CB) == float("inf")


def test_zero_cost_baseline_is_unbounded_cost_increase():
    evaluation = _degenerate_evaluation(100, 0, 50, 10)
    assert evaluation.cost_increase(Strategy.CB) == float("inf")
    assert evaluation.pcr(Strategy.CB) == 0.0


def _fingerprint_module(init_value):
    pb = ProgramBuilder("t")
    a = pb.global_array("A", 4, float, init=[init_value] * 4)
    out = pb.global_scalar("out", float)
    with pb.function("main") as f:
        f.assign(out[0], a[0])
    return pb.build()


def test_module_fingerprint_is_content_keyed():
    assert module_fingerprint(_fingerprint_module(1.0)) == module_fingerprint(
        _fingerprint_module(1.0)
    )
    # Initializers are not part of the printed IR, but they change the
    # simulated memory image — the fingerprint must see them.
    assert module_fingerprint(_fingerprint_module(1.0)) != module_fingerprint(
        _fingerprint_module(2.0)
    )


def test_pr_cycles_agree_across_entry_points(capsys):
    """Every entry point that compiles under ``Pr`` reaches the one
    profile step in :func:`compile_workload`, so all five report the
    same cycles on the workload serve-open profiles — and a profile
    taken on ``jit`` instead of ``interp`` compiles to the same program."""
    import re

    from repro.__main__ import main
    from repro.compiler import CompileOptions
    from repro.evaluation.runner import compile_workload, profile_counts
    from repro.faults.experiment import run_experiment
    from repro.obs.report import build_report
    from repro.serve.jobs import execute_job
    from repro.serve.protocol import validate_job
    from repro.sim import make_simulator
    from repro.sim.tracing import collect_block_counts

    workload = KERNELS["mult_4_4"]
    pr = Strategy.CB_PROFILE
    cycles = {
        "evaluate_workload": evaluate_workload(workload, [pr]).cycles(pr),
        "execute_job": execute_job(
            validate_job({"kind": "run", "workload": workload.name,
                          "strategy": pr.name}),
            cache={},
        )["cycles"],
        "build_report": build_report(workload, strategy=pr)["strategy"][
            "cycles"
        ],
        "run_experiment": run_experiment(workload, pr, seed=0)[
            "reference_cycles"
        ],
    }
    assert main(["run", workload.name, "--strategy", pr.name]) == 0
    cycles["cmd_run"] = int(
        re.search(r": (\d+) cycles", capsys.readouterr().out).group(1)
    )
    assert len(set(cycles.values())) == 1, cycles

    baseline = compile_workload(
        workload, CompileOptions(strategy=Strategy.SINGLE_BANK)
    )
    on_jit = collect_block_counts(
        baseline.program, make_simulator(baseline.program, backend="jit").run()
    )
    assert on_jit == profile_counts(workload)
    compiled = compile_workload(
        workload, CompileOptions(strategy=pr), profile=on_jit
    )
    assert make_simulator(compiled.program).run().cycles == cycles["cmd_run"]
