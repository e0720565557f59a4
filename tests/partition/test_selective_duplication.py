"""Tests for selective duplication (the paper's Section 5 refinement)."""

import pytest

from repro.compiler import compile_module
from repro.evaluation.runner import profile_counts
from repro.frontend import ProgramBuilder
from repro.partition.duplication import (
    estimate_store_penalty,
    select_beneficial,
)
from repro.partition.graph_builder import build_interference_graph
from repro.partition.strategies import Strategy, run_allocation
from repro.partition.weights import StaticDepthWeights
from repro.sim.simulator import Simulator
from repro.workloads.registry import APPLICATIONS
from tests.conftest import compile_and_run


def _read_mostly_module():
    """Same-array read pairs in a hot loop; stores only in a cold setup."""
    pb = ProgramBuilder("readmostly")
    sig = pb.global_array("sig", 16, float, init=[0.0] * 16)
    out = pb.global_scalar("out", float)
    with pb.function("main") as f:
        with f.loop(16) as i:
            f.assign(sig[i], 1.0)
        acc = f.float_var("acc")
        f.assign(acc, 0.0)
        with f.loop(4, name="m") as m:
            with f.loop(8, name="n") as n:
                f.assign(acc, acc + sig[n] * sig[n + m])
        f.assign(out[0], acc)
    return pb.build()


def _store_heavy_module():
    """Same-array read pairs, but the same loop stores twice per read."""
    pb = ProgramBuilder("storeheavy")
    buf = pb.global_array("buf", 16, float, init=[1.0] * 16)
    out = pb.global_scalar("out", float)
    with pb.function("main") as f:
        acc = f.float_var("acc")
        f.assign(acc, 0.0)
        with f.loop(3, name="r"):
            with f.loop(8, name="i") as i:
                a = f.float_var("a")
                b = f.float_var("b")
                f.assign(a, buf[i])
                f.assign(b, buf[i + 8])
                f.assign(acc, acc + a * b)
                f.assign(buf[i], a + 0.25)
                f.assign(buf[i + 8], b + 0.5)
        f.assign(out[0], acc)
    return pb.build()


def test_benefit_accumulates_with_depth_weights():
    module = _read_mostly_module()
    graph = build_interference_graph(module)
    sig = module.globals.get("sig")
    assert graph.duplication_benefit(sig) > 0


def test_store_penalty_counts_weighted_stores():
    module = _store_heavy_module()
    weights = StaticDepthWeights()
    buf = module.globals.get("buf")
    penalty = estimate_store_penalty(module, buf, weights)
    # Two stores at depth 2 (weight 3) each occurrence.
    assert penalty == 2 * 3


def test_selection_keeps_read_mostly_candidates():
    module = _read_mostly_module()
    graph = build_interference_graph(module)
    selected, decisions = select_beneficial(
        module, graph, StaticDepthWeights()
    )
    assert [s.name for s in selected] == ["sig"]
    (symbol, benefit, penalty, keep) = decisions[0]
    assert keep and benefit > penalty


def test_selection_rejects_store_heavy_candidates():
    module = _store_heavy_module()
    graph = build_interference_graph(module)
    sig = module.globals.get("buf")
    assert sig in graph.duplication_candidates
    selected, decisions = select_beneficial(
        module, graph, StaticDepthWeights()
    )
    assert selected == []


def test_selective_strategy_end_to_end_semantics():
    for build in (_read_mostly_module, _store_heavy_module):
        sims = {}
        for strategy in (Strategy.SINGLE_BANK, Strategy.CB_DUP_SELECTIVE):
            sim, _ = compile_and_run(build(), strategy=strategy)
            sims[strategy] = sim.read_global("out")
        assert sims[Strategy.SINGLE_BANK] == sims[Strategy.CB_DUP_SELECTIVE]


def test_selective_never_below_best_of_cb_and_dup_on_dup_apps():
    """The refinement's whole point: on each of the paper's duplication
    applications, selective duplication matches the better of CB and
    blanket partial duplication."""
    for name in ("lpc", "spectral", "V32encode"):
        workload = APPLICATIONS[name]
        counts = profile_counts(workload)
        cycles = {}
        for strategy in (Strategy.CB, Strategy.CB_DUP, Strategy.CB_DUP_SELECTIVE):
            kwargs = (
                {"profile_counts": counts}
                if strategy is Strategy.CB_DUP_SELECTIVE
                else {}
            )
            compiled = compile_module(
                workload.build(), strategy=strategy, **kwargs
            )
            sim = Simulator(compiled.program)
            result = sim.run()
            workload.verify(sim)
            cycles[strategy] = result.cycles
        best = min(cycles[Strategy.CB], cycles[Strategy.CB_DUP])
        assert cycles[Strategy.CB_DUP_SELECTIVE] <= best, (name, cycles)


def test_selective_decisions_recorded():
    workload = APPLICATIONS["spectral"]
    compiled = compile_module(
        workload.build(), strategy=Strategy.CB_DUP_SELECTIVE
    )
    decisions = {
        symbol.name: keep
        for symbol, _b, _p, keep in compiled.allocation.duplication_decisions
    }
    assert decisions.get("re") is False
    assert decisions.get("im") is False


def test_selective_works_without_profile():
    workload = APPLICATIONS["lpc"]
    compiled = compile_module(
        workload.build(), strategy=Strategy.CB_DUP_SELECTIVE
    )
    assert any(s.name == "ws" for s in compiled.allocation.duplicated)
