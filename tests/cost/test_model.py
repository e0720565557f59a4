"""Tests for the paper's first-order cost model (Section 4.2)."""

import pytest

from repro.compiler import compile_module
from repro.cost.model import CostModel, CostReport, TradeoffRow, tradeoff_row
from repro.frontend import ProgramBuilder
from repro.partition.strategies import Strategy
from repro.sim.simulator import Simulator


def test_cost_formula_is_x_plus_y_plus_2s_plus_i():
    report = CostReport(data_x=100, data_y=50, stack=10, instructions=30)
    assert report.total == 100 + 50 + 2 * 10 + 30


def test_tradeoff_row_ratios():
    row = tradeoff_row("app", "CB", 1000, 800, 400, 380)
    assert row.pg == pytest.approx(1.25)
    assert row.ci == pytest.approx(0.95)
    assert row.pcr == pytest.approx(1.25 / 0.95)


def test_tradeoff_row_rejects_nonpositive():
    with pytest.raises(ValueError):
        tradeoff_row("a", "CB", 100, 0, 10, 10)


def _measured(strategy):
    pb = ProgramBuilder("t")
    a = pb.global_array("a", 16, float, init=[1.0] * 16)
    b = pb.global_array("b", 16, float, init=[1.0] * 16)
    out = pb.global_scalar("out", float)
    with pb.function("main") as f:
        acc = f.float_var("acc")
        f.assign(acc, 0.0)
        with f.loop(16) as i:
            f.assign(acc, acc + a[i] * b[i])
        f.assign(out[0], acc)
    compiled = compile_module(pb.build(), strategy=strategy)
    sim = Simulator(compiled.program)
    result = sim.run()
    return CostModel().measure(compiled, result), compiled


def test_measured_cost_components():
    report, compiled = _measured(Strategy.CB)
    assert report.data_x + report.data_y == 16 + 16 + 1
    assert report.instructions == compiled.code_size
    assert report.total > 0


def test_full_duplication_roughly_doubles_data():
    base, _ = _measured(Strategy.SINGLE_BANK)
    dup, _ = _measured(Strategy.FULL_DUP)
    base_data = base.data_x + base.data_y
    dup_data = dup.data_x + dup.data_y
    assert dup_data == 2 * base_data


def test_partitioning_does_not_change_data_size():
    base, _ = _measured(Strategy.SINGLE_BANK)
    cb, _ = _measured(Strategy.CB)
    assert base.data_x + base.data_y == cb.data_x + cb.data_y
