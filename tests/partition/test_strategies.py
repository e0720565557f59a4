"""Tests for the allocation-pass entry point (all six configurations)."""

import pytest

from repro.frontend import ProgramBuilder
from repro.ir.symbols import MemoryBank
from repro.partition.strategies import PAPER_LABELS, Strategy, run_allocation
from repro.workloads.registry import KERNELS
from tests.conftest import compile_and_run


def _two_array_module():
    pb = ProgramBuilder("t")
    a = pb.global_array("a", 8, float, init=[0.0] * 8)
    b = pb.global_array("b", 8, float, init=[0.0] * 8)
    out = pb.global_scalar("out", float)
    with pb.function("main") as f:
        acc = f.float_var("acc")
        f.assign(acc, 0.0)
        with f.loop(8) as i:
            f.assign(acc, acc + a[i] * b[i])
        f.assign(out[0], acc)
    return pb.build()


def test_single_bank_puts_everything_in_x():
    module = _two_array_module()
    run_allocation(module, Strategy.SINGLE_BANK)
    assert all(s.bank is MemoryBank.X for s in module.all_symbols())
    assert all(
        op.bank is MemoryBank.X for op in module.operations() if op.is_memory
    )


def test_cb_separates_interfering_arrays():
    module = _two_array_module()
    result = run_allocation(module, Strategy.CB)
    a = module.globals.get("a")
    b = module.globals.get("b")
    assert a.bank is not b.bank
    assert result.partition is not None
    assert result.graph is not None


def test_ideal_is_dual_ported_flag():
    module = _two_array_module()
    result = run_allocation(module, Strategy.IDEAL)
    assert result.dual_ported
    result2 = run_allocation(_two_array_module(), Strategy.CB)
    assert not result2.dual_ported


def test_cb_profile_requires_counts():
    module = _two_array_module()
    with pytest.raises(ValueError):
        run_allocation(module, Strategy.CB_PROFILE)


def test_cb_profile_with_counts():
    module = _two_array_module()
    result = run_allocation(module, Strategy.CB_PROFILE, profile_counts={})
    a = module.globals.get("a")
    b = module.globals.get("b")
    assert a.bank is not b.bank


def test_full_dup_duplicates_everything():
    module = _two_array_module()
    result = run_allocation(module, Strategy.FULL_DUP)
    assert {s.name for s in result.duplicated} == {"a", "b", "out"}
    assert all(s.bank is MemoryBank.BOTH for s in module.all_symbols())


def test_module_cannot_be_allocated_twice():
    module = _two_array_module()
    run_allocation(module, Strategy.CB)
    with pytest.raises(RuntimeError, match="already allocated"):
        run_allocation(module, Strategy.IDEAL)


def test_memory_ops_tagged_after_allocation():
    module = _two_array_module()
    run_allocation(module, Strategy.CB)
    for op in module.operations():
        if op.is_memory:
            assert op.bank in (MemoryBank.X, MemoryBank.Y, MemoryBank.BOTH)


def test_opaque_symbol_pinned_to_x():
    pb = ProgramBuilder("t")
    a = pb.global_array("a", 8, float, init=[0.0] * 8, opaque=True)
    b = pb.global_array("b", 8, float, init=[0.0] * 8)
    out = pb.global_scalar("out", float)
    with pb.function("main") as f:
        acc = f.float_var("acc")
        f.assign(acc, 0.0)
        with f.loop(8) as i:
            f.assign(acc, acc + a[i] * b[i])
        f.assign(out[0], acc)
    module = pb.build()
    run_allocation(module, Strategy.FULL_DUP)
    assert module.globals.get("a").bank is MemoryBank.X  # never duplicated


def test_exact_aliasing_beats_conservative_opaque_data():
    """Paper Section 2: without alias information the allocation must be
    conservative.  An ``opaque`` FIR input is pinned to bank X, so CB's
    gain over the single bank collapses."""

    def gain(opaque):
        cycles = {}
        for strategy in (Strategy.SINGLE_BANK, Strategy.CB):
            pb = ProgramBuilder("alias")
            coeff = pb.global_array("coeff", 32, float, init=[0.5] * 32)
            x = pb.global_array("x", 32, float, init=[1.0] * 32, opaque=opaque)
            out = pb.global_scalar("out", float)
            with pb.function("main") as f:
                acc = f.float_var("acc")
                f.assign(acc, 0.0)
                with f.loop(32) as k:
                    f.assign(acc, acc + coeff[k] * x[k])
                f.assign(out[0], acc)
            cycles[strategy] = compile_and_run(pb.build(), strategy)[1].cycles
        return cycles[Strategy.SINGLE_BANK] / cycles[Strategy.CB]

    assert gain(opaque=False) > gain(opaque=True)


def test_paper_labels_cover_all_strategies():
    assert set(PAPER_LABELS) == set(Strategy)


def test_bank_summary():
    module = _two_array_module()
    result = run_allocation(module, Strategy.CB)
    summary = result.bank_summary(module)
    placed = summary["X"] + summary["Y"] + summary["XY"]
    assert sorted(placed) == ["a", "b", "out"]


def test_alternating_strategy_alternates():
    module = _two_array_module()
    run_allocation(module, Strategy.ALTERNATING)
    banks = [s.bank for s in module.partitionable_symbols()]
    assert banks[0] is MemoryBank.X
    assert banks[1] is MemoryBank.Y
    assert banks[2] is MemoryBank.X


@pytest.mark.parametrize(
    "name", ["fir_32_1", "iir_1_1", "latnrm_8_1", "lmsfir_8_1", "mult_4_4"]
)
def test_cb_never_loses_to_alternation(name):
    """The interference graph beats declaration-order alternation (the
    Sudarsanam & Malik baseline the paper cites), or ties it."""
    workload = KERNELS[name]
    cb = compile_and_run(workload.build(), Strategy.CB)[1].cycles
    alternating = compile_and_run(workload.build(), Strategy.ALTERNATING)
    assert cb <= alternating[1].cycles
