"""Zero-overhead hardware loops and the call machinery in the simulator."""

import pytest

from repro.compiler import compile_module
from repro.frontend import ProgramBuilder
from repro.partition.strategies import Strategy
from repro.sim.simulator import SimulationError, Simulator
from tests.conftest import compile_and_run


def test_hw_loop_back_edge_costs_nothing():
    """A single-instruction loop body of N iterations costs N cycles."""
    pb = ProgramBuilder("t")
    out = pb.global_scalar("out", float)
    with pb.function("main") as f:
        acc = f.float_var("acc")
        one = f.float_var("one")
        f.assign(acc, 0.0)
        f.assign(one, 1.0)
        with f.loop(100):
            f.assign(acc, acc + one * one)  # one FMAC -> one instruction
        f.assign(out[0], acc)
    compiled = compile_module(pb.build(), strategy=Strategy.CB)
    sim = Simulator(compiled.program)
    result = sim.run()
    assert sim.read_global("out") == 100.0
    overhead = result.cycles - 100
    assert overhead <= 4  # entry constants + store + halt


def test_loop_counter_read_at_arm_time():
    """Changing the count register inside the body must not change the
    trip count — the hardware latched it at LOOP_BEGIN."""
    pb = ProgramBuilder("t")
    out = pb.global_scalar("out", int)
    with pb.function("main") as f:
        count = f.index_var("count")
        f.assign(count, 5)
        n = f.int_var("n")
        f.assign(n, 0)
        with f.loop(count):
            f.assign(count, count + 50)
            f.assign(n, n + 1)
        f.assign(out[0], n)
    sim, _ = compile_and_run(pb.build())
    assert sim.read_global("out") == 5


def test_nested_loops_use_loop_stack():
    pb = ProgramBuilder("t")
    out = pb.global_array("out", 3, int)
    with pb.function("main") as f:
        total = f.int_var("total")
        inner_total = f.int_var("it")
        f.assign(total, 0)
        f.assign(inner_total, 0)
        with f.loop(3) as i:
            with f.loop(2):
                f.assign(inner_total, inner_total + 1)
            f.assign(total, total + 1)
        f.assign(out[0], total)
        f.assign(out[1], inner_total)
        f.assign(out[2], 1)
    sim, _ = compile_and_run(pb.build())
    assert sim.read_global("out") == [3, 6, 1]


def test_call_inside_hw_loop():
    pb = ProgramBuilder("t")
    out = pb.global_scalar("out", float)
    with pb.function("bump", params=[("x", float)], returns=float) as f:
        f.ret(f.param("x") + 1.0)
    with pb.function("main") as f:
        acc = f.float_var("acc")
        f.assign(acc, 0.0)
        with f.loop(7):
            f.assign(acc, pb.get("bump")(acc))
        f.assign(out[0], acc)
    sim, _ = compile_and_run(pb.build())
    assert sim.read_global("out") == 7.0


def test_callee_with_own_loops():
    pb = ProgramBuilder("t")
    data = pb.global_array("data", 8, float, init=[2.0] * 8)
    out = pb.global_scalar("out", float)
    with pb.function("total", returns=float) as f:
        acc = f.float_var("acc")
        f.assign(acc, 0.0)
        with f.loop(8) as i:
            f.assign(acc, acc + data[i] * 1.0)
        f.ret(acc)
    with pb.function("main") as f:
        a = f.float_var("a")
        f.assign(a, pb.get("total")())
        with f.loop(2):
            f.assign(a, a + pb.get("total")())
        f.assign(out[0], a)
    sim, _ = compile_and_run(pb.build())
    assert sim.read_global("out") == 48.0


def test_return_address_uses_x_stack():
    pb = ProgramBuilder("t")
    out = pb.global_scalar("out", float)
    with pb.function("id", params=[("x", float)], returns=float) as f:
        f.ret(f.param("x"))
    with pb.function("main") as f:
        f.assign(out[0], pb.get("id")(3.5))
    compiled = compile_module(pb.build(), strategy=Strategy.CB)
    sim = Simulator(compiled.program)
    result = sim.run()
    assert result.stack_peak_x >= 1  # the pushed return address


def test_ret_in_main_is_a_fault():
    from repro.ir.operations import OpCode, Operation

    pb = ProgramBuilder("t")
    out = pb.global_scalar("out", int)
    with pb.function("main") as f:
        f.assign(out[0], 1)
    compiled = compile_module(pb.build(), strategy=Strategy.SINGLE_BANK)
    # Replace HALT with RET in the compiled program: the IR validator
    # rejects a RET in main, so the fault is reachable only below it.
    halts = [
        (instruction, unit)
        for instruction in compiled.program.instructions
        for unit, op in instruction.slots.items()
        if op.opcode is OpCode.HALT
    ]
    assert len(halts) == 1
    instruction, unit = halts[0]
    instruction.slots[unit] = Operation(OpCode.RET)
    sim = Simulator(compiled.program)
    with pytest.raises(SimulationError, match="empty call stack"):
        sim.run()


def test_recursive_style_chain_of_calls():
    pb = ProgramBuilder("t")
    out = pb.global_scalar("out", int)
    with pb.function("f3", params=[("x", int)], returns=int) as f:
        f.ret(f.param("x") * 3)
    with pb.function("f2", params=[("x", int)], returns=int) as f:
        f.ret(pb.get("f3")(f.param("x")) + 2)
    with pb.function("f1", params=[("x", int)], returns=int) as f:
        f.ret(pb.get("f2")(f.param("x")) + 1)
    with pb.function("main") as f:
        f.assign(out[0], pb.get("f1")(5))
    sim, _ = compile_and_run(pb.build())
    assert sim.read_global("out") == 18
