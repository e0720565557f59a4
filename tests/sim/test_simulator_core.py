"""Core simulator semantics: cycles, state, memory, and faults."""

import pytest

from repro.compiler import compile_module
from repro.frontend import ProgramBuilder
from repro.partition.strategies import Strategy
from repro.sim.simulator import SimulationError, Simulator
from tests.conftest import compile_and_run


def test_cycle_count_equals_executed_instructions():
    pb = ProgramBuilder("t")
    out = pb.global_scalar("out", int)
    with pb.function("main") as f:
        f.assign(out[0], 1)
    compiled = compile_module(pb.build(), strategy=Strategy.SINGLE_BANK)
    sim = Simulator(compiled.program)
    result = sim.run()
    assert result.cycles == len(compiled.program.instructions)
    assert result.cycles == sum(result.pc_counts)


def test_read_before_write_within_cycle():
    """Anti-dependent operations packed into one instruction must read
    the pre-cycle machine state (swap without a temporary is the acid
    test — two moves exchanging registers in the same instruction)."""
    pb = ProgramBuilder("t")
    out = pb.global_array("out", 2, float)
    with pb.function("main") as f:
        a = f.float_var("a")
        b = f.float_var("b")
        f.assign(a, 1.0)
        f.assign(b, 2.0)
        # A swap via parallel moves: lowering produces FMOVs with mutual
        # anti-dependences that the scheduler may pack together.
        t = f.float_var("t")
        f.assign(t, a)
        f.assign(a, b)
        f.assign(b, t)
        f.assign(out[0], a)
        f.assign(out[1], b)
    sim, _ = compile_and_run(pb.build())
    assert sim.read_global("out") == [2.0, 1.0]


def test_write_and_read_globals_between_runs():
    pb = ProgramBuilder("t")
    data = pb.global_array("data", 4, float, init=[1.0, 2.0, 3.0, 4.0])
    out = pb.global_scalar("out", float)
    with pb.function("main") as f:
        acc = f.float_var("acc")
        f.assign(acc, 0.0)
        with f.loop(4) as i:
            f.assign(acc, acc + data[i] * 1.0)
        f.assign(out[0], acc)
    compiled = compile_module(pb.build(), strategy=Strategy.CB)
    sim = Simulator(compiled.program)
    sim.write_global("data", [10.0, 20.0, 30.0, 40.0])
    sim.run()
    assert sim.read_global("out") == 100.0


def test_write_global_rejects_oversized():
    pb = ProgramBuilder("t")
    pb.global_array("data", 2, float)
    out = pb.global_scalar("out", float)
    with pb.function("main") as f:
        f.assign(out[0], 0.0)
    compiled = compile_module(pb.build(), strategy=Strategy.CB)
    sim = Simulator(compiled.program)
    with pytest.raises(ValueError):
        sim.write_global("data", [1.0, 2.0, 3.0])


def test_out_of_bounds_index_faults():
    pb = ProgramBuilder("t")
    data = pb.global_array("data", 4, float, init=[0.0] * 4)
    out = pb.global_scalar("out", float)
    with pb.function("main") as f:
        i = f.index_var("i")
        f.assign(i, 9)
        f.assign(out[0], data[i])
    compiled = compile_module(pb.build(), strategy=Strategy.SINGLE_BANK)
    sim = Simulator(compiled.program)
    with pytest.raises(SimulationError, match="out of bounds"):
        sim.run()


def test_runaway_guard():
    pb = ProgramBuilder("t")
    out = pb.global_scalar("out", int)
    with pb.function("main") as f:
        n = f.int_var("n")
        f.assign(n, 1)
        with f.while_(lambda: n > 0):
            f.assign(n, n + 1)  # never terminates
        f.assign(out[0], n)
    compiled = compile_module(pb.build(), strategy=Strategy.SINGLE_BANK)
    sim = Simulator(compiled.program, max_cycles=5000)
    with pytest.raises(SimulationError, match="max_cycles"):
        sim.run()


def test_stack_overflow_detected():
    pb = ProgramBuilder("t")
    out = pb.global_scalar("out", float)
    with pb.function("main") as f:
        big = f.local_array("big", 64, float)
        f.assign(big[0], 1.0)
        f.assign(out[0], big[0])
    compiled = compile_module(pb.build(), strategy=Strategy.SINGLE_BANK)
    sim = Simulator(compiled.program, stack_words=8)
    with pytest.raises(SimulationError, match="stack overflow"):
        sim.run()


def test_stack_peak_reported():
    pb = ProgramBuilder("t")
    out = pb.global_scalar("out", float)
    with pb.function("main") as f:
        buf = f.local_array("buf", 10, float)
        f.assign(buf[0], 1.0)
        f.assign(out[0], buf[0])
    compiled = compile_module(pb.build(), strategy=Strategy.SINGLE_BANK)
    sim = Simulator(compiled.program)
    result = sim.run()
    assert result.stack_peak_x >= 10
    assert result.stack_peak_y == 0


def test_parallelism_metric():
    pb = ProgramBuilder("t")
    out = pb.global_scalar("out", float)
    with pb.function("main") as f:
        f.assign(out[0], 2.0 * 3.0 + 1.0)
    compiled = compile_module(pb.build(), strategy=Strategy.CB)
    sim = Simulator(compiled.program)
    result = sim.run()
    assert result.operations >= result.cycles
    assert result.parallelism >= 1.0


def test_uninitialized_globals_are_zero():
    pb = ProgramBuilder("t")
    data = pb.global_array("data", 3, float)
    out = pb.global_scalar("out", float)
    with pb.function("main") as f:
        f.assign(out[0], data[0] + data[1] + data[2])
    sim, _ = compile_and_run(pb.build())
    assert sim.read_global("out") == 0.0


def test_local_arrays_isolated_between_calls():
    pb = ProgramBuilder("t")
    out = pb.global_array("out", 2, float)
    with pb.function("probe", params=[("v", float)], returns=float) as f:
        buf = f.local_array("buf", 2, float)
        old = f.float_var("old")
        f.assign(old, buf[0])
        f.assign(buf[0], f.param("v"))
        f.ret(old + buf[0])
    with pb.function("main") as f:
        f.assign(out[0], pb.get("probe")(5.0))
        f.assign(out[1], pb.get("probe")(7.0))
    sim, _ = compile_and_run(pb.build())
    first, second = sim.read_global("out")
    # Each activation gets a fresh (zero-filled or stale) frame; the
    # function must at least see its own write.
    assert first in (5.0, 5.0)
    assert second in (7.0, 12.0)
