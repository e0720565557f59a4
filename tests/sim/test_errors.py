"""The structured simulator-error taxonomy (repro.sim.errors)."""

import pytest

from repro.sim.errors import (
    InternalError,
    MachineError,
    ProgramError,
    SimError,
    categorize,
    classify_fault,
    describe_fault,
    from_description,
)
from repro.sim.simulator import CycleLimitError, SimulationError


def test_categorize_program_faults():
    assert categorize(SimulationError("unallocated register r3")) == "program"
    assert categorize(SimulationError("unexpected opcode FROB")) == "program"
    assert categorize(SimulationError("unresolved bank for x")) == "program"


def test_categorize_machine_faults():
    assert categorize(SimulationError("negative memory address")) == "machine"
    assert categorize(CycleLimitError("exceeded max_cycles")) == "machine"


def test_categorize_outside_the_simulator():
    assert categorize(ValueError("nope")) is None
    assert categorize(SimError("already classified")) == "internal"


def test_classify_fault_wraps_and_preserves_context():
    original = SimulationError("bad address 99")
    original.pc = 7
    original.cycle = 11
    original.backend = "jit"
    wrapped = classify_fault(original, seed=5)
    assert isinstance(wrapped, MachineError)
    assert wrapped.pc == 7
    assert wrapped.cycle == 11
    assert wrapped.backend == "jit"
    assert wrapped.seed == 5
    assert wrapped.__cause__ is original
    text = str(wrapped)
    assert "bad address 99" in text
    assert "machine" in text and "pc=7" in text and "backend=jit" in text


def test_classify_fault_is_idempotent():
    wrapped = classify_fault(SimulationError("unallocated register a0"))
    assert isinstance(wrapped, ProgramError)
    again = classify_fault(wrapped, seed=3, backend="jit")
    assert again is wrapped
    assert again.seed == 3  # gaps filled, nothing re-wrapped
    assert again.backend == "jit"


def test_classify_fault_internal_fallback():
    wrapped = classify_fault(KeyError("oops"))
    assert isinstance(wrapped, InternalError)
    assert wrapped.category == "internal"


def test_describe_and_rebuild_round_trip():
    fault = SimulationError("stack overflow in bank X")
    fault.pc = 13
    fault.backend = "interp"
    description = describe_fault(fault, seed=9)
    assert description["category"] == "machine"
    assert description["pc"] == 13
    assert description["seed"] == 9
    rebuilt = from_description(description)
    assert isinstance(rebuilt, MachineError)
    assert rebuilt.pc == 13
    assert rebuilt.backend == "interp"
    assert rebuilt.seed == 9
    assert rebuilt.remote_traceback  # formatted worker-side traceback
    assert "stack overflow" in str(rebuilt)


def test_from_description_defaults_to_internal():
    rebuilt = from_description({"message": "??", "category": None})
    assert isinstance(rebuilt, InternalError)


def test_simulator_annotates_faults_in_flight():
    """A crashing run must come back with pc/cycle/backend attached by
    the backend that faulted (the context classify_fault preserves)."""
    from repro.compiler import compile_module
    from repro.partition.strategies import Strategy
    from repro.sim import make_simulator
    from repro.workloads.kernels.fir import Fir

    program = compile_module(
        Fir(32, 1).build(), strategy=Strategy.CB
    ).program
    for backend in ("interp", "jit", "batch"):
        simulator = make_simulator(program, backend=backend, max_cycles=5)
        with pytest.raises(CycleLimitError) as excinfo:
            simulator.run()
        fault = excinfo.value
        assert fault.backend == backend
        assert fault.pc is not None
        assert fault.cycle is not None
        assert isinstance(classify_fault(fault), MachineError)


def _unallocated_behind_branch(taken):
    """A program whose ``if`` body reads a register allocation never
    assigned (its ``physical`` cleared after compiling); ``flag`` decides
    whether the body runs."""
    from repro.compiler import compile_module
    from repro.frontend import ProgramBuilder
    from repro.ir.operations import OpCode
    from repro.ir.values import VirtualRegister
    from repro.partition.strategies import Strategy

    pb = ProgramBuilder("t")
    flag = pb.global_array("flag", 1, int, init=[int(taken)], opaque=True)
    src = pb.global_array("src", 1, float, init=[3.0], opaque=True)
    out = pb.global_array("out", 2, float)
    with pb.function("main") as f:
        x = f.float_var("x")
        f.assign(x, src[0])
        with f.if_(flag[0] > 0):
            f.assign(out[0], x * 2.0)
        f.assign(out[1], x)
    program = compile_module(pb.build(), strategy=Strategy.CB).program
    (op,) = [
        op
        for instruction in program.instructions
        for op in instruction.ops
        if op.opcode is OpCode.FMUL
    ]
    register = op.sources[0]
    op.sources = (VirtualRegister(10**6, register.rclass),) + op.sources[1:]
    return program


def test_unallocated_register_faults_only_when_executed():
    """jit compiles a superblock on its first dispatch, so like interp's
    lazy decode it reports an unallocated register only if the
    instruction runs."""
    from repro.sim import make_simulator

    skipped = _unallocated_behind_branch(taken=False)
    results = {}
    for backend in ("interp", "jit"):
        simulator = make_simulator(skipped, backend=backend)
        results[backend] = (simulator.run().cycles, simulator.state_digest())
    assert results["jit"] == results["interp"]

    executed = _unallocated_behind_branch(taken=True)
    for backend in ("interp", "jit"):
        simulator = make_simulator(executed, backend=backend)
        with pytest.raises(SimulationError, match="unallocated register") as info:
            simulator.run()
        assert isinstance(classify_fault(info.value), ProgramError)
        assert info.value.backend == backend
