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
