"""Backend selection and simulator control-flow regressions.

The control-flow and store-lock regressions run on every backend: the
underlying bugs were in the reference interpreter's run loop, and the
codegen backends must agree with the fixed semantics.
"""

import pytest

from repro.compiler import compile_module
from repro.frontend import ProgramBuilder
from repro.ir.operations import OpCode, Operation
from repro.ir.types import RegClass
from repro.ir.values import Immediate, Label, VirtualRegister
from repro.machine.resources import FunctionalUnit
from repro.partition.strategies import Strategy
from repro.sim import BACKENDS, make_simulator
from repro.sim.loopjit import LoopJitSimulator
from repro.sim.simulator import SimulationError, Simulator

ALL_BACKENDS = sorted(BACKENDS)


# ----------------------------------------------------------------------
# Backend selection
# ----------------------------------------------------------------------
def test_make_simulator_factory(dot_product_module):
    program = compile_module(dot_product_module()).program
    assert type(make_simulator(program)) is Simulator
    assert type(make_simulator(program, backend="interp")) is Simulator
    assert type(make_simulator(program, backend="jit")) is LoopJitSimulator
    # "fast" is retired: only the serve protocol still maps it to jit
    for retired in ("turbo", "fast"):
        with pytest.raises(ValueError, match="unknown simulator backend"):
            make_simulator(program, backend=retired)


# ----------------------------------------------------------------------
# Regression: hardware-loop back-edge vs. control transfer
# ----------------------------------------------------------------------
def _loop_with_branch_out():
    """A counted loop whose final instruction carries a taken conditional
    branch to the loop exit.

    The frontend never emits this shape, so the branch is injected into
    the compiled program: the regression was that the back-edge test ran
    on *any* instruction at the loop-end pc, stealing the next pc from an
    already-taken branch/CALL/RET in that same instruction.
    """
    pb = ProgramBuilder("t")
    out = pb.global_scalar("out", int)
    with pb.function("main") as f:
        acc = f.int_var("acc")
        f.assign(acc, 0)
        with f.loop(10):
            f.assign(acc, acc + 1)
        f.assign(out[0], acc)
    program = compile_module(pb.build(), strategy=Strategy.SINGLE_BANK).program

    ((_start, end),) = program.loops.values()
    exit_label = min(
        (label for label, index in program.labels.items() if index > end),
        key=lambda label: program.labels[label],
    )
    final = program.instructions[end]
    assert final.unit_free(FunctionalUnit.PCU)
    final.add(
        FunctionalUnit.PCU,
        Operation(
            OpCode.BRT, sources=(Immediate(1),), target=Label(exit_label)
        ),
    )
    return program


@pytest.mark.parametrize("backend", ALL_BACKENDS)
def test_taken_branch_in_loop_final_instruction_wins(backend):
    program = _loop_with_branch_out()
    simulator = make_simulator(program, backend=backend)
    simulator.run()
    # The always-taken branch exits on the first iteration; with the bug
    # the back-edge overrode it and the body ran all 10 times.
    assert simulator.read_global("out") == 1


def test_branch_out_of_loop_identical_across_backends():
    results = {
        backend: make_simulator(_loop_with_branch_out(), backend=backend).run()
        for backend in ALL_BACKENDS
    }
    reference = results["interp"]
    for result in results.values():
        assert result.cycles == reference.cycles
        assert result.pc_counts == reference.pc_counts


# ----------------------------------------------------------------------
# Read-before-write inside one packed instruction
# ----------------------------------------------------------------------
def _rotation_module(hw):
    """``t = a; a = b; b = t + b`` per iteration.  The anti edge from the
    read of ``a`` to its overwrite lets compaction pack both moves into
    one instruction (the paper's data-compatibility rule)."""
    pb = ProgramBuilder("t")
    seed = pb.global_array("seed", 2, float, init=[1.0, 2.0], opaque=True)
    out = pb.global_array("out", 2, float)
    with pb.function("main") as f:
        a, b, t = f.float_var("a"), f.float_var("b"), f.float_var("t")
        f.assign(a, seed[0])
        f.assign(b, seed[1])
        with f.loop(5, hw=hw):
            f.assign(t, a)
            f.assign(a, b)
            f.assign(b, t + b)
        f.assign(out[0], a)
        f.assign(out[1], b)
    return pb.build()


def _overwritten_reads(program):
    """pcs holding an op that reads a register another op of the same
    instruction writes."""
    pcs = []
    for pc, instruction in enumerate(program.instructions):
        ops = instruction.ops
        written = {
            (op.dest.rclass, op.dest.physical)
            for op in ops
            if op.dest is not None
        }
        for op in ops:
            others = written - (
                {(op.dest.rclass, op.dest.physical)} if op.dest else set()
            )
            if any((r.rclass, r.physical) in others for r in op.reads()):
                pcs.append(pc)
                break
    return pcs


@pytest.mark.parametrize("reverse", [False, True], ids=["slots", "reversed"])
@pytest.mark.parametrize("hw", [True, False], ids=["hw-loop", "sw-loop"])
def test_packed_overwrite_reads_the_old_value(hw, reverse):
    """Every backend reads the pre-instruction value of a register that
    the same instruction overwrites, whatever the slot order: the
    codegen evaluates an op straight into its destination only when no
    other op of the instruction writes one of its inputs.  The hardware
    loop runs in jit's loop closure, the software loop in its
    superblocks, batch on its step table."""
    program = compile_module(
        _rotation_module(hw), strategy=Strategy.CB
    ).program
    packed = _overwritten_reads(program)
    assert packed, "compaction must pack the read with its overwrite"
    if reverse:
        for pc in packed:
            instruction = program.instructions[pc]
            instruction.slots = dict(reversed(list(instruction.slots.items())))
    runs = {}
    for backend in ALL_BACKENDS:
        simulator = make_simulator(program, backend=backend)
        result = simulator.run()
        runs[backend] = (
            result.cycles,
            result.operations,
            result.pc_counts,
            simulator.state_digest(),
            simulator.read_global("out"),
        )
    assert runs["interp"][4] == [13.0, 21.0]
    for backend in ALL_BACKENDS:
        assert runs[backend] == runs["interp"], backend


def _two_fault_instruction(index, division_first):
    """One instruction holding a load of ``data[index]`` and a 0.0 / 0.0
    division (injected on a free FPU, before or after the load in slot
    order): both fault, so the first in slot order decides the error."""
    pb = ProgramBuilder("t")
    data = pb.global_array("data", 4, float, init=[0.0] * 4, opaque=True)
    out = pb.global_scalar("out", float)
    with pb.function("main") as f:
        i = f.index_var("i")
        f.assign(i, index)
        f.assign(out[0], data[i])
    program = compile_module(pb.build(), strategy=Strategy.SINGLE_BANK).program
    (instruction,) = [
        instruction
        for instruction in program.instructions
        if any(op.opcode is OpCode.LOAD for op in instruction.ops)
    ]
    zero = VirtualRegister(0, RegClass.FLOAT)
    zero.physical = 31
    quotient = VirtualRegister(1, RegClass.FLOAT)
    quotient.physical = 30
    division = (
        FunctionalUnit.FPU0,
        Operation(OpCode.FDIV, dest=quotient, sources=(zero, zero)),
    )
    slots = list(instruction.slots.items())
    instruction.slots = dict(
        [division] + slots if division_first else slots + [division]
    )
    return program


@pytest.mark.parametrize(
    "index, division_first, error",
    [
        (4, True, ZeroDivisionError),
        (10**6, False, SimulationError),
    ],
    ids=["division-then-bounds-check", "bounds-check-then-division"],
)
def test_first_fault_in_slot_order_wins(index, division_first, error):
    """An operation the codegen evaluates in the write phase must not
    let a later operation's fault overtake its own: every backend
    reports the fault the interpreter meets first."""
    program = _two_fault_instruction(index, division_first)
    for backend in ALL_BACKENDS:
        simulator = make_simulator(program, backend=backend)
        with pytest.raises(error):
            simulator.run()


# ----------------------------------------------------------------------
# Regression: store-lock window semantics
# ----------------------------------------------------------------------
def _dup_program():
    """CB_DUP-compiled module whose duplicated array produces a locked
    store pair packed into a single long instruction."""
    pb = ProgramBuilder("t")
    signal = pb.global_array("signal", 16, float, init=[0.0] * 16)
    r = pb.global_array("R", 4, float)
    with pb.function("main") as f:
        with f.loop(16) as i:
            f.assign(signal[i], 0.5)
        with f.loop(4, name="m") as m:
            acc = f.float_var("acc")
            f.assign(acc, 0.0)
            with f.for_range(0, 12, name="n") as n:
                f.assign(acc, acc + signal[n] * signal[n + m])
            f.assign(r[m], acc)
    return compile_module(pb.build(), strategy=Strategy.CB_DUP).program


def _find_paired_lock(program):
    """pc of an instruction holding both a locked store and its shadow."""
    for pc, instruction in enumerate(program.instructions):
        stores = [
            op
            for op in instruction.slots.values()
            if op.opcode is OpCode.STORE and op.locked
        ]
        if len(stores) >= 2 and any(op.shadow for op in stores):
            return pc
    pytest.skip("schedule did not pack a lock/unlock pair")


def _run_observing_lock(program):
    observed = []

    def hook(sim, _cycle):
        observed.append(sim.locked)

    simulator = Simulator(program, interrupt_hook=hook)
    result = simulator.run()
    return simulator, result, observed


def test_same_instruction_lock_pair_is_order_independent():
    """A lock and its unlock sharing one instruction must cancel out no
    matter which slot the decoder visits first."""
    program = _dup_program()
    pc = _find_paired_lock(program)
    _sim, reference, observed = _run_observing_lock(program)
    assert observed and not any(observed)

    reversed_program = _dup_program()
    instruction = reversed_program.instructions[pc]
    instruction.slots = dict(reversed(list(instruction.slots.items())))
    _sim, result, observed_reversed = _run_observing_lock(reversed_program)
    # With order-dependent decoding the reversed slots leave the window
    # open forever, suppressing every later interrupt.
    assert observed_reversed and not any(observed_reversed)
    assert len(observed_reversed) == len(observed)
    assert result.cycles == reference.cycles


def _open_window_program():
    """The dup program with every store-unlock removed, so each locked
    store opens a window that nothing ever closes."""
    program = _dup_program()
    stripped = False
    for instruction in program.instructions:
        for unit, op in list(instruction.slots.items()):
            if op.opcode is OpCode.STORE and op.locked and op.shadow:
                del instruction.slots[unit]
                stripped = True
    assert stripped
    return program


@pytest.mark.parametrize("backend", ALL_BACKENDS)
def test_locked_window_resets_on_halt(backend):
    simulator = make_simulator(_open_window_program(), backend=backend)
    simulator.run()
    assert simulator.locked is False


@pytest.mark.parametrize("backend", ALL_BACKENDS)
def test_locked_window_resets_on_simulation_error(backend):
    simulator = make_simulator(
        _open_window_program(), backend=backend, max_cycles=40
    )
    with pytest.raises(SimulationError):
        simulator.run()
    assert simulator.locked is False


def test_no_interrupt_fires_inside_open_window():
    """Once a lone store-lock opens the window, nothing ever closes it,
    so interrupt delivery must stop at that cycle and never resume."""
    program = _open_window_program()
    delivered = []

    def hook(sim, cycle):
        assert sim.locked is False  # never inside the window
        delivered.append(cycle)

    simulator = Simulator(program, interrupt_hook=hook)
    result = simulator.run()
    # Deliveries form a contiguous prefix of the run: every unlocked
    # cycle up to the first lock, then silence to the end.
    assert delivered == list(range(delivered[0], delivered[0] + len(delivered)))
    assert delivered[-1] < result.cycles
    assert simulator.locked is False
