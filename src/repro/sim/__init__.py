"""Instruction-set simulator for the VLIW model architecture.

Executes a compiled :class:`~repro.machine.instruction.MachineProgram`
cycle by cycle: one long instruction per cycle (every functional unit has
single-cycle latency), with register/memory reads happening before writes
within a cycle, dual single-ported data banks with independent stacks,
zero-overhead hardware loops, and optional interrupt injection for
validating the store-lock/store-unlock protocol on duplicated data.
"""

from repro.sim.simulator import (
    CycleLimitError,
    SimulationError,
    SimulationResult,
    Simulator,
)
from repro.sim.errors import (
    InternalError,
    MachineError,
    ProgramError,
    SimError,
    classify_fault,
)
from repro.sim.fastsim import codegen_stats
from repro.sim.loopjit import LoopJitSimulator
from repro.sim.batchsim import BatchSimulator, LaneOutcome
from repro.sim.tracing import collect_block_counts
from repro.sim.interrupts import InterruptInjector
from repro.sim.statistics import UtilizationReport, utilization

#: backend name -> simulator class
BACKENDS = {
    "interp": Simulator,
    "jit": LoopJitSimulator,
    "batch": BatchSimulator,
}


def make_simulator(program, backend="interp", **kwargs):
    """Instantiate the simulator backend named *backend*.

    ``interp`` is the reference per-cycle
    :class:`~repro.sim.simulator.Simulator`; ``jit`` is the
    loop-specializing :class:`~repro.sim.loopjit.LoopJitSimulator`;
    ``batch`` is the lockstep :class:`~repro.sim.batchsim.BatchSimulator`
    (one lane unless built directly).  All honour the same constructor
    keywords (``stack_words``, ``max_cycles``, ``interrupt_hook``) and
    produce bit-identical
    :class:`~repro.sim.simulator.SimulationResult`, per-pc counts, and
    final machine state, so callers may switch freely.  Raises
    :class:`ValueError` for an unknown backend name; :data:`BACKENDS`
    lists the valid ones.
    """
    try:
        cls = BACKENDS[backend]
    except KeyError:
        raise ValueError(
            "unknown simulator backend %r (choose from: %s)"
            % (backend, ", ".join(sorted(BACKENDS)))
        )
    return cls(program, **kwargs)


__all__ = [
    "BACKENDS",
    "BatchSimulator",
    "LaneOutcome",
    "CycleLimitError",
    "InternalError",
    "InterruptInjector",
    "LoopJitSimulator",
    "MachineError",
    "ProgramError",
    "SimError",
    "SimulationError",
    "SimulationResult",
    "Simulator",
    "UtilizationReport",
    "classify_fault",
    "codegen_stats",
    "collect_block_counts",
    "make_simulator",
    "utilization",
]
