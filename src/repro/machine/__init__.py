"""Machine model of the VLIW DSP architecture (paper Figure 2).

Nine pipelined functional units, each with single-cycle latency:

* ``PCU`` — program control unit (branches, calls, hardware loops);
* ``MU0``/``MU1`` — memory units; MU0 accesses the X data-memory bank,
  MU1 accesses the Y bank, both single-ported;
* ``AU0``/``AU1`` — address units;
* ``DU0``/``DU1`` — integer data units;
* ``FPU0``/``FPU1`` — floating-point units.

A :class:`~repro.machine.instruction.LongInstruction` packs at most one
operation per unit.
"""

from repro.machine.resources import (
    ALL_UNITS,
    MEMORY_UNITS,
    FunctionalUnit,
    bank_for_unit,
    unit_for_bank,
    units_for_class,
)
from repro.machine.instruction import LongInstruction, MachineProgram
from repro.machine.asm import format_asm

__all__ = [
    "ALL_UNITS",
    "FunctionalUnit",
    "LongInstruction",
    "MEMORY_UNITS",
    "MachineProgram",
    "bank_for_unit",
    "format_asm",
    "unit_for_bank",
    "units_for_class",
]
