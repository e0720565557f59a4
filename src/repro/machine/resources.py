"""Functional-unit inventory and bank wiring of the model architecture."""

import enum

from repro.ir.operations import UnitClass
from repro.ir.symbols import MemoryBank


class FunctionalUnit(enum.Enum):
    """One of the nine functional units of paper Figure 2."""

    # Members are singletons: hash by identity in C, not by Enum's
    # Python-level hash of the member name.
    __hash__ = object.__hash__

    PCU = "PCU"
    MU0 = "MU0"
    MU1 = "MU1"
    AU0 = "AU0"
    AU1 = "AU1"
    DU0 = "DU0"
    DU1 = "DU1"
    FPU0 = "FPU0"
    FPU1 = "FPU1"

    def __repr__(self):
        return "FU.%s" % self.name


ALL_UNITS = tuple(FunctionalUnit)

_UNITS_BY_CLASS = {
    UnitClass.PCU: (FunctionalUnit.PCU,),
    UnitClass.MU: (FunctionalUnit.MU0, FunctionalUnit.MU1),
    UnitClass.AU: (FunctionalUnit.AU0, FunctionalUnit.AU1),
    UnitClass.DU: (FunctionalUnit.DU0, FunctionalUnit.DU1),
    UnitClass.FPU: (FunctionalUnit.FPU0, FunctionalUnit.FPU1),
}

MEMORY_UNITS = _UNITS_BY_CLASS[UnitClass.MU]

#: Bank each memory unit is wired to: MU0 accesses X, MU1 accesses Y.
_BANK_BY_UNIT = {
    FunctionalUnit.MU0: MemoryBank.X,
    FunctionalUnit.MU1: MemoryBank.Y,
}

_UNIT_BY_BANK = {
    MemoryBank.X: FunctionalUnit.MU0,
    MemoryBank.Y: FunctionalUnit.MU1,
}


def units_for_class(unit_class):
    """The functional-unit instances implementing *unit_class*."""
    return _UNITS_BY_CLASS[unit_class]


def bank_for_unit(unit):
    """The data bank a memory unit is wired to."""
    return _BANK_BY_UNIT[unit]


def unit_for_bank(bank):
    """The memory unit wired to *bank* (X or Y only)."""
    return _UNIT_BY_BANK[bank]
