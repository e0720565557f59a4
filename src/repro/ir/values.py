"""Operand values: virtual registers, immediates, and branch labels."""

from repro.ir.types import DataType

import sys


class VirtualRegister:
    """An SSA-ish virtual register, later mapped to a physical register.

    Virtual registers are unlimited in number; the linear-scan allocator in
    :mod:`repro.compiler.regalloc` maps them onto the 32 physical registers
    of the appropriate file, spilling to the stack when necessary.

    Instances are identity-hashed: two registers are the same operand only
    if they are the same object, which keeps renaming explicit.  They are
    mutable: ``physical`` is assigned by register allocation.
    """

    __slots__ = ("index", "rclass", "name", "physical")

    def __init__(self, index, rclass, name=None):
        self.index = index
        self.rclass = rclass
        #: Optional human-readable name for IR dumps (e.g. the loop variable).
        self.name = sys.intern(name) if type(name) is str else name
        #: Physical register number assigned by register allocation, or None.
        self.physical = None

    @property
    def data_type(self):
        return self.rclass.data_type

    def __repr__(self):
        base = "%s%d" % (self.rclass.value, self.index)
        if self.name:
            base += ":%s" % self.name
        if self.physical is not None:
            base += "@%d" % self.physical
        return base


class Immediate:
    """A compile-time constant operand.

    Compared and hashed by the normalized ``(value, data_type)``, so
    ``Immediate(True) == Immediate(1)``.  Immutable once constructed.
    """

    __slots__ = ("value", "data_type")

    def __init__(self, value, data_type=None):
        if data_type is None:
            data_type = DataType.FLOAT if isinstance(value, float) else DataType.INT
        self.value = int(value) if data_type is DataType.INT else float(value)
        self.data_type = data_type

    def __eq__(self, other):
        return (
            isinstance(other, Immediate)
            and self.value == other.value
            and self.data_type is other.data_type
        )

    def __hash__(self):
        return hash((self.value, self.data_type))

    def __repr__(self):
        return "#%r" % (self.value,)


class Label:
    """A branch target naming a basic block within a function.

    Compared and hashed by name; the name string is ``sys.intern``-ed,
    so the string compare is usually a pointer check.
    """

    __slots__ = ("name",)

    def __init__(self, name):
        self.name = sys.intern(name) if type(name) is str else name

    def __eq__(self, other):
        return isinstance(other, Label) and self.name == other.name

    def __hash__(self):
        return hash(self.name)

    def __repr__(self):
        return "@%s" % self.name


#: Union of the types allowed as operation sources.
Operand = (VirtualRegister, Immediate)


def is_register(operand):
    """True if *operand* is a virtual register (as opposed to an immediate)."""
    return isinstance(operand, VirtualRegister)
