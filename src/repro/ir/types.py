"""Scalar data types and register classes of the VLIW model architecture.

The model machine (paper Figure 2) has three 32-entry register files:
an address register file, an integer register file, and a floating-point
register file.  Values in memory occupy one 32-bit word regardless of type
(paper Section 4.2 assumes instructions and data are the same size).
"""

import enum


class DataType(enum.Enum):
    """Type of a value stored in a register or a memory word."""

    # Members are singletons: hash by identity in C, not by Enum's
    # Python-level hash of the member name.
    __hash__ = object.__hash__

    INT = "int"
    FLOAT = "float"

    @property
    def zero(self):
        """The zero value of this type, used to initialize memory words."""
        return 0 if self is DataType.INT else 0.0

    def __repr__(self):
        return "DataType.%s" % self.name


class RegClass(enum.Enum):
    """Register file a virtual register belongs to.

    ``ADDR`` registers feed the address units (AU0/AU1) and index memory
    operations; ``INT`` registers feed the integer data units (DU0/DU1);
    ``FLOAT`` registers feed the floating-point units (FPU0/FPU1).
    """

    # Members are singletons: hash by identity in C, not by Enum's
    # Python-level hash of the member name.
    __hash__ = object.__hash__

    ADDR = "a"
    INT = "r"
    FLOAT = "f"

    @property
    def data_type(self):
        """The scalar type carried by registers of this class."""
        return DataType.FLOAT if self is RegClass.FLOAT else DataType.INT

    def __repr__(self):
        return "RegClass.%s" % self.name


#: Number of physical registers in each register file (paper Figure 2:
#: three files of 32 x 32-bit registers).
REGISTERS_PER_FILE = 32
