"""Program symbols: the variables and arrays the allocation pass partitions.

A :class:`Symbol` is the unit of data allocation.  Following the paper, an
array is treated as a *monolithic entity* that is allocated in its entirety
to a single memory bank (a direct consequence of high-order interleaving).
Partial data duplication may instead place a copy of a symbol in *both*
banks (``MemoryBank.BOTH``).
"""

import enum
import sys

from repro.ir.types import DataType


class Storage(enum.Enum):
    """Where a symbol lives.

    ``GLOBAL`` symbols are laid out by the linker at fixed bank addresses.
    ``LOCAL`` symbols live in a function's stack frame; after partitioning
    the compiler maintains two stacks, one per bank (paper Section 3.1).
    ``PARAM`` symbols are function parameters passed in registers; they
    never occupy memory and are excluded from partitioning.
    """

    # Members are singletons: hash by identity in C, not by Enum's
    # Python-level hash of the member name.
    __hash__ = object.__hash__

    GLOBAL = "global"
    LOCAL = "local"
    PARAM = "param"


class MemoryBank(enum.Enum):
    """Data-memory bank assignment of a symbol or memory operation.

    ``X`` and ``Y`` are the two single-ported banks (accessed through memory
    units MU0 and MU1 respectively).  ``BOTH`` marks a duplicated symbol:
    a copy lives in each bank, loads may be served from either, and stores
    must update both copies.
    """

    # Members are singletons: hash by identity in C, not by Enum's
    # Python-level hash of the member name.
    __hash__ = object.__hash__

    X = "X"
    Y = "Y"
    BOTH = "XY"

    @property
    def is_duplicated(self):
        return self is MemoryBank.BOTH

    def __repr__(self):
        return "MemoryBank.%s" % self.name


class Symbol:
    """A named variable or array.

    Parameters
    ----------
    name:
        Unique name within its scope (module for globals, function for
        locals and params).
    data_type:
        Element type; every element occupies one memory word.
    size:
        Number of elements; 1 for scalars.
    storage:
        One of :class:`Storage`.
    initializer:
        Optional sequence of initial element values (globals only).
    opaque:
        True for symbols whose accesses cannot be disambiguated at compile
        time (the paper's conservative case, e.g. data reached through
        pointers passed on the stack).  Opaque symbols are pinned to bank X
        and never duplicated.
    """

    __slots__ = (
        "name",
        "data_type",
        "size",
        "storage",
        "initializer",
        "opaque",
        "bank",
        "duplicated",
        "function",
    )

    def __init__(
        self,
        name,
        data_type=DataType.FLOAT,
        size=1,
        storage=Storage.GLOBAL,
        initializer=None,
        opaque=False,
    ):
        if size < 1:
            raise ValueError("symbol %r must have size >= 1, got %d" % (name, size))
        if initializer is not None and len(initializer) > size:
            raise ValueError(
                "initializer for %r has %d elements but size is %d"
                % (name, len(initializer), size)
            )
        # Symbol names key interference graphs, partitions, and caches
        # all over the compiler; interning makes those string compares
        # pointer checks.  The Symbol itself stays mutable (bank and
        # duplicated are assigned by allocation) and is never consed.
        self.name = sys.intern(name) if type(name) is str else name
        self.data_type = data_type
        self.size = size
        self.storage = storage
        self.initializer = list(initializer) if initializer is not None else None
        self.opaque = opaque
        #: Bank assignment produced by the data-allocation pass.
        self.bank = None
        #: True once the symbol has been duplicated into both banks.
        self.duplicated = False
        #: Owning function name for locals/params; None for globals.
        self.function = None

    @property
    def is_array(self):
        return self.size > 1

    @property
    def is_partitionable(self):
        """Whether the allocation pass may place this symbol.

        Parameters live in registers, and opaque symbols are pinned
        conservatively, so neither participates in partitioning.
        """
        return self.storage is not Storage.PARAM and not self.opaque

    def words(self):
        """Memory words this symbol occupies in a single bank."""
        return self.size

    def __repr__(self):
        tag = "%s %s" % (self.storage.value, self.name)
        if self.is_array:
            tag += "[%d]" % self.size
        if self.bank is not None:
            tag += ":%s" % self.bank.value
        return "<Symbol %s>" % tag


class SymbolTable:
    """Ordered collection of symbols with unique names."""

    __slots__ = ("_symbols",)

    def __init__(self):
        self._symbols = {}

    def add(self, symbol):
        if symbol.name in self._symbols:
            raise ValueError("duplicate symbol %r" % symbol.name)
        self._symbols[symbol.name] = symbol
        return symbol

    def get(self, name):
        return self._symbols[name]

    def __contains__(self, name):
        return name in self._symbols

    def __iter__(self):
        return iter(self._symbols.values())

    def __len__(self):
        return len(self._symbols)

    def arrays(self):
        return [s for s in self if s.is_array]

    def scalars(self):
        return [s for s in self if not s.is_array]
