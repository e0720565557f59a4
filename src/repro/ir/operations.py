"""Machine operations of the VLIW model architecture.

Every operation executes on exactly one class of functional unit
(paper Figure 2):

========  =======================================  ==================
Unit      Operations                               Instances
========  =======================================  ==================
``PCU``   branches, calls, hardware loops, halt    1
``MU``    loads and stores                         2 (MU0->X, MU1->Y)
``AU``    address arithmetic and compares          2 (AU0, AU1)
``DU``    integer arithmetic, logic, compares      2 (DU0, DU1)
``FPU``   floating-point arithmetic, MAC, convert  2 (FPU0, FPU1)
========  =======================================  ==================

All units have a single clock-cycle latency.  The operation stream produced
by the front-end is *unpacked*: the compaction pass later packs independent
operations into long (VLIW) instructions subject to these unit constraints.
"""

import enum

from repro.ir.values import Label, VirtualRegister


class UnitClass(enum.Enum):
    """Functional-unit class an operation executes on."""

    # Members are singletons: hash by identity in C, not by Enum's
    # Python-level hash of the member name.
    __hash__ = object.__hash__

    PCU = "PCU"
    MU = "MU"
    AU = "AU"
    DU = "DU"
    FPU = "FPU"

    def __repr__(self):
        return "UnitClass.%s" % self.name


class OpKind(enum.Enum):
    """Broad behavioural category used by analyses and the scheduler."""

    # Members are singletons: hash by identity in C, not by Enum's
    # Python-level hash of the member name.
    __hash__ = object.__hash__

    COMPUTE = "compute"
    LOAD = "load"
    STORE = "store"
    CONTROL = "control"
    PSEUDO = "pseudo"


def _int_div(a, b):
    """C-style truncating integer division."""
    q = abs(a) // abs(b)
    return q if (a >= 0) == (b >= 0) else -q


def _int_mod(a, b):
    """C-style remainder: sign follows the dividend."""
    return a - _int_div(a, b) * b


class OpInfo:
    """Static description of an opcode: unit, kind, and evaluator."""

    __slots__ = ("unit", "kind", "sources", "has_dest", "evaluate", "commutative")

    def __init__(self, unit, kind, sources, has_dest, evaluate=None, commutative=False):
        self.unit = unit
        self.kind = kind
        self.sources = sources
        self.has_dest = has_dest
        self.evaluate = evaluate
        self.commutative = commutative


class OpCode(enum.Enum):
    """All opcodes of the model architecture."""

    # Members are singletons: hash by identity in C, not by Enum's
    # Python-level hash of the member name.
    __hash__ = object.__hash__

    # Integer data units (DU)
    ADD = "add"
    SUB = "sub"
    MUL = "mul"
    DIV = "div"
    MOD = "mod"
    NEG = "neg"
    ABS = "abs"
    MIN = "min"
    MAX = "max"
    AND = "and"
    OR = "or"
    XOR = "xor"
    NOT = "not"
    SHL = "shl"
    SHR = "shr"
    CMPEQ = "cmpeq"
    CMPNE = "cmpne"
    CMPLT = "cmplt"
    CMPLE = "cmple"
    CMPGT = "cmpgt"
    CMPGE = "cmpge"
    MOV = "mov"
    CONST = "const"

    # Floating-point units (FPU)
    FADD = "fadd"
    FSUB = "fsub"
    FMUL = "fmul"
    FDIV = "fdiv"
    FNEG = "fneg"
    FABS = "fabs"
    FMIN = "fmin"
    FMAX = "fmax"
    FMAC = "fmac"
    FSQRT = "fsqrt"
    FCMPEQ = "fcmpeq"
    FCMPNE = "fcmpne"
    FCMPLT = "fcmplt"
    FCMPLE = "fcmple"
    FCMPGT = "fcmpgt"
    FCMPGE = "fcmpge"
    FMOV = "fmov"
    FCONST = "fconst"
    ITOF = "itof"
    FTOI = "ftoi"

    # Address units (AU)
    AADD = "aadd"
    ASUB = "asub"
    AMUL = "amul"
    AMOV = "amov"
    ACONST = "aconst"
    ACMPEQ = "acmpeq"
    ACMPNE = "acmpne"
    ACMPLT = "acmplt"
    ACMPLE = "acmple"
    ACMPGT = "acmpgt"
    ACMPGE = "acmpge"
    MOVIA = "movia"  # integer file -> address file
    MOVAI = "movai"  # address file -> integer file

    # Memory units (MU)
    LOAD = "load"
    STORE = "store"

    # Program control unit (PCU)
    BR = "br"
    BRT = "brt"
    BRF = "brf"
    CALL = "call"
    RET = "ret"
    LOOP_BEGIN = "loop_begin"
    LOOP_END = "loop_end"
    HALT = "halt"
    NOP = "nop"

    def __repr__(self):
        return "OpCode.%s" % self.name


_DU = UnitClass.DU
_FPU = UnitClass.FPU
_AU = UnitClass.AU
_MU = UnitClass.MU
_PCU = UnitClass.PCU
_C = OpKind.COMPUTE

_OP_TABLE = {
    OpCode.ADD: OpInfo(_DU, _C, 2, True, lambda a, b: a + b, commutative=True),
    OpCode.SUB: OpInfo(_DU, _C, 2, True, lambda a, b: a - b),
    OpCode.MUL: OpInfo(_DU, _C, 2, True, lambda a, b: a * b, commutative=True),
    OpCode.DIV: OpInfo(_DU, _C, 2, True, _int_div),
    OpCode.MOD: OpInfo(_DU, _C, 2, True, _int_mod),
    OpCode.NEG: OpInfo(_DU, _C, 1, True, lambda a: -a),
    OpCode.ABS: OpInfo(_DU, _C, 1, True, abs),
    OpCode.MIN: OpInfo(_DU, _C, 2, True, min, commutative=True),
    OpCode.MAX: OpInfo(_DU, _C, 2, True, max, commutative=True),
    OpCode.AND: OpInfo(_DU, _C, 2, True, lambda a, b: a & b, commutative=True),
    OpCode.OR: OpInfo(_DU, _C, 2, True, lambda a, b: a | b, commutative=True),
    OpCode.XOR: OpInfo(_DU, _C, 2, True, lambda a, b: a ^ b, commutative=True),
    OpCode.NOT: OpInfo(_DU, _C, 1, True, lambda a: ~a),
    OpCode.SHL: OpInfo(_DU, _C, 2, True, lambda a, b: a << b),
    OpCode.SHR: OpInfo(_DU, _C, 2, True, lambda a, b: a >> b),
    OpCode.CMPEQ: OpInfo(_DU, _C, 2, True, lambda a, b: int(a == b)),
    OpCode.CMPNE: OpInfo(_DU, _C, 2, True, lambda a, b: int(a != b)),
    OpCode.CMPLT: OpInfo(_DU, _C, 2, True, lambda a, b: int(a < b)),
    OpCode.CMPLE: OpInfo(_DU, _C, 2, True, lambda a, b: int(a <= b)),
    OpCode.CMPGT: OpInfo(_DU, _C, 2, True, lambda a, b: int(a > b)),
    OpCode.CMPGE: OpInfo(_DU, _C, 2, True, lambda a, b: int(a >= b)),
    OpCode.MOV: OpInfo(_DU, _C, 1, True, lambda a: a),
    OpCode.CONST: OpInfo(_DU, _C, 1, True, lambda a: a),
    OpCode.FADD: OpInfo(_FPU, _C, 2, True, lambda a, b: a + b, commutative=True),
    OpCode.FSUB: OpInfo(_FPU, _C, 2, True, lambda a, b: a - b),
    OpCode.FMUL: OpInfo(_FPU, _C, 2, True, lambda a, b: a * b, commutative=True),
    OpCode.FDIV: OpInfo(_FPU, _C, 2, True, lambda a, b: a / b),
    OpCode.FNEG: OpInfo(_FPU, _C, 1, True, lambda a: -a),
    OpCode.FABS: OpInfo(_FPU, _C, 1, True, abs),
    OpCode.FMIN: OpInfo(_FPU, _C, 2, True, min, commutative=True),
    OpCode.FMAX: OpInfo(_FPU, _C, 2, True, max, commutative=True),
    # FMAC reads its destination as an implicit accumulator: dest += a * b.
    OpCode.FMAC: OpInfo(_FPU, _C, 2, True, None),
    OpCode.FSQRT: OpInfo(_FPU, _C, 1, True, lambda a: a ** 0.5),
    OpCode.FCMPEQ: OpInfo(_FPU, _C, 2, True, lambda a, b: int(a == b)),
    OpCode.FCMPNE: OpInfo(_FPU, _C, 2, True, lambda a, b: int(a != b)),
    OpCode.FCMPLT: OpInfo(_FPU, _C, 2, True, lambda a, b: int(a < b)),
    OpCode.FCMPLE: OpInfo(_FPU, _C, 2, True, lambda a, b: int(a <= b)),
    OpCode.FCMPGT: OpInfo(_FPU, _C, 2, True, lambda a, b: int(a > b)),
    OpCode.FCMPGE: OpInfo(_FPU, _C, 2, True, lambda a, b: int(a >= b)),
    OpCode.FMOV: OpInfo(_FPU, _C, 1, True, lambda a: a),
    OpCode.FCONST: OpInfo(_FPU, _C, 1, True, lambda a: a),
    OpCode.ITOF: OpInfo(_FPU, _C, 1, True, float),
    OpCode.FTOI: OpInfo(_FPU, _C, 1, True, lambda a: int(a)),
    OpCode.AADD: OpInfo(_AU, _C, 2, True, lambda a, b: a + b, commutative=True),
    OpCode.ASUB: OpInfo(_AU, _C, 2, True, lambda a, b: a - b),
    OpCode.AMUL: OpInfo(_AU, _C, 2, True, lambda a, b: a * b, commutative=True),
    OpCode.AMOV: OpInfo(_AU, _C, 1, True, lambda a: a),
    OpCode.ACONST: OpInfo(_AU, _C, 1, True, lambda a: a),
    OpCode.ACMPEQ: OpInfo(_AU, _C, 2, True, lambda a, b: int(a == b)),
    OpCode.ACMPNE: OpInfo(_AU, _C, 2, True, lambda a, b: int(a != b)),
    OpCode.ACMPLT: OpInfo(_AU, _C, 2, True, lambda a, b: int(a < b)),
    OpCode.ACMPLE: OpInfo(_AU, _C, 2, True, lambda a, b: int(a <= b)),
    OpCode.ACMPGT: OpInfo(_AU, _C, 2, True, lambda a, b: int(a > b)),
    OpCode.ACMPGE: OpInfo(_AU, _C, 2, True, lambda a, b: int(a >= b)),
    OpCode.MOVIA: OpInfo(_AU, _C, 1, True, lambda a: a),
    OpCode.MOVAI: OpInfo(_AU, _C, 1, True, lambda a: a),
    # Memory operations take a base index plus an optional offset operand
    # (the DSP56001's indexed (Rn+Nn) addressing mode), so their source
    # counts are variable: LOAD (index[, offset]), STORE (value, index
    # [, offset]).
    OpCode.LOAD: OpInfo(_MU, OpKind.LOAD, -1, True),
    OpCode.STORE: OpInfo(_MU, OpKind.STORE, -1, False),
    OpCode.BR: OpInfo(_PCU, OpKind.CONTROL, 0, False),
    OpCode.BRT: OpInfo(_PCU, OpKind.CONTROL, 1, False),
    OpCode.BRF: OpInfo(_PCU, OpKind.CONTROL, 1, False),
    OpCode.CALL: OpInfo(_PCU, OpKind.CONTROL, -1, False),
    OpCode.RET: OpInfo(_PCU, OpKind.CONTROL, -1, False),
    OpCode.LOOP_BEGIN: OpInfo(_PCU, OpKind.CONTROL, 1, False),
    OpCode.LOOP_END: OpInfo(_PCU, OpKind.PSEUDO, 0, False),
    OpCode.HALT: OpInfo(_PCU, OpKind.CONTROL, 0, False),
    OpCode.NOP: OpInfo(_PCU, OpKind.PSEUDO, 0, False),
}


def opcode_info(opcode):
    """Return the static :class:`OpInfo` for *opcode*."""
    return _OP_TABLE[opcode]


#: Opcodes that terminate a basic block.
TERMINATORS = frozenset(
    {OpCode.BR, OpCode.BRT, OpCode.BRF, OpCode.RET, OpCode.HALT}
)


class Operation:
    """A single unpacked machine operation.

    Parameters
    ----------
    opcode:
        The :class:`OpCode`.
    dest:
        Destination virtual register, or None.
    sources:
        Tuple of source operands (registers or immediates).  For ``LOAD``
        the single source is the index operand; for ``STORE`` the sources
        are ``(value, index)``.
    symbol:
        The :class:`~repro.ir.symbols.Symbol` accessed (memory ops only).
    target:
        Branch-target :class:`~repro.ir.values.Label` (control ops only).
    callee:
        Called function name (``CALL`` only).
    bank:
        Bank tag placed on memory operations by the allocation pass;
        None until allocation runs.
    locked:
        True for the interrupt-atomic store pair used to update duplicated
        data (paper Section 3.2: store-lock / store-unlock).

    The opcode's static facts the compiler asks for on every pass —
    ``unit``, ``is_memory`` and ``is_terminator`` — are resolved once
    here and held in slots (``opcode`` never changes after
    construction).  The :class:`OpInfo` itself stays in ``_OP_TABLE``:
    its evaluators are lambdas, which would make compiled programs
    unpicklable.
    """

    __slots__ = (
        "opcode",
        "dest",
        "sources",
        "symbol",
        "target",
        "callee",
        "bank",
        "locked",
        "shadow",
        "unit",
        "is_memory",
        "is_terminator",
    )

    def __init__(
        self,
        opcode,
        dest=None,
        sources=(),
        symbol=None,
        target=None,
        callee=None,
        bank=None,
        locked=False,
        shadow=False,
    ):
        info = _OP_TABLE[opcode]
        if info.has_dest and dest is None:
            raise ValueError("%s requires a destination" % opcode.name)
        if not info.has_dest and dest is not None and opcode is not OpCode.CALL:
            # CALL's destination is optional: it receives the return value.
            raise ValueError("%s does not take a destination" % opcode.name)
        if info.sources >= 0 and len(sources) != info.sources:
            raise ValueError(
                "%s takes %d sources, got %d" % (opcode.name, info.sources, len(sources))
            )
        if target is not None and not isinstance(target, Label):
            raise TypeError("target must be a Label, got %r" % (target,))
        self.opcode = opcode
        self.dest = dest
        self.sources = tuple(sources)
        self.symbol = symbol
        self.target = target
        self.callee = callee
        self.bank = bank
        self.locked = locked
        #: True for the second (integrity) store of a duplicated-data update.
        self.shadow = shadow
        #: :class:`UnitClass` this operation executes on.
        self.unit = info.unit
        self.is_memory = opcode is OpCode.LOAD or opcode is OpCode.STORE
        self.is_terminator = opcode in TERMINATORS

    @property
    def info(self):
        return _OP_TABLE[self.opcode]

    @property
    def is_load(self):
        return self.opcode is OpCode.LOAD

    @property
    def is_store(self):
        return self.opcode is OpCode.STORE

    @property
    def is_control(self):
        return _OP_TABLE[self.opcode].kind is OpKind.CONTROL

    def reads(self):
        """Virtual registers read by this operation.

        ``FMAC`` additionally reads its destination (accumulator input),
        which is what creates the loop-carried dependence in MAC loops.
        """
        regs = [s for s in self.sources if isinstance(s, VirtualRegister)]
        if self.opcode is OpCode.FMAC:
            regs.append(self.dest)
        return regs

    def writes(self):
        """Virtual registers written by this operation."""
        return [self.dest] if self.dest is not None else []

    def index_operand(self):
        """The base index operand of a memory operation."""
        if self.is_load:
            return self.sources[0]
        if self.is_store:
            return self.sources[1]
        raise ValueError("%s has no index operand" % self.opcode.name)

    def offset_operand(self):
        """The optional offset operand ((Rn+Nn) addressing), or None."""
        if self.is_load:
            return self.sources[1] if len(self.sources) > 1 else None
        if self.is_store:
            return self.sources[2] if len(self.sources) > 2 else None
        raise ValueError("%s has no offset operand" % self.opcode.name)

    def __repr__(self):
        from repro.ir.printer import format_operation

        return "<Op %s>" % format_operation(self)
