"""Expression trees and their lowering to unpacked machine operations.

Expressions are built with ordinary Python operators on :class:`Expr`
subclasses and lowered on demand by the :class:`FunctionBuilder`.  Lowering
chooses the functional-unit domain from the expression type:

* ``ADDR`` expressions (loop indices, address arithmetic) lower to AU ops;
* ``INT`` expressions lower to DU ops;
* ``FLOAT`` expressions lower to FPU ops, with the multiply-accumulate
  pattern ``acc = acc + a * b`` folded into a single ``FMAC``.

Mixed int/float arithmetic inserts explicit ``ITOF`` conversions, and an
integer value used as an array index inserts a ``MOVIA`` transfer into the
address register file — mirroring the explicit register-file moves of the
model architecture.
"""

from repro.ir.operations import OpCode, Operation
from repro.ir.types import DataType, RegClass
from repro.ir.values import Immediate


class Expr:
    """Base class for DSL expressions.

    ``dtype`` is the scalar result type.  ``is_index`` marks expressions
    whose natural home is the address register file.

    Every subclass is slotted (no per-instance ``__dict__``), and nodes
    are not mutated after construction: rewriting code reconstructs.
    """

    __slots__ = ()

    dtype = DataType.INT
    is_index = False

    # -- arithmetic ----------------------------------------------------
    def __add__(self, other):
        return BinOp("+", self, wrap(other))

    def __radd__(self, other):
        return BinOp("+", wrap(other), self)

    def __sub__(self, other):
        return BinOp("-", self, wrap(other))

    def __rsub__(self, other):
        return BinOp("-", wrap(other), self)

    def __mul__(self, other):
        return BinOp("*", self, wrap(other))

    def __rmul__(self, other):
        return BinOp("*", wrap(other), self)

    def __truediv__(self, other):
        return BinOp("/", self, wrap(other))

    def __rtruediv__(self, other):
        return BinOp("/", wrap(other), self)

    def __mod__(self, other):
        return BinOp("%", self, wrap(other))

    def __neg__(self):
        return UnOp("neg", self)

    def __abs__(self):
        return UnOp("abs", self)

    def __and__(self, other):
        return BinOp("&", self, wrap(other))

    def __or__(self, other):
        return BinOp("|", self, wrap(other))

    def __xor__(self, other):
        return BinOp("^", self, wrap(other))

    def __lshift__(self, other):
        return BinOp("<<", self, wrap(other))

    def __rshift__(self, other):
        return BinOp(">>", self, wrap(other))

    def __invert__(self):
        return UnOp("not", self)

    # -- comparisons ---------------------------------------------------
    def __eq__(self, other):  # noqa: D105 - DSL operator
        return Compare("==", self, wrap(other))

    def __ne__(self, other):
        return Compare("!=", self, wrap(other))

    def __lt__(self, other):
        return Compare("<", self, wrap(other))

    def __le__(self, other):
        return Compare("<=", self, wrap(other))

    def __gt__(self, other):
        return Compare(">", self, wrap(other))

    def __ge__(self, other):
        return Compare(">=", self, wrap(other))

    __hash__ = None


def wrap(value):
    """Coerce a Python number into a :class:`Const` expression."""
    if isinstance(value, Expr):
        return value
    if isinstance(value, bool):
        return Const(int(value), DataType.INT)
    if isinstance(value, int):
        return Const(value, DataType.INT)
    if isinstance(value, float):
        return Const(value, DataType.FLOAT)
    raise TypeError("cannot use %r in a DSL expression" % (value,))


class Const(Expr):
    """A literal constant."""

    __slots__ = ("value", "dtype")

    def __init__(self, value, dtype):
        self.value = value
        self.dtype = dtype

    def __repr__(self):
        return "Const(%r)" % (self.value,)


class VarRef(Expr):
    """A register-resident scalar variable."""

    __slots__ = ("register", "dtype", "is_index")

    def __init__(self, register):
        self.register = register
        self.dtype = register.data_type
        self.is_index = register.rclass is RegClass.ADDR

    def __repr__(self):
        return "VarRef(%r)" % (self.register,)


class ArrayRef(Expr):
    """A subscripted symbol reference ``sym[index]``; load or store target."""

    __slots__ = ("symbol", "index", "dtype")

    def __init__(self, symbol, index):
        self.symbol = symbol
        self.index = wrap(index)
        self.dtype = symbol.data_type

    def __repr__(self):
        return "ArrayRef(%s, %r)" % (self.symbol.name, self.index)


class BinOp(Expr):
    __slots__ = ("operator", "left", "right", "dtype", "is_index")

    _FLOAT_PROMOTING = {"+", "-", "*", "/"}

    def __init__(self, operator, left, right):
        self.operator = operator
        self.left = left
        self.right = right
        if operator in ("fmin", "fmax"):
            self.dtype = DataType.FLOAT
        elif operator in self._FLOAT_PROMOTING and (
            left.dtype is DataType.FLOAT or right.dtype is DataType.FLOAT
        ):
            self.dtype = DataType.FLOAT
        elif operator == "/":
            self.dtype = left.dtype
        else:
            self.dtype = DataType.INT
        self.is_index = (
            self.dtype is DataType.INT and left.is_index or right.is_index
        ) and operator in ("+", "-", "*")

    def __repr__(self):
        return "(%r %s %r)" % (self.left, self.operator, self.right)


class UnOp(Expr):
    __slots__ = ("operator", "operand", "dtype")

    def __init__(self, operator, operand):
        self.operator = operator
        self.operand = operand
        self.dtype = operand.dtype
        if operator in ("not",):
            self.dtype = DataType.INT

    def __repr__(self):
        return "%s(%r)" % (self.operator, self.operand)


class Compare(Expr):
    """A comparison; always yields an INT 0/1 value."""

    __slots__ = ("operator", "left", "right", "dtype")

    def __init__(self, operator, left, right):
        self.operator = operator
        self.left = left
        self.right = right
        self.dtype = DataType.INT

    def __repr__(self):
        return "(%r %s %r)" % (self.left, self.operator, self.right)


class MathCall(Expr):
    """A unary math intrinsic lowered to a single FPU op (e.g. sqrt)."""

    __slots__ = ("name", "operand", "dtype")

    _OPCODES = {"sqrt": OpCode.FSQRT, "fabs": OpCode.FABS}

    def __init__(self, name, operand):
        if name not in self._OPCODES:
            raise ValueError("unknown intrinsic %r" % name)
        self.name = name
        self.operand = wrap(operand)
        self.dtype = DataType.FLOAT

    @property
    def opcode(self):
        return self._OPCODES[self.name]


def sqrt(value):
    """Square-root intrinsic (single FPU operation on the model machine)."""
    return MathCall("sqrt", value)


def fmin(a, b):
    return BinOp("fmin", wrap(a), wrap(b))


def fmax(a, b):
    return BinOp("fmax", wrap(a), wrap(b))


def imin(a, b):
    """Integer minimum (a single MIN operation on a data unit)."""
    return BinOp("min", wrap(a), wrap(b))


def imax(a, b):
    """Integer maximum (a single MAX operation on a data unit)."""
    return BinOp("max", wrap(a), wrap(b))


class CallExpr(Expr):
    """A call to another DSL function, usable as a value.

    A call is an effect site: every textual occurrence lowers to its own
    CALL operation regardless of argument shape.
    """

    __slots__ = ("handle", "args", "dtype")

    def __init__(self, handle, args):
        self.handle = handle
        self.args = [wrap(a) for a in args]
        self.dtype = handle.return_type if handle.return_type else DataType.INT


_INT_BINOPS = {
    "+": OpCode.ADD,
    "-": OpCode.SUB,
    "*": OpCode.MUL,
    "/": OpCode.DIV,
    "%": OpCode.MOD,
    "&": OpCode.AND,
    "|": OpCode.OR,
    "^": OpCode.XOR,
    "<<": OpCode.SHL,
    ">>": OpCode.SHR,
    "min": OpCode.MIN,
    "max": OpCode.MAX,
}

_FLOAT_BINOPS = {
    "+": OpCode.FADD,
    "-": OpCode.FSUB,
    "*": OpCode.FMUL,
    "/": OpCode.FDIV,
    "fmin": OpCode.FMIN,
    "fmax": OpCode.FMAX,
}

_ADDR_BINOPS = {"+": OpCode.AADD, "-": OpCode.ASUB, "*": OpCode.AMUL}

_INT_COMPARES = {
    "==": OpCode.CMPEQ,
    "!=": OpCode.CMPNE,
    "<": OpCode.CMPLT,
    "<=": OpCode.CMPLE,
    ">": OpCode.CMPGT,
    ">=": OpCode.CMPGE,
}

_FLOAT_COMPARES = {
    "==": OpCode.FCMPEQ,
    "!=": OpCode.FCMPNE,
    "<": OpCode.FCMPLT,
    "<=": OpCode.FCMPLE,
    ">": OpCode.FCMPGT,
    ">=": OpCode.FCMPGE,
}

_ADDR_COMPARES = {
    "==": OpCode.ACMPEQ,
    "!=": OpCode.ACMPNE,
    "<": OpCode.ACMPLT,
    "<=": OpCode.ACMPLE,
    ">": OpCode.ACMPGT,
    ">=": OpCode.ACMPGE,
}


class Lowerer:
    """Lowers :class:`Expr` trees into operations appended via *emit*.

    The function builder supplies ``emit`` (append an operation to the
    current block), ``new_register`` and ``constant`` (hoisted constant
    materialization).
    """

    __slots__ = ("fb",)

    def __init__(self, function_builder):
        self.fb = function_builder

    # ------------------------------------------------------------------
    def as_value(self, expr, want=None):
        """Lower *expr*, returning a register (or immediate) operand.

        ``want`` optionally names the register class the consumer needs;
        a register-file transfer is inserted when the value lives in a
        different file.
        """
        expr = wrap(expr)
        operand = self._lower(expr)
        if want is not None:
            operand = self._transfer(operand, want)
        return operand

    def as_index(self, expr):
        """Lower *expr* for use as a memory index (ADDR file or immediate).

        Affine indices in enclosing counted-loop indices are strength-
        reduced to induction registers (see ``FunctionBuilder.reduce_index``)
        so that inner-loop memory operations need no address arithmetic on
        their critical path.
        """
        expr = wrap(expr)
        if isinstance(expr, Const):
            return self._index_immediate(expr)
        reduced = self.fb.reduce_index(expr)
        if reduced is not None:
            return reduced
        return self.as_value(expr, want=RegClass.ADDR)

    @staticmethod
    def _index_immediate(const):
        if const.dtype is DataType.FLOAT:
            raise TypeError(
                "float immediate %r cannot be used as an array index"
                % (const.value,)
            )
        return Immediate(int(const.value), DataType.INT)

    def as_address(self, expr):
        """Lower *expr* as a memory address: ``(base, offset_or_None)``.

        Sums that cannot be strength-reduced use the model architecture's
        indexed addressing mode (the DSP56001's ``(Rn+Nn)``): the memory
        unit adds a base register and an offset operand itself, so e.g.
        ``table[p]`` and ``table[p + 1]`` become same-depth accesses with
        no address arithmetic in between.
        """
        expr = wrap(expr)
        if isinstance(expr, Const):
            return self._index_immediate(expr), None
        reduced = self.fb.reduce_index(expr)
        if reduced is not None:
            return reduced, None
        if isinstance(expr, BinOp) and expr.operator in ("+", "-"):
            left, right = expr.left, expr.right
            if expr.operator == "-" and isinstance(right, Const):
                right = Const(-int(right.value), DataType.INT)
                expr = BinOp("+", left, right)
            if expr.operator == "+":
                base, offset = self._split_address(expr.left, expr.right)
                if base is not None:
                    return base, offset
        return self.as_value(expr, want=RegClass.ADDR), None

    def _split_address(self, left, right):
        """Try to lower ``left + right`` as (base register, offset)."""
        if isinstance(left, Const):
            left, right = right, left
        if left.dtype is not DataType.INT or right.dtype is not DataType.INT:
            return None, None
        base = self.as_value(left, want=RegClass.ADDR)
        if isinstance(base, Immediate):
            return None, None
        if isinstance(right, Const):
            return base, Immediate(int(right.value), DataType.INT)
        offset = self.as_value(right, want=RegClass.ADDR)
        if isinstance(offset, Immediate):
            offset = Immediate(int(offset.value), DataType.INT)
        return base, offset

    def into(self, expr, dest):
        """Lower *expr* into the existing register *dest*.

        Recognizes the multiply-accumulate idiom ``dest + a * b`` (in either
        operand order) on floats and emits a single ``FMAC``.  When the
        expression's root operation computes in *dest*'s register class,
        the root writes *dest* directly (copy propagation) instead of
        going through a temporary and a move.
        """
        expr = wrap(expr)
        mac = self._match_mac(expr, dest)
        if mac is not None:
            a, b = mac
            src_a = self.as_value(a, want=RegClass.FLOAT)
            src_b = self.as_value(b, want=RegClass.FLOAT)
            self.fb.emit(Operation(OpCode.FMAC, dest=dest, sources=(src_a, src_b)))
            return dest
        if isinstance(expr, ArrayRef):
            load_class = (
                RegClass.FLOAT
                if expr.symbol.data_type is DataType.FLOAT
                else RegClass.INT
            )
            # Memory words load into any register file over the data buses
            # (paper Figure 2), so an integer load may target an address
            # register directly — the DSP56001's MOVE X:(R0),R1 idiom.
            if load_class is dest.rclass or (
                load_class is RegClass.INT and dest.rclass is RegClass.ADDR
            ):
                return self._lower_load(expr, dest=dest)
        elif isinstance(expr, BinOp) and self._domain(expr) is dest.rclass:
            return self._lower_binop(expr, dest=dest)
        elif isinstance(expr, UnOp) and dest.rclass in (
            RegClass.FLOAT if expr.dtype is DataType.FLOAT else RegClass.INT,
        ):
            return self._lower_unop(expr, dest=dest)
        elif isinstance(expr, Compare) and dest.rclass is RegClass.INT:
            return self._lower_compare(expr, dest=dest)
        elif isinstance(expr, MathCall) and dest.rclass is RegClass.FLOAT:
            src = self.as_value(expr.operand, want=RegClass.FLOAT)
            self.fb.emit(Operation(expr.opcode, dest=dest, sources=(src,)))
            return dest
        operand = self.as_value(expr, want=dest.rclass)
        if operand is not dest:
            self._emit_move(dest, operand)
        return dest

    # ------------------------------------------------------------------
    def _match_mac(self, expr, dest):
        if dest.rclass is not RegClass.FLOAT:
            return None
        if not isinstance(expr, BinOp) or expr.operator != "+":
            return None
        for acc, other in ((expr.left, expr.right), (expr.right, expr.left)):
            if (
                isinstance(acc, VarRef)
                and acc.register is dest
                and isinstance(other, BinOp)
                and other.operator == "*"
                and other.dtype is DataType.FLOAT
            ):
                return (other.left, other.right)
        return None

    def _emit_move(self, dest, operand):
        if isinstance(operand, Immediate):
            opcode = {
                RegClass.INT: OpCode.CONST,
                RegClass.FLOAT: OpCode.FCONST,
                RegClass.ADDR: OpCode.ACONST,
            }[dest.rclass]
            value = (
                float(operand.value)
                if dest.rclass is RegClass.FLOAT
                else int(operand.value)
            )
            self.fb.emit(Operation(opcode, dest=dest, sources=(Immediate(value),)))
            return
        if operand.rclass is dest.rclass:
            opcode = {
                RegClass.INT: OpCode.MOV,
                RegClass.FLOAT: OpCode.FMOV,
                RegClass.ADDR: OpCode.AMOV,
            }[dest.rclass]
            self.fb.emit(Operation(opcode, dest=dest, sources=(operand,)))
            return
        transferred = self._transfer(operand, dest.rclass)
        if transferred is not dest:
            self._emit_move(dest, transferred)

    def _transfer(self, operand, want):
        """Move *operand* into register class *want* if it is elsewhere."""
        if isinstance(operand, Immediate):
            if want is RegClass.FLOAT and operand.data_type is DataType.INT:
                return Immediate(float(operand.value), DataType.FLOAT)
            if want is not RegClass.FLOAT and operand.data_type is DataType.FLOAT:
                raise TypeError("float immediate %r used as integer" % operand)
            return operand
        if operand.rclass is want:
            return operand
        dest = self.fb.new_register(want)
        opcode = {
            (RegClass.INT, RegClass.ADDR): OpCode.MOVIA,
            (RegClass.ADDR, RegClass.INT): OpCode.MOVAI,
            (RegClass.INT, RegClass.FLOAT): OpCode.ITOF,
            (RegClass.FLOAT, RegClass.INT): OpCode.FTOI,
        }.get((operand.rclass, want))
        if opcode is None:
            # ADDR <-> FLOAT goes through the integer file.
            mid = self._transfer(operand, RegClass.INT)
            return self._transfer(mid, want)
        self.fb.emit(Operation(opcode, dest=dest, sources=(operand,)))
        return dest

    # ------------------------------------------------------------------
    def _lower(self, expr):
        if isinstance(expr, Const):
            if expr.dtype is DataType.FLOAT:
                return Immediate(float(expr.value), DataType.FLOAT)
            return Immediate(int(expr.value), DataType.INT)
        if isinstance(expr, VarRef):
            return expr.register
        if isinstance(expr, ArrayRef):
            return self._lower_load(expr)
        if isinstance(expr, BinOp):
            return self._lower_binop(expr)
        if isinstance(expr, UnOp):
            return self._lower_unop(expr)
        if isinstance(expr, Compare):
            return self._lower_compare(expr)
        if isinstance(expr, MathCall):
            src = self.as_value(expr.operand, want=RegClass.FLOAT)
            dest = self.fb.new_register(RegClass.FLOAT)
            self.fb.emit(Operation(expr.opcode, dest=dest, sources=(src,)))
            return dest
        if isinstance(expr, CallExpr):
            return self.fb.lower_call(expr)
        raise TypeError("cannot lower %r" % (expr,))

    def _lower_load(self, ref, dest=None):
        base, offset = self.as_address(ref.index)
        if dest is None:
            rclass = (
                RegClass.FLOAT
                if ref.symbol.data_type is DataType.FLOAT
                else RegClass.INT
            )
            dest = self.fb.new_register(rclass)
        sources = (base,) if offset is None else (base, offset)
        self.fb.emit(
            Operation(OpCode.LOAD, dest=dest, sources=sources, symbol=ref.symbol)
        )
        return dest

    def _domain(self, expr):
        """Pick the register-class domain an expression computes in."""
        if expr.dtype is DataType.FLOAT:
            return RegClass.FLOAT
        if expr.is_index:
            return RegClass.ADDR
        return RegClass.INT

    def _lower_binop(self, expr, dest=None):
        domain = self._domain(expr)
        if domain is RegClass.FLOAT:
            table, const_ok = _FLOAT_BINOPS, True
        elif domain is RegClass.ADDR:
            table, const_ok = _ADDR_BINOPS, True
        else:
            table, const_ok = _INT_BINOPS, True
        if expr.operator not in table:
            # e.g. "%" on an index expression: fall back to the integer unit.
            domain = RegClass.INT
            table = _INT_BINOPS
        left = self.as_value(expr.left, want=domain)
        right = self.as_value(expr.right, want=domain)
        if isinstance(left, Immediate) and const_ok:
            # Keep at most one immediate operand, in the right slot when
            # the operator commutes; otherwise materialize it.
            info_commutes = expr.operator in ("+", "*", "&", "|", "^")
            if info_commutes and not isinstance(right, Immediate):
                left, right = right, left
            else:
                left = self._materialize(left, domain)
        if isinstance(left, Immediate) and isinstance(right, Immediate):
            left = self._materialize(left, domain)
        if dest is None or dest.rclass is not domain:
            dest = self.fb.new_register(domain)
        self.fb.emit(Operation(table[expr.operator], dest=dest, sources=(left, right)))
        return dest

    def _materialize(self, immediate, domain):
        return self.fb.constant(immediate.value, domain)

    def _lower_unop(self, expr, dest=None):
        domain = self._domain(expr)
        if domain is RegClass.FLOAT:
            table = {"neg": OpCode.FNEG, "abs": OpCode.FABS}
        else:
            domain = RegClass.INT
            table = {"neg": OpCode.NEG, "abs": OpCode.ABS, "not": OpCode.NOT}
        src = self.as_value(expr.operand, want=domain)
        if isinstance(src, Immediate):
            src = self._materialize(src, domain)
        if dest is None or dest.rclass is not domain:
            dest = self.fb.new_register(domain)
        self.fb.emit(Operation(table[expr.operator], dest=dest, sources=(src,)))
        return dest

    def _lower_compare(self, expr, dest=None):
        if (
            expr.left.dtype is DataType.FLOAT
            or expr.right.dtype is DataType.FLOAT
        ):
            domain, table = RegClass.FLOAT, _FLOAT_COMPARES
        elif expr.left.is_index or expr.right.is_index:
            domain, table = RegClass.ADDR, _ADDR_COMPARES
        else:
            domain, table = RegClass.INT, _INT_COMPARES
        left = self.as_value(expr.left, want=domain)
        right = self.as_value(expr.right, want=domain)
        if isinstance(left, Immediate):
            left = self._materialize(left, domain)
        if dest is None or dest.rclass is not RegClass.INT:
            dest = self.fb.new_register(RegClass.INT)
        self.fb.emit(Operation(table[expr.operator], dest=dest, sources=(left, right)))
        return dest
