"""Structured program construction: functions, loops, conditionals, calls.

:class:`ProgramBuilder` plays the role of the paper's C front-end: it turns
structured source (written as Python ``with`` blocks and operator-overloaded
expressions) into a :class:`repro.ir.Module` of unpacked machine operations,
with loop-nesting depth recorded on every basic block.

Counted loops lower to the model architecture's zero-overhead hardware
loops (the DSP56001 ``DO``/``REP`` mechanism of paper Figure 1): the PCU
executes the back-edge without a compare/branch instruction, so a loop body
can compact down to a single long instruction.  ``while`` loops and loops
forced with ``hw=False`` use an explicit compare-and-branch header.
"""

import contextlib

from repro.frontend.expressions import (
    ArrayRef,
    BinOp,
    CallExpr,
    Const,
    Expr,
    Lowerer,
    VarRef,
    wrap,
)
from repro.ir.block import BasicBlock
from repro.ir.function import Function
from repro.ir.module import Module
from repro.ir.operations import OpCode, Operation
from repro.ir.symbols import Storage, Symbol
from repro.ir.types import DataType, RegClass
from repro.ir.validate import validate_module
from repro.ir.values import Immediate, Label


def _guard_registers(expr, context):
    """Record the registers *expr* assumed invariant on *context*."""
    if isinstance(expr, VarRef):
        context.guarded.add(expr.register)
    elif isinstance(expr, BinOp):
        _guard_registers(expr.left, context)
        _guard_registers(expr.right, context)


def _expr_key(expr):
    """A structural, hashable key for induction-variable caching."""
    if isinstance(expr, Const):
        return ("c", expr.value)
    if isinstance(expr, VarRef):
        return ("r", id(expr.register))
    if isinstance(expr, BinOp):
        return (expr.operator, _expr_key(expr.left), _expr_key(expr.right))
    return ("?", id(expr))


def _data_type(py_type):
    if py_type in (float, DataType.FLOAT):
        return DataType.FLOAT
    if py_type in (int, DataType.INT):
        return DataType.INT
    raise TypeError("unsupported element type %r" % (py_type,))


class ArrayHandle:
    """A subscriptable handle over a global or local symbol."""

    __slots__ = ("symbol",)

    def __init__(self, symbol):
        self.symbol = symbol

    def __getitem__(self, index):
        return ArrayRef(self.symbol, index)

    def __len__(self):
        return self.symbol.size

    @property
    def size(self):
        return self.symbol.size

    @property
    def name(self):
        return self.symbol.name

    def __repr__(self):
        return "<ArrayHandle %s[%d]>" % (self.symbol.name, self.symbol.size)


class FunctionHandle:
    """A callable handle to a defined DSL function."""

    __slots__ = ("name", "param_types", "return_type")

    def __init__(self, name, param_types, return_type):
        self.name = name
        self.param_types = param_types
        self.return_type = return_type

    def __call__(self, *args):
        if len(args) != len(self.param_types):
            raise TypeError(
                "%s() takes %d arguments, got %d"
                % (self.name, len(self.param_types), len(args))
            )
        return CallExpr(self, args)


class ProgramBuilder:
    """Top-level builder for a whole program (a :class:`Module`)."""

    __slots__ = ("module", "_handles")

    def __init__(self, name):
        self.module = Module(name)
        self._handles = {}

    # ------------------------------------------------------------------
    # Global data
    # ------------------------------------------------------------------
    def global_array(self, name, size, element_type=float, init=None, opaque=False):
        """Declare a global array of *size* elements."""
        symbol = Symbol(
            name,
            data_type=_data_type(element_type),
            size=size,
            storage=Storage.GLOBAL,
            initializer=init,
            opaque=opaque,
        )
        self.module.add_global(symbol)
        return ArrayHandle(symbol)

    def global_scalar(self, name, element_type=float, init=None):
        """Declare a global scalar (a one-element array, indexed ``[0]``)."""
        initializer = None if init is None else [init]
        return self.global_array(name, 1, element_type, init=initializer)

    # ------------------------------------------------------------------
    # Functions
    # ------------------------------------------------------------------
    @contextlib.contextmanager
    def function(self, name, params=(), returns=None):
        """Define a function; yields a :class:`FunctionBuilder`.

        ``params`` is a sequence of ``(name, type)`` pairs; scalars only
        (arrays are shared through globals, as in the paper's benchmarks).
        """
        function = Function(name)
        for pname, ptype in params:
            function.add_symbol(
                Symbol(pname, data_type=_data_type(ptype), storage=Storage.PARAM)
            )
        return_type = _data_type(returns) if returns is not None else None
        builder = FunctionBuilder(self, function, return_type)
        yield builder
        builder._finalize()
        self.module.add_function(function)
        handle = FunctionHandle(name, [p[1] for p in params], return_type)
        self._handles[name] = handle
        builder.handle = handle

    def get(self, name):
        """Handle of a previously defined function."""
        return self._handles[name]

    def build(self, validate=True):
        """Finish the module, optionally running the IR validator."""
        if validate:
            validate_module(self.module)
        return self.module


class _LoopIds:
    """Per-function counter for hardware-loop identifiers."""

    __slots__ = ("next",)

    def __init__(self):
        self.next = 0

    def take(self):
        value = self.next
        self.next = value + 1
        return value


class _LoopContext:
    """An open counted loop, tracked for induction-variable reduction.

    When an array index inside the loop is affine in the loop index (e.g.
    ``x[n + k]`` inside the loop over ``k``), the builder strength-reduces
    it to an induction register: initialized once in the loop preheader
    and incremented at the latch — the post-increment address-register
    idiom every DSP compiler applies (the paper's compiler runs "all other
    optimizations"; without this, an address add would serialize the very
    load pairs the allocation pass exists to parallelize).
    """

    __slots__ = ("index_register", "preheader", "step", "inductions",
                 "latch_increments", "written", "guarded")

    def __init__(self, index_register, preheader, step):
        self.index_register = index_register
        self.preheader = preheader
        self.step = step
        #: structural expression key -> induction register
        self.inductions = {}
        #: (register, signed step) pairs to bump at the latch
        self.latch_increments = []
        #: registers written anywhere inside this loop so far
        self.written = set()
        #: registers an induction variable assumed invariant; writing one
        #: of these while the loop is still open is a build error
        self.guarded = set()


class FunctionBuilder:
    """Builds one function's blocks, registers, and locals."""

    __slots__ = ("program", "function", "return_type", "handle", "_lowerer",
                 "_depth", "_label_counter", "_const_cache", "_const_ops",
                 "_loop_ids", "_pending_else", "_finalized", "_open_loops",
                 "_block")

    def __init__(self, program, function, return_type):
        self.program = program
        self.function = function
        self.return_type = return_type
        self.handle = None
        self._lowerer = Lowerer(self)
        self._depth = 0
        self._label_counter = 0
        self._const_cache = {}
        self._const_ops = []
        self._loop_ids = _LoopIds()
        self._pending_else = None
        self._finalized = False
        self._open_loops = []
        self._block = self._make_block("entry", 0)
        function.blocks.append(self._block)

    # ------------------------------------------------------------------
    # Low-level plumbing
    # ------------------------------------------------------------------
    def emit(self, op):
        """Append *op* to the current basic block."""
        self._pending_else = None
        if op.dest is not None and self._open_loops:
            dest = op.dest
            for context in self._open_loops:
                context.written.add(dest)
                if dest in context.guarded:
                    raise RuntimeError(
                        "register %r feeds a strength-reduced array index "
                        "but is modified inside the loop; hoist the "
                        "assignment out of the loop" % dest
                    )
        self._block.append(op)
        return op

    def new_register(self, rclass, name=None):
        return self.function.new_register(rclass, name)

    def constant(self, value, rclass):
        """A register holding *value*, materialized once in the entry block."""
        if rclass is RegClass.FLOAT:
            value = float(value)
        else:
            value = int(value)
        key = (rclass, value)
        reg = self._const_cache.get(key)
        if reg is None:
            reg = self.new_register(rclass)
            opcode = {
                RegClass.INT: OpCode.CONST,
                RegClass.FLOAT: OpCode.FCONST,
                RegClass.ADDR: OpCode.ACONST,
            }[rclass]
            self._const_ops.append(
                Operation(opcode, dest=reg, sources=(Immediate(value),))
            )
            self._const_cache[key] = reg
        return reg

    def _make_block(self, hint, depth):
        label = "%s.%s%d" % (self.function.name, hint, self._label_counter)
        self._label_counter = self._label_counter + 1
        return BasicBlock(label, depth)

    def _start(self, block):
        """Append *block* to the layout and make it current."""
        self._pending_else = None
        self.function.blocks.append(block)
        self._block = block
        return block

    # ------------------------------------------------------------------
    # Variables
    # ------------------------------------------------------------------
    def float_var(self, name=None):
        """A register-resident float scalar."""
        return VarRef(self.new_register(RegClass.FLOAT, name))

    def int_var(self, name=None):
        """A register-resident integer scalar."""
        return VarRef(self.new_register(RegClass.INT, name))

    def index_var(self, name=None):
        """A register-resident address/index scalar."""
        return VarRef(self.new_register(RegClass.ADDR, name))

    def param(self, name):
        """The register holding parameter *name*."""
        for symbol, register in zip(
            self.function.params, self.function.param_registers
        ):
            if symbol.name == name:
                return VarRef(register)
        raise KeyError("no parameter %r in %s" % (name, self.function.name))

    def local_array(self, name, size, element_type=float):
        """Declare a stack-resident local array (partitionable data)."""
        symbol = Symbol(
            name, data_type=_data_type(element_type), size=size, storage=Storage.LOCAL
        )
        self.function.add_symbol(symbol)
        return ArrayHandle(symbol)

    def local_scalar(self, name, element_type=float):
        """Declare a stack-resident local scalar (indexed ``[0]``)."""
        return self.local_array(name, 1, element_type)

    # ------------------------------------------------------------------
    # Statements
    # ------------------------------------------------------------------
    def assign(self, target, value):
        """Assign *value* to a register variable or an array element."""
        value = wrap(value)
        if isinstance(target, VarRef):
            self._lowerer.into(value, target.register)
            self._pending_else = None
            return
        if isinstance(target, ArrayRef):
            want = (
                RegClass.FLOAT
                if target.symbol.data_type is DataType.FLOAT
                else RegClass.INT
            )
            operand = self._lowerer.as_value(value, want=want)
            if isinstance(operand, Immediate):
                operand = self.constant(operand.value, want)
            base, offset = self._lowerer.as_address(target.index)
            sources = (
                (operand, base) if offset is None else (operand, base, offset)
            )
            self.emit(
                Operation(OpCode.STORE, sources=sources, symbol=target.symbol)
            )
            return
        raise TypeError("cannot assign to %r" % (target,))

    def eval(self, expr, want=None):
        """Lower *expr* for its value; returns the operand (advanced use)."""
        return self._lowerer.as_value(expr, want=want)

    def call(self, handle, *args):
        """Call a function for effect, discarding any return value."""
        self.lower_call(CallExpr(handle, args), discard=True)

    def lower_call(self, expr, discard=False):
        handle = expr.handle
        sources = []
        for arg, ptype in zip(expr.args, handle.param_types):
            want = RegClass.FLOAT if _data_type(ptype) is DataType.FLOAT else RegClass.INT
            sources.append(self._lowerer.as_value(arg, want=want))
        dest = None
        if handle.return_type is not None and not discard:
            rclass = (
                RegClass.FLOAT
                if handle.return_type is DataType.FLOAT
                else RegClass.INT
            )
            dest = self.new_register(rclass)
        self.emit(
            Operation(
                OpCode.CALL, dest=dest, sources=tuple(sources), callee=handle.name
            )
        )
        # A call is a scheduling barrier; start a fresh block after it so
        # compaction never moves operations across the call.
        self._start(self._make_block("postcall", self._block.loop_depth))
        return dest

    def ret(self, value=None):
        """Return from the function (with an optional scalar value)."""
        sources = ()
        if value is not None:
            if self.return_type is None:
                raise ValueError("%s declared no return type" % self.function.name)
            want = (
                RegClass.FLOAT
                if self.return_type is DataType.FLOAT
                else RegClass.INT
            )
            operand = self._lowerer.as_value(value, want=want)
            if isinstance(operand, Immediate):
                operand = self.constant(operand.value, want)
            sources = (operand,)
        self.emit(Operation(OpCode.RET, sources=sources))

    # ------------------------------------------------------------------
    # Control flow
    # ------------------------------------------------------------------
    @contextlib.contextmanager
    def loop(self, count, hw=True, name=None):
        """A counted loop ``for i in range(count)``; yields the index.

        Lowered to a zero-overhead hardware loop unless ``hw=False``, in
        which case an explicit compare-and-branch loop is built (useful for
        ablation studies).
        """
        for_range = self.for_range(0, count, hw=hw, name=name)
        with for_range as index:
            yield index

    @contextlib.contextmanager
    def for_range(self, start, stop, step=1, hw=True, name=None):
        """A counted loop over ``range(start, stop, step)``.

        ``step`` must be a positive compile-time constant; ``start`` and
        ``stop`` may be arbitrary expressions.
        """
        if not isinstance(step, int) or step <= 0:
            raise ValueError("step must be a positive integer, got %r" % (step,))
        start = wrap(start)
        stop = wrap(stop)
        if hw:
            with self._hw_loop(start, stop, step, name) as index:
                yield index
        else:
            with self._sw_counted_loop(start, stop, step, name) as index:
                yield index

    @contextlib.contextmanager
    def _hw_loop(self, start, stop, step, name):
        count = self._trip_count(start, stop, step)
        count_operand = self._lowerer.as_index(count)
        index = self.index_var(name or "i")
        self._lowerer.into(start, index.register)
        loop_id = "%s.L%d" % (self.function.name, self._loop_ids.take())
        depth = self._block.loop_depth
        begin = Operation(
            OpCode.LOOP_BEGIN, sources=(count_operand,), target=Label(loop_id)
        )
        self.emit(begin)
        context = _LoopContext(index.register, self._block, step)
        self._open_loops.append(context)
        body = self._make_block("body", depth + 1)
        body.hw_loop = loop_id
        self._start(body)
        yield index
        self._open_loops.pop()
        self._emit_latch_increments(context)
        self.emit(
            Operation(
                OpCode.AADD,
                dest=index.register,
                sources=(index.register, Immediate(step)),
            )
        )
        end = Operation(OpCode.LOOP_END, target=Label(loop_id))
        self.emit(end)
        self._start(self._make_block("after", depth))

    def _emit_latch_increments(self, context):
        for register, signed_step in context.latch_increments:
            self.emit(
                Operation(
                    OpCode.AADD,
                    dest=register,
                    sources=(register, Immediate(signed_step)),
                )
            )

    # ------------------------------------------------------------------
    # Induction-variable strength reduction
    # ------------------------------------------------------------------
    def reduce_index(self, expr):
        """Strength-reduce an affine array index, or return None.

        Handles ``i + inv``, ``inv + i``, ``i - inv`` and ``inv - i`` where
        ``i`` is the index of an open counted loop and ``inv`` is built
        only from constants and the indices of loops *enclosing* that one
        (which are provably loop-invariant inside it).
        """
        if not isinstance(expr, BinOp) or expr.operator not in ("+", "-"):
            return None
        for position in range(len(self._open_loops) - 1, -1, -1):
            context = self._open_loops[position]
            index_reg = context.index_register
            left_is_index = (
                isinstance(expr.left, VarRef) and expr.left.register is index_reg
            )
            right_is_index = (
                isinstance(expr.right, VarRef) and expr.right.register is index_reg
            )
            if left_is_index == right_is_index:
                continue
            invariant = expr.right if left_is_index else expr.left
            if not self._invariant_in(invariant, position):
                continue
            key = (expr.operator, left_is_index, _expr_key(invariant))
            register = context.inductions.get(key)
            _guard_registers(invariant, context)
            if register is None:
                register = self.new_register(RegClass.ADDR, name="ind")
                if left_is_index:  # i + inv  or  i - inv
                    init = (
                        VarRef(index_reg) + invariant
                        if expr.operator == "+"
                        else VarRef(index_reg) - invariant
                    )
                    signed_step = context.step
                else:  # inv + i  or  inv - i
                    init = (
                        invariant + VarRef(index_reg)
                        if expr.operator == "+"
                        else invariant - VarRef(index_reg)
                    )
                    signed_step = (
                        context.step if expr.operator == "+" else -context.step
                    )
                saved = self._block
                self._block = context.preheader
                self._lowerer.into(init, register)
                self._block = saved
                context.inductions[key] = register
                context.latch_increments.append((register, signed_step))
            return register
        return None

    def _invariant_in(self, expr, loop_position):
        """Whether *expr* is provably invariant inside the loop at
        ``self._open_loops[loop_position]``: constants, indices of
        strictly enclosing loops, and address registers not (yet) written
        inside the loop — the latter protected by a write guard that turns
        a later in-loop write into a build error."""
        context = self._open_loops[loop_position]
        if isinstance(expr, Const):
            return True
        if isinstance(expr, VarRef):
            register = expr.register
            for outer in self._open_loops[:loop_position]:
                if register is outer.index_register:
                    return True
            return (
                register.rclass is RegClass.ADDR
                and register is not context.index_register
                and register not in context.written
            )
        if isinstance(expr, BinOp) and expr.operator in ("+", "-", "*"):
            return self._invariant_in(expr.left, loop_position) and (
                self._invariant_in(expr.right, loop_position)
            )
        return False

    def _trip_count(self, start, stop, step):
        """Expression for the number of iterations of a counted loop."""
        if isinstance(start, Const) and isinstance(stop, Const):
            trips = len(range(int(start.value), int(stop.value), step))
            return Const(trips, DataType.INT)
        span = stop - start
        if step == 1:
            return span
        return (span + (step - 1)) / step

    @contextlib.contextmanager
    def _sw_counted_loop(self, start, stop, step, name):
        index = self.index_var(name or "i")
        self._lowerer.into(start, index.register)
        stop_operand = self._lowerer.as_index(stop)
        if isinstance(stop_operand, Immediate):
            stop_reg = self.constant(stop_operand.value, RegClass.ADDR)
        else:
            stop_reg = stop_operand
        depth = self._block.loop_depth
        context = _LoopContext(index.register, self._block, step)
        header = self._make_block("whead", depth + 1)
        after_label = "%s.wafter%d" % (self.function.name, self._loop_ids.take())
        self._start(header)
        cond = self.new_register(RegClass.INT)
        self.emit(
            Operation(OpCode.ACMPLT, dest=cond, sources=(index.register, stop_reg))
        )
        self.emit(Operation(OpCode.BRF, sources=(cond,), target=Label(after_label)))
        body = self._make_block("wbody", depth + 1)
        self._start(body)
        self._open_loops.append(context)
        yield index
        self._open_loops.pop()
        self._emit_latch_increments(context)
        self.emit(
            Operation(
                OpCode.AADD,
                dest=index.register,
                sources=(index.register, Immediate(step)),
            )
        )
        self.emit(Operation(OpCode.BR, target=Label(header.label)))
        after = BasicBlock(after_label, depth)
        self._start(after)

    @contextlib.contextmanager
    def while_(self, condition):
        """A while loop; *condition* is a zero-argument callable returning
        the loop condition expression, re-evaluated in the loop header."""
        depth = self._block.loop_depth
        header = self._make_block("whead", depth + 1)
        after_label = "%s.wafter%d" % (self.function.name, self._loop_ids.take())
        self._start(header)
        cond_operand = self._lowerer.as_value(condition(), want=RegClass.INT)
        if isinstance(cond_operand, Immediate):
            cond_operand = self.constant(cond_operand.value, RegClass.INT)
        self.emit(
            Operation(OpCode.BRF, sources=(cond_operand,), target=Label(after_label))
        )
        body = self._make_block("wbody", depth + 1)
        self._start(body)
        yield
        self.emit(Operation(OpCode.BR, target=Label(header.label)))
        self._start(BasicBlock(after_label, depth))

    @contextlib.contextmanager
    def if_(self, condition):
        """A conditional; optionally followed immediately by ``else_()``."""
        cond_operand = self._lowerer.as_value(wrap(condition), want=RegClass.INT)
        if isinstance(cond_operand, Immediate):
            cond_operand = self.constant(cond_operand.value, RegClass.INT)
        depth = self._block.loop_depth
        target = self._make_block("ifjoin", depth)
        self.emit(
            Operation(
                OpCode.BRF, sources=(cond_operand,), target=Label(target.label)
            )
        )
        self._start(self._make_block("then", depth))
        yield
        then_tail = self._block
        self._start(target)
        # Allow an immediately following else_() to claim `target` as the
        # else block; any intervening statement clears the pending record.
        self._pending_else = (then_tail, target)

    @contextlib.contextmanager
    def else_(self):
        """The else branch of the immediately preceding ``if_``."""
        if self._pending_else is None:
            raise RuntimeError("else_() must immediately follow an if_() block")
        then_tail, else_block = self._pending_else
        self._pending_else = None
        if else_block is not self._block or else_block.ops:
            raise RuntimeError("else_() must immediately follow an if_() block")
        depth = else_block.loop_depth
        join = self._make_block("join", depth)
        if then_tail.terminator is None:
            then_tail.append(Operation(OpCode.BR, target=Label(join.label)))
        yield
        self._start(join)

    # ------------------------------------------------------------------
    def _finalize(self):
        if self._finalized:
            return
        self._finalized = True
        entry = self.function.blocks[0]
        entry.ops[:0] = self._const_ops
        last = self.function.blocks[-1]
        if last.terminator is None:
            if self.function.name == "main":
                last.append(Operation(OpCode.HALT))
            else:
                last.append(Operation(OpCode.RET))
