"""Shared codegen base of the compiled simulator backends.

The reference :class:`~repro.sim.simulator.Simulator` re-dispatches on
micro-operation kind strings and calls per-operand reader closures every
cycle.  The compiled backends (``jit`` in :mod:`repro.sim.loopjit`,
``batch`` in :mod:`repro.sim.batchsim`) instead turn each
:class:`LongInstruction` into straight-line Python source: operand
reads, effective-address computation, bounds checks, evaluator
arithmetic, and commit logic are generated per instruction.

All generated code goes through one compile-and-bind site,
:meth:`FastSimulator._bind`: source is generated once per program (its
code, constants and layouts are cached on the program object),
``compile()``d once per process (a bounded memo keyed by the
source text shares one code object across every program that generates
the same source, :func:`_compiled`), and ``exec``'d per simulator into
one environment dict that holds the state its bodies name
(:meth:`FastSimulator._env`) and its bound constants.  The unit of
code is a straight-line run of instructions ``[first, last]``
(:meth:`FastSimulator._straight`), one plain ``def step():`` generated
on its first dispatch:

* jit's superblocks (maximal straight-line runs) are laid out up front
  (:meth:`FastSimulator._layout_blocks`) and each is such a run from
  its leader;
* the one *stepped* dispatch loop both backends share
  (:meth:`FastSimulator._run_steps`, one call per cycle) runs the
  one-instruction run ``[pc, pc]`` at each pc, the same cache entry as
  a one-instruction superblock there.

Code a run never dispatches — most of it inside loop regions that jit's
loop functions run natively — is never compiled, and a codegen error
(such as an unallocated register) surfaces when its code is first
dispatched, as the reference interpreter's lazy decode reports it.

Semantics are bit-identical to the reference interpreter by construction
and verified by ``tests/sim/test_fastsim_equivalence.py``:

* all operand and memory reads happen before any register/memory write of
  the cycle (read-before-write);
* control operations execute after all reads but before the writes, so
  CALL/RET stack adjustments never disturb same-cycle addressing;
* the hardware-loop back-edge, the store-lock window (instruction-wide
  net transition), interrupt delivery, ``pc_counts``, cycle and operation
  accounting all match the reference backend exactly.

An operation whose inputs nothing else in its instruction can change,
and whose inlined form cannot raise, is evaluated straight into its
destination in the write phase instead of through a temporary (see
:meth:`FastSimulator._instruction_body`); every other operation reads
into a temporary first.

Profiling (:mod:`repro.obs.profile`) is a post-run analysis over the
settled ``pc_counts``, so the jit backend's fused superblock path stays
fused whether or not a run is later profiled: during the run only
superblock leaders are counted, and ``_settle_counts`` propagates the
interior counts before ``run()`` returns.
"""

import math

from repro.ir.operations import OpCode
from repro.ir.types import RegClass
from repro.ir.values import Immediate
from repro.sim.simulator import (
    CycleLimitError,
    SimulationError,
    SimulationResult,
    Simulator,
    _BANK_X,
    _BANK_Y,
)

#: register-file local names used inside generated code
_RFILE = {RegClass.ADDR: "RA", RegClass.INT: "RI", RegClass.FLOAT: "RF"}

_MEM = {_BANK_X: "MX", _BANK_Y: "MY"}

#: opcodes whose evaluators are inlined as expressions (the hot set);
#: anything absent falls back to calling the bound ``OpInfo.evaluate``.
_BINARY_EXPR = {
    OpCode.ADD: "({a} + {b})",
    OpCode.SUB: "({a} - {b})",
    OpCode.MUL: "({a} * {b})",
    OpCode.AND: "({a} & {b})",
    OpCode.OR: "({a} | {b})",
    OpCode.XOR: "({a} ^ {b})",
    OpCode.SHL: "({a} << {b})",
    OpCode.SHR: "({a} >> {b})",
    OpCode.MIN: "min({a}, {b})",
    OpCode.MAX: "max({a}, {b})",
    OpCode.CMPEQ: "(1 if {a} == {b} else 0)",
    OpCode.CMPNE: "(1 if {a} != {b} else 0)",
    OpCode.CMPLT: "(1 if {a} < {b} else 0)",
    OpCode.CMPLE: "(1 if {a} <= {b} else 0)",
    OpCode.CMPGT: "(1 if {a} > {b} else 0)",
    OpCode.CMPGE: "(1 if {a} >= {b} else 0)",
    OpCode.FADD: "({a} + {b})",
    OpCode.FSUB: "({a} - {b})",
    OpCode.FMUL: "({a} * {b})",
    OpCode.FDIV: "({a} / {b})",
    OpCode.FMIN: "min({a}, {b})",
    OpCode.FMAX: "max({a}, {b})",
    OpCode.FCMPEQ: "(1 if {a} == {b} else 0)",
    OpCode.FCMPNE: "(1 if {a} != {b} else 0)",
    OpCode.FCMPLT: "(1 if {a} < {b} else 0)",
    OpCode.FCMPLE: "(1 if {a} <= {b} else 0)",
    OpCode.FCMPGT: "(1 if {a} > {b} else 0)",
    OpCode.FCMPGE: "(1 if {a} >= {b} else 0)",
    OpCode.AADD: "({a} + {b})",
    OpCode.ASUB: "({a} - {b})",
    OpCode.AMUL: "({a} * {b})",
    OpCode.ACMPEQ: "(1 if {a} == {b} else 0)",
    OpCode.ACMPNE: "(1 if {a} != {b} else 0)",
    OpCode.ACMPLT: "(1 if {a} < {b} else 0)",
    OpCode.ACMPLE: "(1 if {a} <= {b} else 0)",
    OpCode.ACMPGT: "(1 if {a} > {b} else 0)",
    OpCode.ACMPGE: "(1 if {a} >= {b} else 0)",
}

_UNARY_EXPR = {
    OpCode.NEG: "(-{a})",
    OpCode.FNEG: "(-{a})",
    OpCode.ABS: "abs({a})",
    OpCode.FABS: "abs({a})",
    OpCode.NOT: "(~{a})",
    OpCode.MOV: "{a}",
    OpCode.CONST: "{a}",
    OpCode.FMOV: "{a}",
    OpCode.FCONST: "{a}",
    OpCode.AMOV: "{a}",
    OpCode.ACONST: "{a}",
    OpCode.MOVIA: "{a}",
    OpCode.MOVAI: "{a}",
    OpCode.ITOF: "float({a})",
    OpCode.FTOI: "int({a})",
    OpCode.FSQRT: "({a} ** 0.5)",
}

#: opcodes whose inlined form cannot raise on the values their register
#: files hold, so evaluating one in the write phase (after the
#: instruction's control operations and earlier writes) cannot change
#: which fault an instruction reports
_PURE = frozenset((
    OpCode.ADD, OpCode.SUB, OpCode.MUL, OpCode.AND, OpCode.OR, OpCode.XOR,
    OpCode.MIN, OpCode.MAX, OpCode.NEG, OpCode.ABS, OpCode.NOT,
    OpCode.CMPEQ, OpCode.CMPNE, OpCode.CMPLT, OpCode.CMPLE, OpCode.CMPGT,
    OpCode.CMPGE, OpCode.MOV, OpCode.CONST,
    OpCode.FADD, OpCode.FSUB, OpCode.FMUL, OpCode.FNEG, OpCode.FABS,
    OpCode.FMOV, OpCode.FCONST, OpCode.FMAC,
    OpCode.AADD, OpCode.ASUB, OpCode.AMUL, OpCode.AMOV, OpCode.ACONST,
    OpCode.ACMPEQ, OpCode.ACMPNE, OpCode.ACMPLT, OpCode.ACMPLE,
    OpCode.ACMPGT, OpCode.ACMPGE, OpCode.MOVIA, OpCode.MOVAI,
))


#: most sources the process-wide code memo keeps (:func:`_compiled`); a
#: figure7 + figure8 + table3 pass generates 781 distinct ones
_CODE_MEMO_CAP = 1024

#: generated source -> its code object, oldest first
_code_memo = {}

#: memo lookups answered by (hits) and added to (misses) :data:`_code_memo`
_memo_counts = {"hits": 0, "misses": 0}


def _compiled(source):
    """The code object of generated *source*, compiled once per process.

    Code objects are immutable, and every constant binds through the
    simulator's environment dict rather than the source text, so all
    programs that generate one source can share its code.  The memo holds
    at most :data:`_CODE_MEMO_CAP` sources and evicts the oldest first,
    which bounds it in a long-lived ``repro serve`` process.
    """
    code = _code_memo.get(source)
    if code is not None:
        _memo_counts["hits"] += 1
        return code
    _memo_counts["misses"] += 1
    code = compile(source, "<fastsim>", "exec")
    if len(_code_memo) >= _CODE_MEMO_CAP:
        del _code_memo[next(iter(_code_memo))]
    _code_memo[source] = code
    return code


def codegen_stats():
    """This process's code-memo counters: lookups it answered
    (``sim.codegen_hits``), sources it compiled (``sim.codegen_misses``)
    and sources it holds (``sim.codegen_entries``)."""
    return {
        "sim.codegen_hits": _memo_counts["hits"],
        "sim.codegen_misses": _memo_counts["misses"],
        "sim.codegen_entries": len(_code_memo),
    }


def _slot(register):
    """Register-file slot of a (virtual) register operand."""
    return (register.rclass, register.physical)


def _executed(instruction):
    """The operations of *instruction* that execute (and count)."""
    return [
        op
        for op in instruction.slots.values()
        if op.opcode is not OpCode.NOP and op.opcode is not OpCode.LOOP_END
    ]


class _CodeBuilder:
    """Accumulates source lines and bound constants for one function.

    One builder spans a whole straight-line run: ``flush()`` seals the
    current instruction's read-before-write grouping (reads, then
    control, then writes) into ``lines`` so the next instruction's reads
    come after this one's writes.  Temp names may be reused across
    instructions (a temp never carries a value past its own
    instruction); bound-constant names are unique for the whole
    function, and *prefix* keeps them unique across the functions that
    share one environment dict.
    """

    def __init__(self, prefix="k"):
        self.lines = []
        self.reads = []
        self.control = []
        self.writes = []
        self.tail = []
        #: bound constants as ``(name, value)`` pairs
        self.constants = []
        self.counter = 0
        self.prefix = prefix
        #: optional ``"RA[3]" -> "pa3"`` map; when set, register (and
        #: stack-pointer) references resolve to promoted local names
        self.promoted = None

    def temp(self):
        self.counter += 1
        return "t%d" % self.counter

    def const(self, value):
        name = "%s%d" % (self.prefix, len(self.constants))
        self.constants.append((name, value))
        return name

    def flush(self):
        self.lines += self.reads + self.control + self.writes
        self.reads = []
        self.control = []
        self.writes = []
        self.counter = 0

    def body(self):
        return self.lines + self.reads + self.control + self.writes + self.tail


class FastSimulator(Simulator):
    """Codegen base of the ``jit`` and ``batch`` backends (not a backend).

    Shares the whole :class:`Simulator` state and helper surface
    (``read_global``/``write_global``, call/return bookkeeping, interrupt
    hooks); subclasses supply ``run()`` on top of the straight-line
    functions (:meth:`_straight`) and the shared stepped loop.
    """

    #: opcode -> expression template tables; class attributes so
    #: subclasses (the batch backend) can substitute vector-safe forms
    #: while reusing the whole codegen pipeline
    _binary_expr = _BINARY_EXPR
    _unary_expr = _UNARY_EXPR

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        #: per-pc bound step function of the stepped loop, None until
        #: that pc's first dispatch (:meth:`_run_steps`)
        self._steps = None
        #: per-leader bound superblock function, None until its first
        #: dispatch (:meth:`_layout_blocks`, :meth:`_straight`)
        self._blocks = None
        #: globals of this simulator's generated functions (:meth:`_bind`)
        self._bound_env = None
        #: per-leader cycle length of the superblock (0 off a leader)
        self._block_lens = None
        #: leader pc -> [member pcs] of its superblock
        self._block_members = None
        #: instruction indices that terminate at least one hardware loop
        self._loop_end_pcs = frozenset(
            end for _start, end in self.program.loops.values()
        )

    def _leaders(self):
        """Superblock leader pcs: every possible control-transfer target
        plus every pc that follows a control operation or a loop end."""
        program = self.program
        count = len(program.instructions)
        leaders = {0}
        leaders.update(program.labels.values())
        leaders.update(program.function_entries.values())
        for start, end in program.loops.values():
            leaders.add(start)
            leaders.add(end + 1)
        for pc, instruction in enumerate(program.instructions):
            if pc in self._loop_end_pcs:
                leaders.add(pc + 1)
                continue
            for op in instruction.slots.values():
                if op.info.kind.value == "control":
                    leaders.add(pc + 1)
                    break
        return sorted(p for p in leaders if 0 <= p < count)

    # ------------------------------------------------------------------
    # Code generation
    # ------------------------------------------------------------------
    def _reg_ref(self, rclass, physical, cb):
        """Expression for one register slot, honouring promotion."""
        ref = "%s[%d]" % (_RFILE[rclass], physical)
        if cb.promoted is not None:
            return cb.promoted.get(ref, ref)
        return ref

    def _operand_expr(self, operand, cb):
        if isinstance(operand, Immediate):
            value = operand.value
            if isinstance(value, int):
                return "(%r)" % value
            if isinstance(value, float) and math.isfinite(value):
                return "(%r)" % value
            return cb.const(value)
        if operand.physical is None:
            raise SimulationError(
                "unallocated register %r reached the simulator" % operand
            )
        return self._reg_ref(operand.rclass, operand.physical, cb)

    def _index_expr(self, op, cb):
        """Expression for the effective index: base plus optional offset."""
        expr = self._operand_expr(op.index_operand(), cb)
        offset = op.offset_operand()
        if offset is not None:
            expr = "(%s + %s)" % (expr, self._operand_expr(offset, cb))
        return expr

    def _guard_uniform(self, name, cb):
        """Hook: validate a scalar-only value (an effective address, a
        branch condition, a loop trip count) right after its read.  The
        scalar backends need no guard; the batch backend overrides this
        to collapse uniform vectors and trigger lane splits on
        divergence."""

    def _address_expr(self, op, pc, cb):
        """Emit index + bounds check reads; return the address expression."""
        bank_index, base, frame_offset = self._resolve_symbol(op)
        index = cb.temp()
        cb.reads.append("%s = %s" % (index, self._index_expr(op, cb)))
        self._guard_uniform(index, cb)
        symbol = op.symbol
        cb.reads.append(
            "if %s < 0 or %s >= %d: SIM._fault_oob(%s, %r, %d, %d)"
            % (index, index, symbol.size, index, symbol.name, symbol.size, pc)
        )
        if base is not None:
            address = "(%d + %s)" % (base, index)
        else:
            sp_ref = "SP[%d]" % bank_index
            if cb.promoted is not None:
                sp_ref = cb.promoted.get(sp_ref, sp_ref)
            address = "(%s + %d + %s)" % (sp_ref, frame_offset, index)
        return _MEM[bank_index], address

    def _fault_oob(self, index, name, size, pc):
        raise SimulationError(
            "index %d out of bounds for %s[%d] at pc=%d" % (index, name, size, pc)
        )

    def _fast_call(self, callee, frame, entry, return_pc):
        """CALL with the return address baked in at compile time."""
        sp = self.sp
        sp[_BANK_X] -= 1
        self.memory[_BANK_X][sp[_BANK_X]] = return_pc
        sp[_BANK_X] -= frame.size_x
        sp[_BANK_Y] -= frame.size_y
        self._note_stack()
        self.call_stack.append((callee, frame))
        return entry

    def _emit_fallthrough(self, pc, cb, halt=False):
        """Fall-through tail: the hardware-loop back-edge (when this pc
        ends a loop) and the next-pc return."""
        next_pc = pc + 1
        tail = cb.tail
        if pc not in self._loop_end_pcs:
            if halt:
                tail.append("SIM.pc = %d" % next_pc)
                tail.append("return None")
            else:
                tail.append("return %d" % next_pc)
            return
        if halt:
            tail.append("np = %d" % next_pc)
        tail.append("while LS and LS[-1][1] == %d:" % pc)
        tail.append("    rec = LS[-1]")
        tail.append("    c = rec[2] - 1")
        tail.append("    rec[2] = c")
        tail.append("    if c > 0:")
        if halt:
            tail.append("        np = rec[0]")
            tail.append("        break")
        else:
            tail.append("        return rec[0]")
        tail.append("    LS.pop()")
        if halt:
            tail.append("SIM.pc = np")
            tail.append("return None")
        else:
            tail.append("return %d" % next_pc)

    def _emit_control(self, op, pc, cb):
        opcode = op.opcode
        labels = self.program.labels
        if opcode is OpCode.BR:
            # a control transfer overrides the loop back-edge (see the
            # reference interpreter), so no fall-through tail is emitted.
            cb.tail.append("return %d" % labels[op.target.name])
        elif opcode is OpCode.BRT or opcode is OpCode.BRF:
            condition = cb.temp()
            cb.reads.append(
                "%s = %s" % (condition, self._operand_expr(op.sources[0], cb))
            )
            self._guard_uniform(condition, cb)
            test = condition if opcode is OpCode.BRT else "not %s" % condition
            cb.tail.append("if %s:" % test)
            cb.tail.append("    return %d" % labels[op.target.name])
            self._emit_fallthrough(pc, cb)
        elif opcode is OpCode.LOOP_BEGIN:
            count = cb.temp()
            cb.reads.append(
                "%s = %s" % (count, self._operand_expr(op.sources[0], cb))
            )
            self._guard_uniform(count, cb)
            start, end = self.program.loops[op.target.name]
            cb.tail.append("if %s <= 0:" % count)
            cb.tail.append("    return %d" % (end + 1))
            cb.tail.append("LS.append([%d, %d, %s])" % (start, end, count))
            self._emit_fallthrough(pc, cb)
        elif opcode is OpCode.CALL:
            frame = cb.const(self.program.frames[op.callee])
            entry = self.program.function_entries[op.callee]
            cb.control.append(
                "np = SIM._fast_call(%r, %s, %d, %d)"
                % (op.callee, frame, entry, pc + 1)
            )
            cb.tail.append("return np")
        elif opcode is OpCode.RET:
            cb.control.append("np = SIM._do_ret()")
            cb.tail.append("return np")
        elif opcode is OpCode.HALT:
            cb.control.append("SIM.halted = True")
            self._emit_fallthrough(pc, cb, halt=True)
        else:
            raise SimulationError("unexpected opcode %s" % opcode)

    def _fallback_expr(self, info, sources, cb):
        """Expression for an opcode outside the inlined hot set: call the
        bound ``OpInfo.evaluate``.  The batch backend overrides this to
        force the operands scalar first (the generic evaluators are not
        vector-safe)."""
        evaluate = cb.const(info.evaluate)
        return "%s(%s)" % (evaluate, ", ".join(sources))

    def _instruction_body(self, pc, cb):
        """Emit one instruction's reads/control/writes into *cb*.

        Returns the control operation (or None); the caller decides the
        tail (control transfer or fall-through) so instructions can be
        fused into superblocks.

        An operation is evaluated straight into its destination in the
        write phase when that reads the same values the read phase
        would: no other operation of the instruction writes one of its
        source registers, and for a load, the instruction holds no STORE
        (memory) and no CALL/RET (stack pointer and memory).  Its
        inlined form must also be unable to raise (:data:`_PURE`; a
        load's bounds check runs in the read phase), so a faulting
        instruction still reports the fault the reference interpreter
        reports.  Everything else reads into a temporary first.
        """
        instruction = self.program.instructions[pc]
        lock_transition = self._lock_transition(instruction)
        control_op = None
        ops = _executed(instruction)
        # register slot -> how many ops of this instruction write it
        written = {}
        loads_direct = True
        for op in ops:
            opcode = op.opcode
            if opcode is OpCode.STORE or opcode is OpCode.CALL or opcode is OpCode.RET:
                loads_direct = False
            elif op.dest is not None:
                slot = _slot(op.dest)
                written[slot] = written.get(slot, 0) + 1

        def direct(op):
            # no *other* op writes a register this op reads
            own = _slot(op.dest)
            return all(
                written.get(slot, 0) <= (slot == own)
                for slot in map(_slot, op.reads())
            )

        for op in ops:
            opcode = op.opcode
            info = op.info
            if opcode is OpCode.LOAD:
                mem, address = self._address_expr(op, pc, cb)
                dest = self._reg_ref(op.dest.rclass, op.dest.physical, cb)
                if loads_direct:
                    cb.writes.append("%s = %s[%s]" % (dest, mem, address))
                else:
                    value = cb.temp()
                    cb.reads.append("%s = %s[%s]" % (value, mem, address))
                    cb.writes.append("%s = %s" % (dest, value))
            elif opcode is OpCode.STORE:
                mem, address = self._address_expr(op, pc, cb)
                value = cb.temp()
                slot = cb.temp()
                cb.reads.append(
                    "%s = %s" % (value, self._operand_expr(op.sources[0], cb))
                )
                cb.reads.append("%s = %s" % (slot, address))
                cb.writes.append("%s[%s] = %s" % (mem, slot, value))
            elif opcode is OpCode.FMAC:
                dest = self._reg_ref(op.dest.rclass, op.dest.physical, cb)
                expr = "%s + %s * %s" % (
                    dest,
                    self._operand_expr(op.sources[0], cb),
                    self._operand_expr(op.sources[1], cb),
                )
                if direct(op):
                    cb.writes.append("%s = %s" % (dest, expr))
                else:
                    value = cb.temp()
                    cb.reads.append("%s = %s" % (value, expr))
                    cb.writes.append("%s = %s" % (dest, value))
            elif info.kind.value == "control":
                control_op = op
            else:
                sources = [self._operand_expr(s, cb) for s in op.sources]
                binary = self._binary_expr
                unary = self._unary_expr
                pure = opcode in _PURE
                if len(sources) == 2 and opcode in binary:
                    expr = binary[opcode].format(a=sources[0], b=sources[1])
                elif len(sources) == 1 and opcode in unary:
                    expr = unary[opcode].format(a=sources[0])
                else:
                    expr = self._fallback_expr(info, sources, cb)
                    pure = False
                dest = self._reg_ref(op.dest.rclass, op.dest.physical, cb)
                if pure and direct(op):
                    cb.writes.append("%s = %s" % (dest, expr))
                else:
                    value = cb.temp()
                    cb.reads.append("%s = %s" % (value, expr))
                    cb.writes.append("%s = %s" % (dest, value))

        if lock_transition is not None:
            cb.writes.append("SIM.locked = %r" % lock_transition)
        return control_op

    def _codegen_cache(self):
        """Per-program cache of generated code and layouts.

        Generated source depends only on the program (plus, for
        subclasses, constants like ``max_cycles`` that cache keys must
        include), while the functions bind per-simulator state — so
        source generation and layout are shared across every simulator
        of the same program and only the cheap ``exec`` runs per
        instance.  The code objects come from the process-wide memo
        (:func:`_compiled`), shared across programs by source.  The
        cache lives on the program object and is collected with it.
        """
        cache = getattr(self.program, "_codegen_cache", None)
        if cache is None:
            cache = {}
            self.program._codegen_cache = cache
        return cache

    def _env(self):
        """Globals of this simulator's generated functions: the state
        their bodies name.  Subclasses add their own names."""
        registers = self.registers
        return {
            "SIM": self,
            "RA": registers[RegClass.ADDR],
            "RI": registers[RegClass.INT],
            "RF": registers[RegClass.FLOAT],
            "MX": self.memory[_BANK_X],
            "MY": self.memory[_BANK_Y],
            "SP": self.sp,
            "LS": self.loop_stack,
        }

    def _bind(self, key, generate):
        """Generate code once per program, bind it per simulator.

        On a cache miss *generate* returns ``(source, constants, extra)``:
        module source defining functions, the ``(name, value)`` constants
        its bodies name, and any per-program data the caller needs back.
        The source is generated once per program under *key* and
        compiled once per process (:func:`_compiled`); every simulator
        ``exec``s it into its own environment dict (:meth:`_env` plus the
        constants of everything it has bound; a constant name two entries
        share always names the same value).  Returns the namespace of
        defined functions and *extra*.
        """
        cache = self._codegen_cache()
        entry = cache.get(key)
        if entry is None:
            source, constants, extra = generate()
            entry = (_compiled(source), constants, extra)
            cache[key] = entry
        code, constants, extra = entry
        env = self._bound_env
        if env is None:
            env = self._bound_env = self._env()
        env.update(constants)
        namespace = {}
        exec(code, env, namespace)
        return namespace, extra

    def _widths(self):
        """Per-pc executed-operation counts, computed once per program."""
        cache = self._codegen_cache()
        widths = cache.get("widths")
        if widths is None:
            widths = cache["widths"] = tuple(
                len(_executed(i)) for i in self.program.instructions
            )
        return widths

    def _layout_blocks(self):
        """Superblock layout: maximal straight-line instruction runs, each
        fused into one function on jit's hook-free fused path.

        Each block executes atomically from its leader; per-pc execution
        counts for the interior follow from the leader's count, so the
        dispatch loop does one call, one count increment, and one cycle
        check per *block* instead of per cycle.  Only the layout (block
        lengths and members) is built here; a block's code is generated
        on its first dispatch (:meth:`_straight`).
        """
        cache = self._codegen_cache()
        key = (type(self).__qualname__, "layout")
        entry = cache.get(key)
        if entry is None:
            count = len(self.program.instructions)
            leaders = self._leaders()
            lens = [0] * count
            members = {}
            for leader, bound in zip(leaders, leaders[1:] + [count]):
                lens[leader] = bound - leader
                members[leader] = tuple(range(leader, bound))
            entry = (tuple(lens), members)
            cache[key] = entry
        lens, members = entry
        self._blocks = [None] * len(lens)
        self._block_lens = lens
        self._block_members = members

    def _straight(self, first, last):
        """The straight-line function over pcs ``[first, last]``.

        A superblock is such a run from its leader; a stepped-loop step
        is the one-instruction run ``[pc, pc]``, so a step and a
        one-instruction superblock share one cache entry.  Constants are
        named ``k<first>_<n>``: a step and the superblock starting at its
        pc give instruction *first*'s constants the same names and values
        (only a run's last instruction carries a control operation, and
        its constants come last).
        """

        def generate():
            cb = _CodeBuilder("k%d_" % first)
            for pc in range(first, last + 1):
                if pc > first:
                    cb.flush()
                control_op = self._instruction_body(pc, cb)
            if control_op is not None:
                self._emit_control(control_op, last, cb)
            else:
                self._emit_fallthrough(last, cb)
            source = "def step():\n%s\n" % "\n".join(
                "    " + line for line in cb.body()
            )
            return source, tuple(cb.constants), None

        key = (type(self).__qualname__, first, last)
        return self._bind(key, generate)[0]["step"]

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def _run_steps(self, hook=None):
        """The stepped loop: one step function per cycle, until HALT.

        *hook* (if any) is called after every cycle outside a store-lock
        window, exactly as the reference interpreter delivers it, and
        may redirect ``pc``.  A :class:`SimulationError` settles the
        state and propagates; any other exception propagates unsettled,
        as from the interpreter.  A pc's step is generated on its first
        dispatch, before that cycle counts, as the interpreter decodes.
        """
        count = len(self.program.instructions)
        if self._steps is None:
            self._steps = [None] * count
        self._enter_main()
        pc_counts = self.pc_counts
        max_cycles = self.max_cycles
        steps = self._steps
        cycle = self.cycle
        pc = self.pc
        try:
            while True:
                if pc < 0 or pc >= count:
                    raise SimulationError("pc %d out of range" % pc)
                step = steps[pc]
                if step is None:
                    step = steps[pc] = self._straight(pc, pc)
                pc_counts[pc] += 1
                cycle += 1
                self.cycle = cycle
                if cycle > max_cycles:
                    raise CycleLimitError(
                        "exceeded max_cycles=%d" % max_cycles
                    )
                self.pc = pc
                next_pc = step()
                if next_pc is None:
                    break
                pc = next_pc
                if hook is not None and not self.locked:
                    self.pc = pc
                    hook(self, cycle)
                    pc = self.pc
        except SimulationError as fault:
            self.pc = pc
            self.cycle = cycle
            self.locked = False
            self._settle_counts(False)
            self._annotate_fault(fault)
            raise
        self.cycle = cycle
        self.locked = False
        self._settle_counts(False)
        return self._result()

    def _result(self, pc_counts=None):
        """The run's :class:`SimulationResult` from the settled state."""
        return SimulationResult(
            self.cycle,
            self.op_count,
            self.pc_counts if pc_counts is None else pc_counts,
            self.mem_top[_BANK_X] - self.sp_min[_BANK_X],
            self.mem_top[_BANK_Y] - self.sp_min[_BANK_Y],
        )

    def _settle_counts(self, fused):
        """Settle per-pc execution counts and the operation total.

        In fused mode only block leaders were counted during the run; the
        interior of a straight-line block executes exactly as often as its
        leader, so the per-pc counts follow by propagation.  The per-pc
        operation width is fixed, so the running operation total the
        reference interpreter maintains per cycle reduces to one dot
        product at the end of the run."""
        pc_counts = self.pc_counts
        if fused:
            for leader, members in self._block_members.items():
                executed = pc_counts[leader]
                if executed:
                    for pc in members[1:]:
                        pc_counts[pc] = executed
        widths = self._widths()
        self.op_count = sum(
            executed * widths[index]
            for index, executed in enumerate(pc_counts)
            if executed
        )
