"""The cycle-counting VLIW instruction-set simulator.

Execution model
---------------
* one :class:`LongInstruction` per cycle; performance *is* the cycle count
  (paper Section 4.1 measures performance as the number of cycles);
* within a cycle, every operation reads its sources from the
  pre-instruction machine state and all writes are applied together at
  the end of the cycle (read-before-write), which is what lets the
  compaction pass pack anti-dependent operations into one instruction;
* memory: two word-addressed banks (X and Y), each holding its static
  data at low addresses and its stack at high addresses, growing down;
* calls: the CALL operation pushes the return address on the X stack and
  opens the callee's two frame regions; RET unwinds them;
* hardware loops: ``LOOP_BEGIN`` arms a loop record; after executing the
  loop's final body instruction the counter is decremented and, while
  positive, control returns to the body head in the same cycle — the
  zero-overhead looping of DSPs like the DSP56001;
* interrupts: an optional hook fires between instructions, but never
  between a store-lock and its store-unlock (paper Section 3.2's
  mechanism for keeping duplicated data consistent).
"""

from repro.ir.operations import OpCode
from repro.ir.symbols import MemoryBank, Storage
from repro.ir.types import RegClass
from repro.ir.values import Immediate


class SimulationError(Exception):
    """Raised on machine faults: bad address, stack overflow, runaway.

    Every backend annotates the exception in flight with the faulting
    ``pc``, ``cycle``, and ``backend`` name (see
    :meth:`Simulator._annotate_fault`); :mod:`repro.sim.errors` builds
    the structured program/machine/internal taxonomy on top of these.
    """


class CycleLimitError(SimulationError):
    """The ``max_cycles`` runaway guard tripped.

    A distinct subclass so callers (the fault-injection outcome
    classifier, campaign supervisors) can tell an apparent *hang* from
    other machine faults without parsing the message.
    """


class SimulationResult:
    """Outcome of one program run."""

    def __init__(self, cycles, operations, pc_counts, stack_peak_x, stack_peak_y):
        #: executed long instructions == elapsed cycles
        self.cycles = cycles
        #: total machine operations executed (incl. parallel ones)
        self.operations = operations
        #: instruction index -> execution count.  One instruction costs
        #: one cycle, so this is also the exact per-pc cycle attribution
        #: the profiling layer (:mod:`repro.obs.profile`) reads.
        self.pc_counts = pc_counts
        #: peak stack usage in words, per bank
        self.stack_peak_x = stack_peak_x
        self.stack_peak_y = stack_peak_y

    @property
    def parallelism(self):
        """Mean operations per cycle actually achieved."""
        return self.operations / self.cycles if self.cycles else 0.0

    def __repr__(self):
        return "<SimulationResult cycles=%d ops=%d>" % (self.cycles, self.operations)


_BANK_X = 0
_BANK_Y = 1

_BANK_INDEX = {MemoryBank.X: _BANK_X, MemoryBank.Y: _BANK_Y}


class Simulator:
    """Executes a compiled :class:`MachineProgram`.

    Parameters
    ----------
    program:
        The output of :func:`repro.compiler.compile_module`.
    stack_words:
        Stack region size per bank.
    max_cycles:
        Runaway guard.
    interrupt_hook:
        Optional callable ``hook(simulator, cycle) -> None`` invoked
        between instructions (except while a locked store pair is open).

    Every memory access is checked against its symbol's bounds, which
    catches compiler bugs as machine faults.
    """

    #: backend identifier attached to faults (subclasses override)
    backend_name = "interp"

    def __init__(
        self,
        program,
        stack_words=16384,
        max_cycles=200_000_000,
        interrupt_hook=None,
    ):
        self.program = program
        self.stack_words = stack_words
        self.max_cycles = max_cycles
        self.interrupt_hook = interrupt_hook

        layout = program.layout
        self.data_size = [layout.data_size_x, layout.data_size_y]
        self.mem_top = [
            self.data_size[_BANK_X] + stack_words,
            self.data_size[_BANK_Y] + stack_words,
        ]
        self.memory = [
            [0] * self.mem_top[_BANK_X],
            [0] * self.mem_top[_BANK_Y],
        ]
        self.sp = [self.mem_top[_BANK_X], self.mem_top[_BANK_Y]]
        self.sp_min = list(self.sp)
        self.registers = {
            RegClass.ADDR: [0] * 32,
            RegClass.INT: [0] * 32,
            RegClass.FLOAT: [0.0] * 32,
        }
        self.pc = 0
        self.cycle = 0
        self.op_count = 0
        self.halted = False
        self.locked = False
        self.loop_stack = []
        self.call_stack = []
        self.pc_counts = [0] * len(program.instructions)
        self._decoded = [None] * len(program.instructions)
        self._init_globals()

    # ------------------------------------------------------------------
    # Data access helpers (also used by tests and the workload harness)
    # ------------------------------------------------------------------
    def _global_location(self, name):
        bank, base = self.program.layout.address_of(name)
        return bank, base

    def read_global(self, name):
        """Current contents of a global symbol (X copy for duplicated)."""
        symbol = self.program.module.globals.get(name)
        bank, base = self._global_location(name)
        index = _BANK_X if bank in (MemoryBank.X, MemoryBank.BOTH) else _BANK_Y
        values = self.memory[index][base : base + symbol.size]
        return values[0] if symbol.size == 1 else values

    def read_global_copy(self, name, bank):
        """One specific copy of a (possibly duplicated) global."""
        symbol = self.program.module.globals.get(name)
        _bank, base = self._global_location(name)
        return self.memory[_BANK_INDEX[bank]][base : base + symbol.size]

    def write_global(self, name, values):
        """Overwrite a global before (or between) runs; updates all copies."""
        symbol = self.program.module.globals.get(name)
        if not isinstance(values, (list, tuple)):
            values = [values]
        if len(values) > symbol.size:
            raise ValueError(
                "%d values for %s[%d]" % (len(values), name, symbol.size)
            )
        bank, base = self._global_location(name)
        targets = (
            (_BANK_X, _BANK_Y) if bank is MemoryBank.BOTH else (_BANK_INDEX[bank],)
        )
        for target in targets:
            memory = self.memory[target]
            for i, value in enumerate(values):
                memory[base + i] = value

    def _init_globals(self):
        for symbol in self.program.module.globals:
            if symbol.initializer:
                self.write_global(symbol.name, symbol.initializer)

    def state_digest(self):
        """SHA-256 over the complete architectural state.

        Covers both memory banks, all three register files, stack
        pointers and their minima, pc, cycle, and the halt flag — two
        runs are bit-identical iff their digests match.  Used by the
        observability identity tests (profiled vs. unprofiled) and
        available to any cross-backend comparison.
        """
        import hashlib

        digest = hashlib.sha256()
        for part in (
            self.memory[_BANK_X],
            self.memory[_BANK_Y],
            self.registers[RegClass.ADDR],
            self.registers[RegClass.INT],
            self.registers[RegClass.FLOAT],
            self.sp,
            self.sp_min,
            [self.pc, self.cycle, int(self.halted)],
        ):
            digest.update(repr(part).encode())
        return digest.hexdigest()

    # ------------------------------------------------------------------
    # Decoding
    # ------------------------------------------------------------------
    def _address_reader(self, op):
        """Reader for the effective index: base plus optional (Rn+Nn)
        offset operand."""
        base_reader = self._operand_reader(op.index_operand())
        offset = op.offset_operand()
        if offset is None:
            return base_reader
        offset_reader = self._operand_reader(offset)
        return lambda regs: base_reader(regs) + offset_reader(regs)

    def _operand_reader(self, operand):
        if isinstance(operand, Immediate):
            value = operand.value
            return lambda regs: value
        if operand.physical is None:
            raise SimulationError("unallocated register %r reached the simulator" % operand)
        rfile = self.registers[operand.rclass]
        index = operand.physical
        return lambda regs: rfile[index]

    def _resolve_symbol(self, op):
        """(bank_index, static_base or None, frame_offset or None)."""
        symbol = op.symbol
        bank = op.bank
        if bank not in _BANK_INDEX:
            raise SimulationError(
                "memory op on %s has unresolved bank %r" % (symbol.name, bank)
            )
        bank_index = _BANK_INDEX[bank]
        if symbol.storage is Storage.GLOBAL:
            _b, base = self.program.layout.address_of(symbol.name)
            return bank_index, base, None
        frame = self.program.frames[symbol.function]
        _b, offset = frame.offset_of(symbol.name)
        return bank_index, None, offset

    def _lock_transition(self, instruction):
        """Net store-lock state change of one long instruction, or None.

        Computed at decode time over the whole instruction so the result
        cannot depend on slot iteration order: a lock and its unlock
        (shadow) landing in the same instruction cancel out, a lone lock
        opens the window, a lone unlock closes it.
        """
        locks = unlocks = 0
        for op in instruction.slots.values():
            if op.opcode is OpCode.STORE and op.locked:
                if op.shadow:
                    unlocks += 1
                else:
                    locks += 1
        if locks and unlocks:
            return None
        if locks:
            return True
        if unlocks:
            return False
        return None

    def _decode(self, instruction):
        # Control operations are decoded last so that CALL/RET stack-pointer
        # updates never disturb the address computations of memory
        # operations packed into the same instruction.
        micro = []
        control = []
        lock_transition = self._lock_transition(instruction)
        for unit, op in instruction.slots.items():
            opcode = op.opcode
            info = op.info
            if opcode is OpCode.LOAD:
                bank_index, base, offset = self._resolve_symbol(op)
                reader = self._address_reader(op)
                micro.append(
                    (
                        "ld",
                        self.registers[op.dest.rclass],
                        op.dest.physical,
                        bank_index,
                        base,
                        offset,
                        reader,
                        op,
                    )
                )
            elif opcode is OpCode.STORE:
                bank_index, base, offset = self._resolve_symbol(op)
                value_reader = self._operand_reader(op.sources[0])
                index_reader = self._address_reader(op)
                micro.append(
                    (
                        "st",
                        value_reader,
                        bank_index,
                        base,
                        offset,
                        index_reader,
                        op,
                        lock_transition if op.locked else None,
                    )
                )
                if op.locked:
                    # only the first locked store carries the (instruction-
                    # wide) transition; applying it once is enough.
                    lock_transition = None
            elif opcode is OpCode.FMAC:
                rfile = self.registers[RegClass.FLOAT]
                micro.append(
                    (
                        "mac",
                        rfile,
                        op.dest.physical,
                        self._operand_reader(op.sources[0]),
                        self._operand_reader(op.sources[1]),
                    )
                )
            elif info.kind.value == "control":
                control.append(("ctl", op))
            elif opcode is OpCode.NOP or opcode is OpCode.LOOP_END:
                continue
            else:
                readers = tuple(self._operand_reader(s) for s in op.sources)
                micro.append(
                    (
                        "c",
                        self.registers[op.dest.rclass],
                        op.dest.physical,
                        info.evaluate,
                        readers,
                    )
                )
        micro.extend(control)
        return micro

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def _address(self, bank_index, base, offset, index, op):
        if base is None:
            address = self.sp[bank_index] + offset + index
        else:
            address = base + index
        symbol = op.symbol
        if not 0 <= index < symbol.size:
            raise SimulationError(
                "index %d out of bounds for %s[%d] at pc=%d"
                % (index, symbol.name, symbol.size, self.pc)
            )
        return address

    def _enter_main(self):
        frame = self.program.frames["main"]
        self.sp[_BANK_X] -= frame.size_x
        self.sp[_BANK_Y] -= frame.size_y
        self._note_stack()
        self.call_stack.append(("main", frame))
        self.pc = self.program.function_entries["main"]

    def _note_stack(self):
        if self.sp[_BANK_X] < self.sp_min[_BANK_X]:
            self.sp_min[_BANK_X] = self.sp[_BANK_X]
        if self.sp[_BANK_Y] < self.sp_min[_BANK_Y]:
            self.sp_min[_BANK_Y] = self.sp[_BANK_Y]
        if (
            self.sp[_BANK_X] < self.data_size[_BANK_X]
            or self.sp[_BANK_Y] < self.data_size[_BANK_Y]
        ):
            raise SimulationError("stack overflow at cycle %d" % self.cycle)

    def _do_call(self, op):
        callee = op.callee
        frame = self.program.frames[callee]
        self.sp[_BANK_X] -= 1
        self.memory[_BANK_X][self.sp[_BANK_X]] = self.pc + 1
        self.sp[_BANK_X] -= frame.size_x
        self.sp[_BANK_Y] -= frame.size_y
        self._note_stack()
        self.call_stack.append((callee, frame))
        return self.program.function_entries[callee]

    def _do_ret(self):
        if len(self.call_stack) <= 1:
            raise SimulationError("RET with empty call stack at pc=%d" % self.pc)
        _name, frame = self.call_stack.pop()
        self.sp[_BANK_X] += frame.size_x
        self.sp[_BANK_Y] += frame.size_y
        return_pc = self.memory[_BANK_X][self.sp[_BANK_X]]
        self.sp[_BANK_X] += 1
        return return_pc

    def _annotate_fault(self, fault):
        """Attach fault context (``pc``, ``cycle``, ``backend``) in flight.

        Existing values win, so a fault annotated deeper in the stack
        keeps its innermost (most precise) location.  The structured
        taxonomy in :mod:`repro.sim.errors` reads these attributes when
        wrapping the raw :class:`SimulationError`.
        """
        if getattr(fault, "pc", None) is None:
            fault.pc = self.pc
        if getattr(fault, "cycle", None) is None:
            fault.cycle = self.cycle
        if getattr(fault, "backend", None) is None:
            fault.backend = self.backend_name

    def run(self):
        """Execute until HALT; returns a :class:`SimulationResult`."""
        try:
            return self._run()
        except SimulationError as fault:
            # A machine fault aborts any open store-lock window: the
            # machine is dead, so the window must not linger into
            # post-mortem inspection or a subsequent interrupt probe.
            self.locked = False
            self._annotate_fault(fault)
            raise

    def _run(self):
        self._enter_main()
        instructions = self.program.instructions
        decoded = self._decoded
        registers = self.registers
        int_file = registers[RegClass.INT]
        labels = self.program.labels
        loops = self.program.loops
        pc_counts = self.pc_counts

        while not self.halted:
            pc = self.pc
            if pc < 0 or pc >= len(instructions):
                raise SimulationError("pc %d out of range" % pc)
            micro = decoded[pc]
            if micro is None:
                micro = self._decode(instructions[pc])
                decoded[pc] = micro
            pc_counts[pc] += 1
            self.cycle += 1
            if self.cycle > self.max_cycles:
                raise CycleLimitError("exceeded max_cycles=%d" % self.max_cycles)
            next_pc = pc + 1
            transferred = False
            reg_writes = []
            mem_writes = []
            self.op_count += len(micro)

            for entry in micro:
                kind = entry[0]
                if kind == "c":
                    _k, rfile, index, evaluate, readers = entry
                    if len(readers) == 2:
                        value = evaluate(readers[0](None), readers[1](None))
                    elif len(readers) == 1:
                        value = evaluate(readers[0](None))
                    else:
                        value = evaluate()
                    reg_writes.append((rfile, index, value))
                elif kind == "mac":
                    _k, rfile, index, read_a, read_b = entry
                    value = rfile[index] + read_a(None) * read_b(None)
                    reg_writes.append((rfile, index, value))
                elif kind == "ld":
                    (_k, rfile, rindex, bank_index, base, offset, reader, op) = entry
                    address = self._address(
                        bank_index, base, offset, reader(None), op
                    )
                    reg_writes.append(
                        (rfile, rindex, self.memory[bank_index][address])
                    )
                elif kind == "st":
                    (
                        _k,
                        value_reader,
                        bank_index,
                        base,
                        offset,
                        index_reader,
                        op,
                        lock_transition,
                    ) = entry
                    address = self._address(
                        bank_index, base, offset, index_reader(None), op
                    )
                    mem_writes.append(
                        (self.memory[bank_index], address, value_reader(None))
                    )
                    if lock_transition is not None:
                        # store-lock opens the window; store-unlock (the
                        # shadow copy) closes it.  The transition is the
                        # instruction-wide net effect, so a lock/unlock
                        # pair sharing this instruction never leaves the
                        # window open regardless of slot order.
                        self.locked = lock_transition
                else:  # control
                    op = entry[1]
                    opcode = op.opcode
                    if opcode is OpCode.BR:
                        next_pc = labels[op.target.name]
                        transferred = True
                    elif opcode is OpCode.BRT:
                        if self._read_control_source(op):
                            next_pc = labels[op.target.name]
                            transferred = True
                    elif opcode is OpCode.BRF:
                        if not self._read_control_source(op):
                            next_pc = labels[op.target.name]
                            transferred = True
                    elif opcode is OpCode.LOOP_BEGIN:
                        count = self._read_control_source(op)
                        start, end = loops[op.target.name]
                        if count <= 0:
                            next_pc = end + 1
                            transferred = True
                        else:
                            self.loop_stack.append([start, end, count])
                    elif opcode is OpCode.CALL:
                        next_pc = self._do_call(op)
                        transferred = True
                    elif opcode is OpCode.RET:
                        next_pc = self._do_ret()
                        transferred = True
                    elif opcode is OpCode.HALT:
                        self.halted = True
                    else:
                        raise SimulationError("unexpected opcode %s" % opcode)

            for rfile, index, value in reg_writes:
                rfile[index] = value
            for memory, address, value in mem_writes:
                memory[address] = value

            # Zero-overhead hardware-loop back-edge.  A control transfer
            # (taken branch, CALL, RET, zero-trip loop skip) in this same
            # instruction overrides the loop hardware's end-of-body
            # detection for the cycle: the counter is neither decremented
            # nor the back-edge taken.  (Real DSPs forbid a CALL as the
            # final loop instruction for exactly this reason.)
            if not transferred:
                while self.loop_stack and self.loop_stack[-1][1] == pc:
                    record = self.loop_stack[-1]
                    record[2] -= 1
                    if record[2] > 0:
                        next_pc = record[0]
                        break
                    self.loop_stack.pop()

            self.pc = next_pc

            if self.interrupt_hook is not None and not self.locked and not self.halted:
                self.interrupt_hook(self, self.cycle)

        # HALT closes any open lock window: nothing can unlock it anymore.
        self.locked = False
        return SimulationResult(
            self.cycle,
            self.op_count,
            self.pc_counts,
            self.mem_top[_BANK_X] - self.sp_min[_BANK_X],
            self.mem_top[_BANK_Y] - self.sp_min[_BANK_Y],
        )

    def _read_control_source(self, op):
        source = op.sources[0]
        if isinstance(source, Immediate):
            return source.value
        return self.registers[source.rclass][source.physical]
