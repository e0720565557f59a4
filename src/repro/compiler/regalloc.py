"""Linear-scan register allocation onto the three 32-register files.

The model architecture places no constraints linking registers to memory
banks (paper Section 2), so register allocation and data partitioning are
orthogonal; allocation runs after the data-allocation pass and before
compaction.

Register-file convention (per class — ADDR, INT, FLOAT):

========  =====================================================
register  role
========  =====================================================
0         return value (volatile across calls)
1..22     allocatable
23..25    spill scratch (reserved)
26..31    argument registers ARG0..ARG5 (volatile across calls)
========  =====================================================

Functions are callee-save: the frame pass (:mod:`repro.compiler.frames`)
saves every allocatable register a function writes in its prologue and
restores it before returning — with successive save/restore operations
assigned to alternating memory banks, as in paper Section 3.1.

Spilled virtual registers get one-word stack slots, also assigned to
alternating banks when dual stacks are enabled.
"""

from repro.analysis.liveness import compute_liveness
from repro.ir.operations import OpCode, Operation
from repro.ir.symbols import MemoryBank, Storage, Symbol
from repro.ir.types import DataType, RegClass
from repro.ir.values import Immediate, VirtualRegister, is_register

RETURN_REG = 0
ALLOCATABLE = tuple(range(1, 23))
SCRATCH_REGS = (23, 24, 25)
ARG_REGS = tuple(range(26, 32))

_MOVE_OPCODE = {
    RegClass.INT: OpCode.MOV,
    RegClass.FLOAT: OpCode.FMOV,
    RegClass.ADDR: OpCode.AMOV,
}

_phys_cache = {}


def phys(rclass, number):
    """The canonical physical-register object ``rclass[number]``.

    After allocation every operand is rewritten to one of these interned
    objects, so object identity equals storage identity — which is what
    the dependence analysis relies on.
    """
    key = (rclass, number)
    reg = _phys_cache.get(key)
    if reg is None:
        reg = VirtualRegister(1000000 + number, rclass, name=None)
        reg.physical = number
        _phys_cache[key] = reg
    return reg


def arg_register(rclass, position):
    if position >= len(ARG_REGS):
        raise ValueError("at most %d arguments supported" % len(ARG_REGS))
    return phys(rclass, ARG_REGS[position])


def return_register(rclass):
    return phys(rclass, RETURN_REG)


class AllocationRecord:
    """Result of allocating one function."""

    def __init__(self):
        #: physical registers written, per class (for callee saves)
        self.written = {rc: set() for rc in RegClass}
        #: spill-slot symbols created
        self.spill_slots = []
        self.spill_count = 0


class _BankAlternator:
    """Deal out X, Y, X, Y, ... (or all X when dual stacks are off)."""

    def __init__(self, dual_stacks):
        self.dual_stacks = dual_stacks
        self._next = 0

    def take(self):
        if not self.dual_stacks:
            return MemoryBank.X
        bank = MemoryBank.X if self._next % 2 == 0 else MemoryBank.Y
        self._next += 1
        return bank


def _insert_abi_moves(function, module):
    """Make the calling convention explicit with register-register moves.

    * entry: copy each argument register into the parameter's vreg;
    * before CALL: copy argument values into the argument registers;
    * after CALL: copy the return register into the call's destination;
    * before RET: copy the returned value into the return register.
    """
    entry_moves = []
    for position, vreg in enumerate(function.param_registers):
        src = arg_register(vreg.rclass, position)
        entry_moves.append(
            Operation(_MOVE_OPCODE[vreg.rclass], dest=vreg, sources=(src,))
        )
    function.blocks[0].ops[:0] = entry_moves

    for b_index, block in enumerate(function.blocks):
        new_ops = []
        pending_result = None
        for op in block.ops:
            if op.opcode is OpCode.CALL:
                new_sources = []
                for position, src in enumerate(op.sources):
                    if isinstance(src, Immediate):
                        rclass = (
                            RegClass.FLOAT
                            if src.data_type is DataType.FLOAT
                            else RegClass.INT
                        )
                        const_op = {
                            RegClass.INT: OpCode.CONST,
                            RegClass.FLOAT: OpCode.FCONST,
                        }[rclass]
                        areg = arg_register(rclass, position)
                        new_ops.append(
                            Operation(const_op, dest=areg, sources=(src,))
                        )
                        new_sources.append(areg)
                        continue
                    areg = arg_register(src.rclass, position)
                    new_ops.append(
                        Operation(_MOVE_OPCODE[src.rclass], dest=areg, sources=(src,))
                    )
                    new_sources.append(areg)
                dest = op.dest
                op.dest = None
                op.sources = tuple(new_sources)
                new_ops.append(op)
                if dest is not None:
                    pending_result = Operation(
                        _MOVE_OPCODE[dest.rclass],
                        dest=dest,
                        sources=(return_register(dest.rclass),),
                    )
            elif op.opcode is OpCode.RET and op.sources:
                src = op.sources[0]
                rreg = return_register(src.rclass)
                new_ops.append(
                    Operation(_MOVE_OPCODE[src.rclass], dest=rreg, sources=(src,))
                )
                op.sources = (rreg,)
                new_ops.append(op)
            else:
                new_ops.append(op)
        block.ops = new_ops
        if pending_result is not None:
            # The builder always starts a fresh block right after a call.
            function.blocks[b_index + 1].ops.insert(0, pending_result)


def _linear_scan(intervals, candidates):
    """Classic linear scan; returns (assignment, spilled_set)."""
    assignment = {}
    spilled = set()
    by_class = {}
    for reg in candidates:
        by_class.setdefault(reg.rclass, []).append(reg)
    for rclass, regs in by_class.items():
        regs.sort(key=lambda r: (intervals[r][0], intervals[r][1], r.index))
        free = list(ALLOCATABLE)
        active = []  # (end, reg, phys_number)
        for reg in regs:
            start, end = intervals[reg]
            # active is kept sorted by end, so the intervals that ended
            # before this one starts are a prefix of it
            expired = 0
            while expired < len(active) and active[expired][0] < start:
                free.append(active[expired][2])
                expired += 1
            del active[:expired]
            if free:
                number = free.pop(0)
                assignment[reg] = number
                active.append((end, reg, number))
                active.sort(key=lambda entry: entry[0])
            else:
                # Spill the interval that ends last.
                last_end, last_reg, last_number = active[-1]
                if last_end > end:
                    spilled.add(last_reg)
                    del assignment[last_reg]
                    assignment[reg] = last_number
                    active[-1] = (end, reg, last_number)
                    active.sort(key=lambda entry: entry[0])
                else:
                    spilled.add(reg)
    return assignment, spilled


def _scan(function):
    """Liveness and linear scan over *function*'s virtual registers."""
    liveness = compute_liveness(function)
    candidates = [
        reg for reg in liveness.intervals if reg.physical is None
    ]
    return liveness, *_linear_scan(liveness.intervals, candidates)


def spill_count(function):
    """How many virtual registers linear scan would spill in *function*
    as it stands (a trial for passes that run before allocation)."""
    return len(_scan(function)[2])


def allocate_registers(function, module, dual_stacks):
    """Allocate *function*'s virtual registers; returns an
    :class:`AllocationRecord`.  Operands are rewritten in place to
    canonical physical-register objects; spill code uses the reserved
    scratch registers and stack slots on alternating banks."""
    record = AllocationRecord()
    _insert_abi_moves(function, module)

    liveness, assignment, spilled = _scan(function)

    alternator = _BankAlternator(dual_stacks)
    slot_of = {}
    for reg in sorted(spilled, key=lambda r: r.index):
        slot = Symbol(
            "__spill%d_%s" % (record.spill_count, reg.rclass.name.lower()),
            data_type=reg.data_type,
            size=1,
            storage=Storage.LOCAL,
        )
        slot.bank = alternator.take()
        function.add_symbol(slot)
        record.spill_slots.append(slot)
        record.spill_count += 1
        slot_of[reg] = slot

    # Every register an operation names has an interval, so each one
    # that is not spilled is renamed through this table.
    renamed = {
        reg: phys(
            reg.rclass,
            reg.physical if reg.physical is not None else assignment[reg],
        )
        for reg in liveness.intervals
        if reg not in slot_of
    }

    zero_index = Immediate(0, DataType.INT)
    for block in function.blocks:
        new_ops = []
        for op in block.ops:
            scratch_in_use = {}
            post_stores = []
            new_sources = []
            for src in op.sources:
                if not is_register(src):
                    new_sources.append(src)
                    continue
                if src in slot_of:
                    key = (src.rclass, src.index)
                    if key in scratch_in_use:
                        new_sources.append(scratch_in_use[key])
                        continue
                    taken = sum(
                        1 for k, v in scratch_in_use.items() if k[0] is src.rclass
                    )
                    scratch = phys(src.rclass, SCRATCH_REGS[taken])
                    slot = slot_of[src]
                    new_ops.append(
                        Operation(
                            OpCode.LOAD,
                            dest=scratch,
                            sources=(zero_index,),
                            symbol=slot,
                            bank=slot.bank,
                        )
                    )
                    scratch_in_use[key] = scratch
                    new_sources.append(scratch)
                else:
                    new_sources.append(renamed[src])
            dest = op.dest
            if dest is not None:
                if dest in slot_of:
                    key = (dest.rclass, dest.index)
                    if key in scratch_in_use:
                        scratch = scratch_in_use[key]
                    else:
                        taken = sum(
                            1
                            for k, v in scratch_in_use.items()
                            if k[0] is dest.rclass
                        )
                        scratch = phys(dest.rclass, SCRATCH_REGS[taken])
                    slot = slot_of[dest]
                    if op.opcode is OpCode.FMAC:
                        # FMAC reads its destination (the accumulator), so
                        # the spilled value must be reloaded first.
                        new_ops.append(
                            Operation(
                                OpCode.LOAD,
                                dest=scratch,
                                sources=(zero_index,),
                                symbol=slot,
                                bank=slot.bank,
                            )
                        )
                    post_stores.append(
                        Operation(
                            OpCode.STORE,
                            sources=(scratch, zero_index),
                            symbol=slot,
                            bank=slot.bank,
                        )
                    )
                    dest = scratch
                else:
                    dest = renamed[dest]
                record.written[dest.rclass].add(dest.physical)
            op.dest = dest
            op.sources = tuple(new_sources)
            new_ops.append(op)
            new_ops.extend(post_stores)
        block.ops = new_ops
    return record
