"""The operation-compaction pass: packing operations into long instructions.

This is the scheduling-mode twin of the allocation-mode run in
:mod:`repro.partition.graph_builder`: the same list-scheduling engine, but
with the real nine functional units and with memory operations routed by
the bank tags the allocation pass attached:

* a bank-X operation may only use MU0, a bank-Y operation only MU1;
* a load of a *duplicated* symbol (bank ``BOTH``) may use whichever memory
  unit is free — the tag is narrowed to the chosen copy's bank so the
  simulator reads a concrete location;
* under the Ideal (dual-ported) configuration banks do not constrain unit
  choice at all.

Terminators are appended after scheduling: they share the block's final
instruction when the PCU is free and no operation in that instruction
feeds them; otherwise they occupy a new instruction.  ``LOOP_END``
markers attach to the block's final instruction, making it the
zero-overhead back-edge point of the enclosing hardware loop.
"""

from repro.analysis.dependence import build_dependence_graph
from repro.compiler.listsched import SchedulePolicy, run_list_schedule
from repro.ir.operations import OpCode
from repro.ir.symbols import MemoryBank
from repro.machine.instruction import LongInstruction
from repro.machine.resources import FunctionalUnit, units_for_class


class _EmitPolicy(SchedulePolicy):
    """Packs operations into :class:`LongInstruction` bundles."""

    def __init__(self, block, dual_ported, bank_pressure):
        self.block = block
        self.dual_ported = dual_ported
        #: remaining unscheduled memory ops per concrete bank, used to
        #: steer duplicated loads towards the less-contended memory unit
        self.bank_pressure = dict(bank_pressure)
        self.instructions = []
        self.round_of = {}
        self._current = None
        # Store-lock pairing: each locked primary store opens an interrupt
        # lock that its shadow store closes.  The dependence graph leaves
        # the pair deliberately unordered (so both can pack into one
        # instruction), which means placement must enforce the protocol:
        # a shadow may not issue before its primary, and a second pair may
        # not open while an earlier pair is still half-placed — otherwise
        # the lone unlock of the first pair would expose the second pair's
        # half-updated copies to an interrupt.
        self._shadow_primary = {}
        self._primary_shadow = {}
        open_primary = {}
        for i, op in enumerate(block.ops):
            if op.is_store and op.locked:
                if op.shadow:
                    primary = open_primary.pop(id(op.symbol), None)
                    if primary is not None:
                        self._shadow_primary[i] = primary
                        self._primary_shadow[primary] = i
                else:
                    open_primary[id(op.symbol)] = i
        self._open_pairs = set()

    def begin_round(self):
        self._current = LongInstruction(self.block.label)

    def _lock_ok(self, index):
        primary = self._shadow_primary.get(index)
        if primary is not None:
            # Shadow: its primary must already be placed (this round or an
            # earlier one — same-instruction pairs cancel and are safe).
            return primary in self.round_of
        if index in self._primary_shadow and self._open_pairs:
            # Primary: no other pair may be mid-flight.
            return False
        return True

    def _memory_unit(self, op):
        if self.dual_ported:
            for unit in (FunctionalUnit.MU0, FunctionalUnit.MU1):
                if self._current.unit_free(unit):
                    return unit, None
            return None, None
        bank = op.bank
        if bank is MemoryBank.X:
            unit = FunctionalUnit.MU0
            return (unit, None) if self._current.unit_free(unit) else (None, None)
        if bank is MemoryBank.Y:
            unit = FunctionalUnit.MU1
            return (unit, None) if self._current.unit_free(unit) else (None, None)
        # Duplicated load: either copy works; prefer the bank with fewer
        # outstanding concrete-bank operations in this block.
        order = (
            (FunctionalUnit.MU1, MemoryBank.Y, FunctionalUnit.MU0, MemoryBank.X)
            if self.bank_pressure.get(MemoryBank.Y, 0)
            <= self.bank_pressure.get(MemoryBank.X, 0)
            else (FunctionalUnit.MU0, MemoryBank.X, FunctionalUnit.MU1, MemoryBank.Y)
        )
        first_unit, first_bank, second_unit, second_bank = order
        if self._current.unit_free(first_unit):
            return first_unit, first_bank
        if self._current.unit_free(second_unit):
            return second_unit, second_bank
        return None, None

    def try_place(self, index, op):
        if op.is_memory:
            if not self._lock_ok(index):
                return False
            unit, narrowed_bank = self._memory_unit(op)
            if unit is None:
                return False
            if narrowed_bank is not None:
                op.bank = narrowed_bank
            elif not self.dual_ported and op.bank in (MemoryBank.X, MemoryBank.Y):
                self.bank_pressure[op.bank] = self.bank_pressure.get(op.bank, 1) - 1
            self._current.add(unit, op)
            self.round_of[index] = len(self.instructions)
            if index in self._primary_shadow:
                self._open_pairs.add(index)
            else:
                self._open_pairs.discard(self._shadow_primary.get(index))
            return True
        for unit in units_for_class(op.unit):
            if self._current.unit_free(unit):
                self._current.add(unit, op)
                self.round_of[index] = len(self.instructions)
                return True
        return False

    def end_round(self, placed):
        self.instructions.append(self._current)
        self._current = None


def _bank_pressure(ops):
    pressure = {MemoryBank.X: 0, MemoryBank.Y: 0}
    for op in ops:
        if op.is_memory and op.bank in pressure:
            pressure[op.bank] += 1
    return pressure


def compact_block(block, dual_ported=False):
    """Schedule one block into a list of :class:`LongInstruction`.

    Hardware-loop end markers are attached to the final instruction's
    ``loop_ends`` so the assembler can record the back-edge address.

    Greedy list scheduling is not monotone in resources (a Graham
    anomaly): freeing the bank constraint can make a dual-ported
    schedule *longer* than the banked one.  A banked schedule is also
    legal on dual-ported hardware, so the dual-ported case schedules
    the block both ways and keeps the shorter: dual-ported is never
    slower than banked for the same tags.
    """
    graph = build_dependence_graph(block.ops)
    instructions = _compact(block, graph, dual_ported)
    if not dual_ported:
        return instructions
    memory = [(op, op.bank) for op in block.ops if op.is_memory]
    if not memory:
        return instructions  # banks constrain memory operations only
    banked = _compact(block, graph, False)
    if len(banked) < len(instructions):
        return banked
    # The banked attempt narrows duplicated loads' tags to the copy it
    # chose; the kept dual-ported schedule must see the original tags.
    for op, bank in memory:
        op.bank = bank
    return instructions


def _compact(block, graph, dual_ported):
    policy = _EmitPolicy(block, dual_ported, _bank_pressure(block.ops))

    has_schedulable = any(
        not (
            op.is_terminator
            or op.opcode in (OpCode.LOOP_END, OpCode.NOP, OpCode.LOOP_BEGIN)
        )
        for op in block.ops
    )
    if has_schedulable:
        run_list_schedule(graph, policy)
    instructions = policy.instructions

    # Tail operations — LOOP_BEGIN then the terminator — must close the
    # block, in program order, one PCU slot each.
    tail_indices = [
        i
        for i, op in enumerate(block.ops)
        if op.opcode is OpCode.LOOP_BEGIN or op.is_terminator
    ]
    for t_index in tail_indices:
        tail_op = block.ops[t_index]
        placed = False
        if instructions:
            last = instructions[-1]
            last_round = len(instructions) - 1
            feeds_tail = any(
                policy.round_of.get(pred) == last_round
                for pred in graph.hard_preds(t_index)
            )
            if last.unit_free(FunctionalUnit.PCU) and not feeds_tail:
                last.add(FunctionalUnit.PCU, tail_op)
                placed = True
        if not placed:
            extra = LongInstruction(block.label)
            extra.add(FunctionalUnit.PCU, tail_op)
            instructions.append(extra)
        policy.round_of[t_index] = len(instructions) - 1

    loop_end_ids = [
        op.target.name for op in block.ops if op.opcode is OpCode.LOOP_END
    ]
    if loop_end_ids and not instructions:
        # A latch block with nothing but the marker still needs a real
        # instruction for the hardware loop's back-edge test.
        instructions.append(LongInstruction(block.label))
    if instructions:
        instructions[-1].loop_ends.extend(loop_end_ids)
    return instructions
