"""Software pipelining of innermost hardware loops (paper Figure 1).

The paper's hand-written FIR loop is software-pipelined: elements of both
arrays are *pre-loaded* in the iteration before the one that uses them,
so the steady-state loop body is a single long instruction —

    MAC  X0,Y0,A   X:(R0)+,X0   Y:(R4)+,Y0

the multiply-accumulate reads the registers' old values while the two
parallel moves overwrite them with the next iteration's operands
(within-cycle read-before-write).  This pass reproduces that structure
mechanically for eligible counted loops:

* the loop's first-iteration loads are cloned into the preheader;
* the in-loop loads are re-addressed one step ahead using the indexed
  ``(Rn+Nn)`` addressing mode and re-ordered so they share a cycle with
  the compute that consumes the previous values (an anti-dependence,
  which the compaction pass may pack);
* the trip count drops by one and the final iteration's compute runs in
  a cloned epilogue.

Profitability is judged twice.  A trial compaction of the rotated body
must save more cycles over the loop's iterations than the epilogue
costs; then the linear scan that register allocation runs
(:func:`~repro.compiler.regalloc.spill_count`) must spill no more
registers in the rotated function than in the plain one.  The schedule
check cannot see spill code: adpcm's and V32encode's rotated loops
compact shorter but spill, and run 2.05x and 1.52x as long, so the second
check undoes them and leaves those loops plain.

Eligibility (checked conservatively):

* single-block hardware-loop body with a compile-time trip count >= 1;
* no calls and no branches in the body;
* a pipelined load's destination is written exactly once, its symbol is
  never stored in the body (no aliasing hazard), and its address
  registers are either loop-invariant or self-incremented by an
  immediate step (the post-increment idiom).

The pass is **off by default** (``CompileOptions(software_pipelining=
True)`` enables it): the paper's measured results come from the plain
compaction schedule, and the reproduction keeps that configuration;
``tests/compiler/test_pipelining.py`` holds what the optimization adds
on the paper's kernels and that no registry workload gets slower.
"""

from repro.compiler.regalloc import spill_count
from repro.ir.operations import OpCode, Operation
from repro.ir.values import Immediate, is_register


class PipelineReport:
    """What the pass did, for tests and reporting."""

    def __init__(self):
        #: (function name, loop id, number of pipelined loads)
        self.pipelined = []

    def __repr__(self):
        return "<PipelineReport loops=%d>" % len(self.pipelined)


def _find_hw_loops(function):
    """Yield (preheader_idx, body_idx) for single-block hardware loops."""
    for index, block in enumerate(function.blocks):
        if block.hw_loop is None or index == 0:
            continue
        has_end = any(
            op.opcode is OpCode.LOOP_END and op.target.name == block.hw_loop
            for op in block.ops
        )
        if has_end:
            yield index - 1, index


def _loop_begin(preheader, loop_id):
    for op in preheader.ops:
        if op.opcode is OpCode.LOOP_BEGIN and op.target.name == loop_id:
            return op
    return None


def _self_increments(body):
    """Map register -> immediate step for `AADD r, r, #imm` ops."""
    steps = {}
    writers = {}
    for op in body.ops:
        for reg in op.writes():
            writers.setdefault(reg, []).append(op)
    for reg, ops in writers.items():
        if len(ops) != 1:
            continue
        op = ops[0]
        if (
            op.opcode is OpCode.AADD
            and op.dest is reg
            and op.sources[0] is reg
            and isinstance(op.sources[1], Immediate)
        ):
            steps[reg] = op.sources[1].value
    return steps


def _clone_memory_op(op, sources):
    return Operation(
        op.opcode,
        dest=op.dest,
        sources=sources,
        symbol=op.symbol,
        bank=op.bank,
        locked=op.locked,
        shadow=op.shadow,
    )


def _clone_op(op):
    return Operation(
        op.opcode,
        dest=op.dest,
        sources=op.sources,
        symbol=op.symbol,
        target=op.target,
        callee=op.callee,
        bank=op.bank,
        locked=op.locked,
        shadow=op.shadow,
    )


def _pipeline_one(function, preheader, body, report):
    loop_id = body.hw_loop
    begin = _loop_begin(preheader, loop_id)
    if begin is None:
        return False
    count = begin.sources[0]
    if not isinstance(count, Immediate) or count.value < 1:
        return False
    if any(op.opcode is OpCode.CALL or op.is_terminator for op in body.ops):
        return False
    if any(
        op.opcode is OpCode.LOOP_BEGIN for op in body.ops
    ):
        return False

    steps = _self_increments(body)
    written = set()
    for op in body.ops:
        written.update(op.writes())
    stored_symbols = {id(op.symbol) for op in body.ops if op.is_store}
    write_counts = {}
    for op in body.ops:
        for reg in op.writes():
            write_counts[reg] = write_counts.get(reg, 0) + 1

    def advanced(op):
        index = op.index_operand()
        offset = op.offset_operand()
        if not is_register(index):
            return None
        if offset is not None and not isinstance(offset, Immediate):
            return None
        if index in steps:
            step = steps[index]
        elif index in written:
            return None  # address computed per-iteration: not rotatable
        else:
            step = 0
        ahead = step + (offset.value if offset is not None else 0)
        if ahead == 0 and step == 0 and offset is None:
            ahead_sources = (index,)
        else:
            ahead_sources = (index, Immediate(ahead))
        return ahead_sources

    candidates = []
    for op in body.ops:
        if not op.is_load:
            continue
        if op.symbol.opaque or id(op.symbol) in stored_symbols:
            continue
        if write_counts.get(op.dest, 0) != 1:
            continue
        new_sources = advanced(op)
        if new_sources is None:
            continue
        candidates.append((op, new_sources))
    if not candidates:
        return False

    chosen = {id(op) for op, _s in candidates}

    # Build the rotated body: drop the loads from their original slots
    # and re-insert the one-iteration-ahead versions just before the
    # first self-increment (so they read pre-increment indices and can
    # pack with the compute that consumes the previous values).
    remaining = [op for op in body.ops if id(op) not in chosen]
    increment_regs = set(steps)
    insert_at = len(remaining)
    for i, op in enumerate(remaining):
        if op.opcode is OpCode.LOOP_END or (
            op.opcode is OpCode.AADD and op.dest in increment_regs
        ):
            insert_at = i
            break
    ahead_loads = [
        _clone_memory_op(op, sources) for op, sources in candidates
    ]
    new_ops = remaining[:insert_at] + ahead_loads + remaining[insert_at:]

    # Profitability: the rotation must shorten the steady-state schedule
    # by enough to amortize the cloned epilogue (and the preheader loads)
    # over the loop's iterations.
    old_length = _schedule_length(body.ops)
    new_length = _schedule_length(new_ops)
    saved = (old_length - new_length) * (count.value - 1)
    overhead = old_length + 1
    if saved <= overhead:
        return False

    # The schedule check sees no spill code, so the rotation must also
    # leave linear scan spilling no more registers; otherwise it is undone.
    spills_before = spill_count(function)
    body_index = function.blocks.index(body)
    after = function.blocks[body_index + 1]
    undo = (preheader.ops[:], body.ops, after.ops[:])

    # Preheader: first-iteration loads, placed after the index/induction
    # initialization (i.e. at the end of the preheader block).
    for op, _sources in candidates:
        preheader.append(_clone_memory_op(op, op.sources))

    # Epilogue: the final iteration's compute (everything but the
    # pipelined loads and the LOOP_END marker), prepended to the block
    # following the body.
    epilogue = [
        _clone_op(op)
        for op in body.ops
        if id(op) not in chosen and op.opcode is not OpCode.LOOP_END
    ]
    after.ops[:0] = epilogue

    body.ops = new_ops

    # One fewer steady-state iteration.
    begin.sources = (Immediate(count.value - 1),)
    if spill_count(function) > spills_before:
        preheader.ops, body.ops, after.ops = undo
        begin.sources = (count,)
        return False
    report.pipelined.append((function.name, loop_id, len(candidates)))
    return True


def _schedule_length(ops):
    """Length in long instructions of a trial compaction of *ops*."""
    from repro.compiler.compaction import compact_block
    from repro.ir.block import BasicBlock

    trial = BasicBlock("__pipeline_trial__")
    trial.ops = [op for op in ops if op.opcode is not OpCode.LOOP_END]
    return len(compact_block(trial))


def pipeline_inner_loops(module):
    """Apply the transformation to every eligible loop in *module*.

    Runs after the data-allocation pass (bank tags are preserved on the
    cloned loads) and before register allocation.  Returns a
    :class:`PipelineReport`.
    """
    report = PipelineReport()
    for function in module.functions.values():
        for pre_idx, body_idx in list(_find_hw_loops(function)):
            _pipeline_one(
                function,
                function.blocks[pre_idx],
                function.blocks[body_idx],
                report,
            )
    return report
