"""Inner-loop unrolling.

Counted hardware loops with a compile-time trip count divisible by the
unroll factor get their body replicated: the replicas keep sequential
semantics (each copy sees the index registers after the previous copy's
increments), so no register renaming is needed — the compaction pass
then overlaps the copies wherever dependences allow, which raises
memory-level parallelism across iterations without software pipelining's
prologue/epilogue restructuring.

Opt-in via ``CompileOptions(unroll_factor=k)``; its speedup and its
composition with software pipelining are checked in
``tests/compiler/test_unroll.py``.
"""

from repro.ir.operations import OpCode, Operation
from repro.ir.values import Immediate


class UnrollReport:
    def __init__(self):
        #: (function name, loop id, factor)
        self.unrolled = []

    def __repr__(self):
        return "<UnrollReport loops=%d>" % len(self.unrolled)


def _clone(op):
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


def _loop_begin(preheader, loop_id):
    for op in preheader.ops:
        if op.opcode is OpCode.LOOP_BEGIN and op.target.name == loop_id:
            return op
    return None


def _unroll_one(preheader, body, factor, report, function_name):
    loop_id = body.hw_loop
    begin = _loop_begin(preheader, loop_id)
    if begin is None:
        return False
    count = begin.sources[0]
    if not isinstance(count, Immediate):
        return False
    if count.value < factor or count.value % factor != 0:
        return False
    if any(
        op.opcode in (OpCode.CALL, OpCode.LOOP_BEGIN) or op.is_terminator
        for op in body.ops
    ):
        return False

    kernel = [op for op in body.ops if op.opcode is not OpCode.LOOP_END]
    marker = [op for op in body.ops if op.opcode is OpCode.LOOP_END]
    new_ops = list(kernel)
    for _ in range(factor - 1):
        new_ops.extend(_clone(op) for op in kernel)
    new_ops.extend(marker)
    body.ops = new_ops
    begin.sources = (Immediate(count.value // factor),)
    report.unrolled.append((function_name, loop_id, factor))
    return True


def unroll_inner_loops(module, factor):
    """Unroll every eligible single-block hardware loop by *factor*."""
    report = UnrollReport()
    if factor <= 1:
        return report
    for function in module.functions.values():
        for index, block in enumerate(function.blocks):
            if block.hw_loop is None or index == 0:
                continue
            has_end = any(
                op.opcode is OpCode.LOOP_END
                and op.target.name == block.hw_loop
                for op in block.ops
            )
            if not has_end:
                continue
            _unroll_one(
                function.blocks[index - 1],
                block,
                factor,
                report,
                function.name,
            )
    return report
