"""Virtual-register liveness, feeding linear-scan register allocation.

Liveness is computed with the standard backward data-flow iteration over
the function's control-flow graph (layout fallthrough plus branch edges;
hardware-loop back-edges are included so loop-carried registers stay live
across the whole loop body).
"""

from repro.ir.operations import OpCode


class LivenessInfo:
    """Per-block live-in/live-out sets and per-register live intervals."""

    def __init__(self, live_in, live_out, intervals, positions):
        #: block label -> frozenset of registers live at block entry
        self.live_in = live_in
        #: block label -> frozenset of registers live at block exit
        self.live_out = live_out
        #: register -> (start_position, end_position) in linearized order
        self.intervals = intervals
        #: operation id -> linear position
        self.positions = positions


def _successor_labels(function, index):
    """CFG successors of block *index*, including hardware-loop back-edges."""
    block = function.blocks[index]
    labels = list(block.successor_labels())
    if block.falls_through() and index + 1 < len(function.blocks):
        labels.append(function.blocks[index + 1].label)
    if block.hw_loop is not None:
        # The loop body may re-execute: every block of the same hardware
        # loop is a potential successor via the zero-overhead back-edge.
        for other in function.blocks:
            if other.hw_loop == block.hw_loop:
                labels.append(other.label)
    return labels


def _hw_loop_spans(function):
    """Map hardware-loop id -> list of block indices forming its body.

    A hardware loop's body is the contiguous layout span from its first
    marked block through the block containing its ``LOOP_END`` marker.
    """
    spans = {}
    current_end = {}
    for index, block in enumerate(function.blocks):
        if block.hw_loop is not None:
            spans.setdefault(block.hw_loop, []).append(index)
        for op in block.ops:
            if op.opcode is OpCode.LOOP_END:
                current_end[op.target.name] = index
    for loop_id, end_index in current_end.items():
        body = spans.setdefault(loop_id, [])
        start = body[0] if body else end_index
        spans[loop_id] = list(range(start, end_index + 1))
    return spans


def compute_liveness(function):
    """Compute :class:`LivenessInfo` for *function*."""
    blocks = function.blocks
    spans = _hw_loop_spans(function)
    index_of = {block.label: i for i, block in enumerate(blocks)}

    # use/def per block
    uses = {}
    defs = {}
    for block in blocks:
        use_set = set()
        def_set = set()
        for op in block.ops:
            for reg in op.reads():
                if reg not in def_set:
                    use_set.add(reg)
            if op.dest is not None:
                def_set.add(op.dest)
        uses[block.label] = use_set
        defs[block.label] = def_set

    successors = {}
    for i, block in enumerate(blocks):
        labels = set(_successor_labels(function, i))
        for loop_id, span in spans.items():
            if i == span[-1]:
                # Back-edge from the loop end to the loop start block.
                labels.add(blocks[span[0]].label)
        successors[block.label] = [l for l in labels if l in index_of]

    live_in = {block.label: set() for block in blocks}
    live_out = {block.label: set() for block in blocks}
    changed = True
    while changed:
        changed = False
        for block in reversed(blocks):
            out = set()
            for succ in successors[block.label]:
                out |= live_in[succ]
            new_in = uses[block.label] | (out - defs[block.label])
            if out != live_out[block.label] or new_in != live_in[block.label]:
                live_out[block.label] = out
                live_in[block.label] = new_in
                changed = True

    # Linearize for interval construction.
    positions = {}
    pos = 0
    block_range = {}
    for block in blocks:
        start = pos
        for op in block.ops:
            positions[id(op)] = pos
            pos += 1
        block_range[block.label] = (start, max(start, pos - 1))

    # Blocks and their operations are visited in linear order, each
    # block's live-in registers at its first position and its live-out
    # registers at its last, so positions never decrease: a register's
    # first position is its interval start and its last the end.
    lo = {}
    hi = {}
    for block in blocks:
        start, end = block_range[block.label]
        for reg in live_in[block.label]:
            if reg not in lo:
                lo[reg] = start
            hi[reg] = start
        for position, op in enumerate(block.ops, start):
            for reg in op.reads():
                if reg not in lo:
                    lo[reg] = position
                hi[reg] = position
            dest = op.dest
            if dest is not None:
                if dest not in lo:
                    lo[dest] = position
                hi[dest] = position
        for reg in live_out[block.label]:
            if reg not in lo:
                lo[reg] = end
            hi[reg] = end

    # Registers live around a hardware loop must survive the whole span.
    for span in spans.values():
        if not span:
            continue
        span_start = block_range[blocks[span[0]].label][0]
        span_end = block_range[blocks[span[-1]].label][1]
        loop_blocks = {blocks[i].label for i in span}
        for label in loop_blocks:
            for reg in live_in[label] | live_out[label]:
                if span_start < lo[reg]:
                    lo[reg] = span_start
                if span_end > hi[reg]:
                    hi[reg] = span_end

    intervals = {reg: (start, hi[reg]) for reg, start in lo.items()}

    return LivenessInfo(
        {k: frozenset(v) for k, v in live_in.items()},
        {k: frozenset(v) for k, v in live_out.items()},
        intervals,
        positions,
    )
