"""Property test: live intervals equal a naive per-position reference.

:func:`repro.analysis.liveness.compute_liveness` builds each register's
interval in one linear pass, relying on positions never decreasing as
blocks are walked in layout order.  The reference kept here widens an
interval at every position a register is live-in, live-out, read or
written, with no ordering assumption, then stretches registers live
around a hardware loop over the loop's span.  On fuzz-generated
programs the two must agree exactly, both on the IR as built and on
every function as the register allocator sees it.
"""

from unittest import mock

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis import liveness
from repro.compiler import compile_module, regalloc
from repro.fuzz.generator import build_module, generate_recipe
from repro.partition.strategies import Strategy


def _reference_intervals(function, info):
    blocks = function.blocks
    intervals = {}

    def extend(reg, position):
        lo, hi = intervals.get(reg, (position, position))
        intervals[reg] = (min(lo, position), max(hi, position))

    block_range = {}
    pos = 0
    for block in blocks:
        block_range[block.label] = (pos, max(pos, pos + len(block.ops) - 1))
        pos += len(block.ops)

    for block in blocks:
        start, end = block_range[block.label]
        for reg in info.live_in[block.label]:
            extend(reg, start)
        for reg in info.live_out[block.label]:
            extend(reg, end)
        for op in block.ops:
            position = info.positions[id(op)]
            for reg in op.reads():
                extend(reg, position)
            for reg in op.writes():
                extend(reg, position)

    for span in liveness._hw_loop_spans(function).values():
        if not span:
            continue
        span_start = block_range[blocks[span[0]].label][0]
        span_end = block_range[blocks[span[-1]].label][1]
        for index in span:
            label = blocks[index].label
            for reg in info.live_in[label] | info.live_out[label]:
                extend(reg, span_start)
                extend(reg, span_end)
    return intervals


def _checked_liveness(function, checked=None):
    info = liveness.compute_liveness(function)
    assert info.intervals == _reference_intervals(function, info)
    if checked is not None:
        checked.append(function.name)
    return info


@given(
    seed=st.integers(0, 2**32 - 1),
    max_statements=st.integers(1, 8),
)
@settings(max_examples=30, deadline=None)
def test_intervals_match_reference(seed, max_statements):
    recipe = generate_recipe(seed, max_statements=max_statements)
    for function in build_module(recipe).functions.values():
        _checked_liveness(function)
    # the same check on every function as the allocator sees it: after
    # partitioning and ABI moves, with its hardware loops in place
    module = build_module(recipe)
    functions = len(module.functions)
    checked = []
    with mock.patch.object(
        regalloc,
        "compute_liveness",
        lambda function: _checked_liveness(function, checked),
    ):
        compile_module(module, strategy=Strategy.CB_DUP)
    assert len(checked) == functions
