"""Property-based tests for compaction: every schedule must be legal."""

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.analysis.dependence import DepKind, build_dependence_graph
from repro.compiler.compaction import compact_block
from repro.ir.block import BasicBlock
from repro.ir.operations import OpCode, Operation
from repro.ir.symbols import MemoryBank, Symbol
from repro.ir.types import RegClass
from repro.ir.values import Immediate, VirtualRegister
from repro.machine.resources import bank_for_unit, units_for_class

_SYMBOLS = [Symbol("m%d" % i, size=8) for i in range(3)]
for _i, _s in enumerate(_SYMBOLS):
    _s.bank = MemoryBank.X if _i % 2 == 0 else MemoryBank.Y


@st.composite
def random_blocks(draw):
    """Random straight-line blocks over small register/symbol pools."""
    float_regs = [VirtualRegister(i, RegClass.FLOAT) for i in range(4)]
    int_regs = [VirtualRegister(10 + i, RegClass.INT) for i in range(4)]
    addr_regs = [VirtualRegister(20 + i, RegClass.ADDR) for i in range(2)]
    ops = []
    n = draw(st.integers(min_value=1, max_value=14))
    for _ in range(n):
        kind = draw(st.integers(min_value=0, max_value=5))
        if kind == 0:  # float arithmetic
            dest = draw(st.sampled_from(float_regs))
            a = draw(st.sampled_from(float_regs))
            b = draw(st.sampled_from(float_regs))
            opcode = draw(st.sampled_from([OpCode.FADD, OpCode.FMUL, OpCode.FMAC]))
            ops.append(Operation(opcode, dest=dest, sources=(a, b)))
        elif kind == 1:  # int arithmetic
            dest = draw(st.sampled_from(int_regs))
            a = draw(st.sampled_from(int_regs))
            b = draw(st.sampled_from(int_regs))
            opcode = draw(st.sampled_from([OpCode.ADD, OpCode.XOR, OpCode.MIN]))
            ops.append(Operation(opcode, dest=dest, sources=(a, b)))
        elif kind == 2:  # address arithmetic
            dest = draw(st.sampled_from(addr_regs))
            a = draw(st.sampled_from(addr_regs))
            ops.append(
                Operation(
                    OpCode.AADD,
                    dest=dest,
                    sources=(a, Immediate(draw(st.integers(0, 3)))),
                )
            )
        elif kind == 3:  # load
            sym = draw(st.sampled_from(_SYMBOLS))
            dest = draw(st.sampled_from(float_regs))
            index = Immediate(draw(st.integers(0, 7)))
            ops.append(
                Operation(
                    OpCode.LOAD, dest=dest, sources=(index,), symbol=sym,
                    bank=sym.bank,
                )
            )
        elif kind == 4:  # store
            sym = draw(st.sampled_from(_SYMBOLS))
            value = draw(st.sampled_from(float_regs))
            index = Immediate(draw(st.integers(0, 7)))
            ops.append(
                Operation(
                    OpCode.STORE, sources=(value, index), symbol=sym,
                    bank=sym.bank,
                )
            )
        else:  # constant
            dest = draw(st.sampled_from(float_regs))
            ops.append(
                Operation(
                    OpCode.FCONST,
                    dest=dest,
                    sources=(Immediate(float(draw(st.integers(0, 9)))),),
                )
            )
    block = BasicBlock("prop")
    block.ops = ops
    return block


def _instruction_of(instructions):
    """Map id(op) -> instruction index."""
    placed = {}
    for idx, instruction in enumerate(instructions):
        for _unit, op in instruction:
            assert id(op) not in placed, "op placed twice"
            placed[id(op)] = idx
    return placed


@given(random_blocks(), st.booleans())
@settings(max_examples=150, deadline=None)
def test_schedule_is_complete_and_legal(block, dual_ported):
    original_ops = list(block.ops)
    graph = build_dependence_graph(original_ops)
    instructions = compact_block(block, dual_ported=dual_ported)
    placed = _instruction_of(instructions)

    # 1. Completeness: every operation appears exactly once.
    assert len(placed) == len(original_ops)

    # 2. Unit legality: each op sits on a unit of its class, and memory
    #    ops sit on the unit wired to their bank (unless dual-ported).
    for instruction in instructions:
        for unit, op in instruction:
            assert unit in units_for_class(op.unit)
            if op.is_memory and not dual_ported:
                assert op.bank is bank_for_unit(unit)

    # 3. Dependence legality: flow/output edges strictly ordered; anti
    #    edges never inverted.
    for src in range(len(original_ops)):
        for dst, kinds in graph.succs[src].items():
            a = placed[id(original_ops[src])]
            b = placed[id(original_ops[dst])]
            if DepKind.FLOW in kinds or DepKind.OUTPUT in kinds:
                assert a < b, (src, dst, kinds)
            else:
                assert a <= b, (src, dst, kinds)


def _ideal_anomaly_block():
    """Six ops that list-schedule into 2 instructions banked but 3
    dual-ported: with both memory units free, the greedy scheduler packs
    the two X-bank stores of ``f0`` together, which delays the Y-bank
    load feeding the ``fadd`` that overwrites ``f0`` (a Graham anomaly)."""
    f0, f1 = (VirtualRegister(i, RegClass.FLOAT) for i in range(2))
    r10, r11, r12 = (VirtualRegister(i, RegClass.INT) for i in (10, 11, 12))
    m0, m1 = _SYMBOLS[0], _SYMBOLS[1]  # X bank, Y bank
    block = BasicBlock("anomaly")
    block.ops = [
        Operation(OpCode.STORE, sources=(f0, Immediate(0)), symbol=m0,
                  bank=m0.bank),
        Operation(OpCode.STORE, sources=(f0, Immediate(1)), symbol=m0,
                  bank=m0.bank),
        Operation(OpCode.LOAD, dest=f1, sources=(Immediate(0),), symbol=m1,
                  bank=m1.bank),
        Operation(OpCode.FADD, dest=f0, sources=(f1, f1)),
        Operation(OpCode.ADD, dest=r10, sources=(r11, r12)),
        Operation(OpCode.ADD, dest=r10, sources=(r11, r12)),
    ]
    return block


@given(random_blocks())
@example(_ideal_anomaly_block())
@settings(max_examples=100, deadline=None)
def test_dual_ported_never_slower(block):
    ops = list(block.ops)
    block_a = BasicBlock("a")
    block_a.ops = list(ops)
    block_b = BasicBlock("b")
    block_b.ops = list(ops)
    banked = compact_block(block_a, dual_ported=False)
    ported = compact_block(block_b, dual_ported=True)
    assert len(ported) <= len(banked)
