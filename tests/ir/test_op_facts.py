"""Op facts held on the operation.

:class:`Operation` resolves its opcode's ``unit``, ``is_memory`` and
``is_terminator`` once, at construction, instead of looking them up on
every access.  These tests pin the resolved facts to the opcode table
for every opcode, check that they survive pickling (compiled programs
travel through the artifact store and worker processes as pickles), and
check that the table's :class:`OpInfo` — whose evaluators are lambdas —
never rides along in a pickled program.
"""

import pickle

import pytest

from repro.compiler.pipeline import CompileOptions
from repro.evaluation.runner import compile_workload
from repro.ir.operations import (
    _OP_TABLE,
    TERMINATORS,
    OpCode,
    OpInfo,
    OpKind,
    Operation,
)
from repro.ir.symbols import Symbol
from repro.ir.types import RegClass
from repro.ir.values import Immediate, VirtualRegister
from repro.partition.strategies import Strategy
from repro.workloads.registry import get_workload


def _operation(opcode):
    """A constructible operation of *opcode* (operands are placeholders)."""
    info = _OP_TABLE[opcode]
    dest = VirtualRegister(0, RegClass.INT) if info.has_dest else None
    if opcode is OpCode.LOAD:
        sources = (Immediate(0),)
    elif opcode is OpCode.STORE:
        sources = (Immediate(0), Immediate(1))
    else:
        sources = (Immediate(0),) * max(info.sources, 0)
    symbol = Symbol("a", size=4) if opcode in (OpCode.LOAD, OpCode.STORE) else None
    return Operation(opcode, dest=dest, sources=sources, symbol=symbol)


def _facts(op):
    return op.unit, op.is_memory, op.is_terminator


def _table_facts(opcode):
    info = _OP_TABLE[opcode]
    return (
        info.unit,
        info.kind in (OpKind.LOAD, OpKind.STORE),
        opcode in TERMINATORS,
    )


@pytest.mark.parametrize("opcode", list(OpCode), ids=lambda o: o.name)
def test_op_facts_match_the_table(opcode):
    op = _operation(opcode)
    assert _facts(op) == _table_facts(opcode)


@pytest.mark.parametrize("opcode", list(OpCode), ids=lambda o: o.name)
def test_op_facts_survive_pickling(opcode):
    op = pickle.loads(pickle.dumps(_operation(opcode)))
    assert _facts(op) == _table_facts(opcode)
    # enum members unpickle to the same singletons, so identity holds
    assert op.opcode is opcode and op.unit is _OP_TABLE[opcode].unit


class _TypeSpy(pickle.Pickler):
    """Pickler recording the type of every object it reduces."""

    def __init__(self, file):
        super().__init__(file, protocol=pickle.HIGHEST_PROTOCOL)
        self.types = set()

    def reducer_override(self, obj):
        self.types.add(type(obj))
        return NotImplemented


def test_pickled_program_holds_no_opinfo(tmp_path):
    compiled = compile_workload(
        get_workload("fir_32_1"), CompileOptions(strategy=Strategy.CB_DUP)
    )
    with open(tmp_path / "program.pickle", "wb") as handle:
        spy = _TypeSpy(handle)
        spy.dump(compiled)
    assert Operation in spy.types
    assert OpInfo not in spy.types
