"""Structural IR validation.

The validator catches malformed programs early — before they reach the
allocation pass, scheduler, or simulator — with errors that name the
offending function, block, and operation.
"""

from repro.ir.operations import OpCode
from repro.ir.symbols import Storage
from repro.ir.types import RegClass
from repro.ir.values import Immediate, VirtualRegister, is_register


class IRValidationError(Exception):
    """Raised when a module or function violates an IR invariant."""


def _fail(where, message):
    raise IRValidationError("%s: %s" % (where, message))


class _OperationError(Exception):
    """An operation-level problem; :func:`validate_function` adds where
    it is, so the location string is only formatted on failure."""


def _op_fail(message):
    raise _OperationError(message)


def _check_register_class(op, reg, expected):
    if reg.rclass is not expected:
        _op_fail(
            "%s expects %s register, got %r" % (op.opcode.name, expected.name, reg)
        )


_ADDR_DEST_OPS = frozenset({"AADD", "ASUB", "AMUL", "AMOV", "ACONST", "MOVIA"})


def _expected_dest_class(opcode):
    name = opcode.name
    if name.startswith(("CMP", "FCMP", "ACMP")) or name in ("MOVAI", "FTOI"):
        return RegClass.INT
    if name in _ADDR_DEST_OPS:
        return RegClass.ADDR
    if name == "ITOF" or (name.startswith("F") and name != "FTOI"):
        return RegClass.FLOAT
    return RegClass.INT


_DEST_CLASS = {opcode: _expected_dest_class(opcode) for opcode in OpCode}


def validate_operation(op, function, module):
    """Check one operation; its problems raise an error that
    :func:`validate_function` turns into a located
    :class:`IRValidationError`."""
    if op.opcode is OpCode.LOAD or op.opcode is OpCode.STORE:
        if op.symbol is None:
            _op_fail("memory operation without a symbol")
        expected_min = 1 if op.opcode is OpCode.LOAD else 2
        if not expected_min <= len(op.sources) <= expected_min + 1:
            _op_fail(
                "%s takes %d or %d sources, got %d"
                % (op.opcode.name, expected_min, expected_min + 1, len(op.sources)),
            )
        for operand in (op.index_operand(), op.offset_operand()):
            if operand is None:
                continue
            if is_register(operand):
                _check_register_class(op, operand, RegClass.ADDR)
            elif not isinstance(operand, Immediate):
                _op_fail("address operand must be register or immediate")
        index = op.index_operand()
        sym = op.symbol
        if sym.storage is Storage.PARAM:
            _op_fail("memory operation on PARAM symbol %r" % sym.name)
        if sym.storage is Storage.LOCAL and sym.function != function.name:
            _op_fail(
                "local symbol %r of %r accessed from %r"
                % (sym.name, sym.function, function.name),
            )
        if sym.storage is Storage.GLOBAL and sym.name not in module.globals:
            _op_fail("unknown global %r" % sym.name)
        offset = op.offset_operand()
        if (
            isinstance(index, Immediate)
            and (offset is None or isinstance(offset, Immediate))
        ):
            total = index.value + (offset.value if offset is not None else 0)
            if not 0 <= total < sym.size:
                _op_fail(
                    "constant index %d out of bounds for %s[%d]"
                    % (total, sym.name, sym.size),
                )
    elif op.opcode is OpCode.CALL:
        if op.callee not in module.functions:
            _op_fail("call to unknown function %r" % op.callee)
        callee = module.functions[op.callee]
        if len(op.sources) != len(callee.params):
            _op_fail(
                "call to %s passes %d args, expected %d"
                % (op.callee, len(op.sources), len(callee.params)),
            )
    elif op.opcode in (OpCode.BR, OpCode.BRT, OpCode.BRF):
        if op.target is None:
            _op_fail("branch without target")
    if op.dest is not None:
        if not isinstance(op.dest, VirtualRegister):
            _op_fail("destination must be a virtual register")
        if not op.is_load and op.opcode is not OpCode.CALL:
            _check_register_class(op, op.dest, _DEST_CLASS[op.opcode])


def validate_function(function, module):
    """Check one function; raises :class:`IRValidationError` on problems."""
    if not function.blocks:
        _fail(function.name, "function has no blocks")
    labels = set()
    for block in function.blocks:
        if block.label in labels:
            _fail(function.name, "duplicate block label %r" % block.label)
        labels.add(block.label)
    for block in function.blocks:
        last = len(block.ops) - 1
        for i, op in enumerate(block.ops):
            try:
                if op.is_terminator and i != last:
                    _op_fail("terminator %s not last in block" % op.opcode.name)
                validate_operation(op, function, module)
            except _OperationError as error:
                raise IRValidationError(
                    "%s/%s/#%d: %s" % (function.name, block.label, i, error)
                ) from None
        for label in block.successor_labels():
            if label not in labels:
                _fail(block.label, "branch to unknown label %r" % label)
    last = function.blocks[-1]
    if last.falls_through() and function.name != "main":
        _fail(function.name, "final block %r falls off the function" % last.label)


def validate_module(module):
    """Check a whole program; raises :class:`IRValidationError` on problems."""
    if "main" not in module.functions:
        _fail(module.name, "module has no main function")
    for function in module.functions.values():
        validate_function(function, module)
    main_last = module.main.blocks[-1]
    term = main_last.terminator
    if term is None or term.opcode is not OpCode.HALT:
        _fail(module.name, "main must end with HALT")
    from repro.analysis.callgraph import build_callgraph, find_recursion

    cycle = find_recursion(build_callgraph(module))
    if cycle:
        _fail(module.name, "recursive call chain: %s" % " -> ".join(cycle))
