"""Human-readable textual dumps of the IR, for debugging and golden tests."""

from repro.ir.operations import OpCode


def _address(op):
    """Render a memory operation's address: ``base`` or ``base+offset``."""
    text = repr(op.index_operand())
    offset = op.offset_operand()
    if offset is not None:
        text += "+%r" % (offset,)
    return text


def format_operation(op):
    """Render one operation, e.g. ``fmac f3, f1, f2`` or ``load f1, A[a0]``."""
    name = op.opcode.value
    if op.opcode is OpCode.LOAD:
        text = "%s %r, %s[%s]" % (name, op.dest, op.symbol.name, _address(op))
    elif op.opcode is OpCode.STORE:
        text = "%s %s[%s], %r" % (name, op.symbol.name, _address(op), op.sources[0])
        if op.locked:
            text += " !lock"
        if op.shadow:
            text += " !shadow"
    elif op.opcode is OpCode.CALL:
        args = ", ".join(repr(s) for s in op.sources)
        text = "call %s(%s)" % (op.callee, args)
        if op.dest is not None:
            text = "%r = %s" % (op.dest, text)
    elif op.opcode is OpCode.RET:
        text = "ret" + ("" if not op.sources else " %r" % (op.sources[0],))
    elif op.is_control or op.opcode in (OpCode.LOOP_END, OpCode.NOP):
        parts = [name]
        if op.sources:
            parts.append(", ".join(repr(s) for s in op.sources))
        if op.target is not None:
            parts.append(repr(op.target))
        text = " ".join(parts)
    else:
        operands = [repr(op.dest)] if op.dest is not None else []
        operands.extend(repr(s) for s in op.sources)
        text = "%s %s" % (name, ", ".join(operands))
    if op.is_memory and op.bank is not None:
        text += "  ;bank=%s" % op.bank.value
    return text


def format_block(block):
    lines = ["%s:  ; depth=%d" % (block.label, block.loop_depth)]
    for op in block.ops:
        lines.append("    " + format_operation(op))
    return "\n".join(lines)


def format_function(function):
    params = ", ".join(s.name for s in function.params)
    lines = ["func %s(%s) {" % (function.name, params)]
    for sym in function.local_symbols():
        lines.append("    local %s[%d]" % (sym.name, sym.size))
    for block in function.blocks:
        lines.append(format_block(block))
    lines.append("}")
    return "\n".join(lines)


def format_module(module):
    lines = ["module %s" % module.name]
    for sym in module.globals:
        bank = sym.bank.value if sym.bank is not None else "?"
        lines.append("global %s[%d] : bank %s" % (sym.name, sym.size, bank))
    for func in module.functions.values():
        lines.append(format_function(func))
    return "\n".join(lines)
