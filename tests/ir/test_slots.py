"""Drift guard: every IR / frontend node class stays ``__slots__``-based
and ``__dict__``-free.

A single unslotted class (or a new attribute assigned outside
``__slots__``) silently reintroduces a per-instance dict and gives back
the node-memory win the front end is built on — so the guard walks the
node modules and fails on any class whose instances would carry a
``__dict__``."""

import enum

import pytest

import repro.frontend.builder
import repro.frontend.expressions
import repro.ir.block
import repro.ir.operations
import repro.ir.symbols
import repro.ir.values

NODE_MODULES = (
    repro.ir.operations,
    repro.ir.values,
    repro.ir.symbols,
    repro.ir.block,
    repro.frontend.expressions,
    repro.frontend.builder,
)


def _node_classes():
    for module in NODE_MODULES:
        for name in sorted(vars(module)):
            obj = vars(module)[name]
            if (
                isinstance(obj, type)
                and obj.__module__ == module.__name__
                # enum members are process-wide singletons, not
                # per-program nodes; exceptions are rare and transient
                and not issubclass(obj, (enum.Enum, BaseException))
            ):
                yield obj


def _qualified(cls):
    return "%s.%s" % (cls.__module__, cls.__name__)


@pytest.mark.parametrize(
    "cls", sorted(_node_classes(), key=_qualified), ids=_qualified
)
def test_node_class_defines_slots_and_has_no_dict(cls):
    assert "__slots__" in vars(cls), (
        "%s must define __slots__ (every IR/frontend node class is "
        "slotted; see docs/internals.md)" % _qualified(cls)
    )
    dictful = [
        base
        for base in cls.__mro__
        if base is not object and "__dict__" in vars(base)
    ]
    assert not dictful, (
        "%s instances would carry a __dict__ via %s — slot every class "
        "in the hierarchy" % (_qualified(cls), [_qualified(b) for b in dictful])
    )


def test_guard_covers_the_expression_hierarchy():
    covered = set(_node_classes())
    assert repro.frontend.expressions.Expr in covered
    assert repro.ir.operations.Operation in covered
    assert repro.ir.values.Immediate in covered
    assert repro.ir.block.BasicBlock in covered
