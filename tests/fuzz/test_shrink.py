"""Shrinker convergence: an injected semantics bug must reduce to a
minimal recipe, and the emitted regression must be runnable.

The injected bug flips the comparison inside ``cond`` statements — a
realistic "compiler miscompiles one construct" defect.  The failure
predicate is a lightweight differential oracle (correct build vs buggy
build, both run through the sequential IR walker), so hundreds of
shrink probes cost milliseconds, not compiles.
"""

import pytest

from repro.fuzz import generator
from repro.fuzz.generator import (
    Recipe,
    build_module,
    generate_recipe,
    statement_count,
)
from repro.fuzz.shrink import emit_regression, recipe_tag, shrink_recipe
from repro.ir.interp import IRInterpreter


def _flipped_cond(stmt, context):
    _kind, a, threshold, trips = stmt[:4]
    array = context.array(a)
    f, acc = context.f, context.acc
    with f.loop(generator._trips(trips, len(array))) as i:
        element = f.float_var()
        f.assign(element, array[i])
        with f.if_(element < float(threshold) * 0.5):  # BUG: < instead of >
            f.assign(acc, acc + element)
        with f.else_():
            f.assign(acc, acc - 1.0)


def _buggy_build(recipe):
    correct = generator._EMITTERS["cond"]
    generator._EMITTERS["cond"] = _flipped_cond
    try:
        return build_module(recipe)
    finally:
        generator._EMITTERS["cond"] = correct


def _final_globals(module):
    interpreter = IRInterpreter(module)
    interpreter.run()
    state = {}
    for symbol in module.globals:
        value = interpreter.read_global(symbol.name)
        state[symbol.name] = tuple(value) if isinstance(value, list) else value
    return state


def _is_failing(recipe):
    return _final_globals(build_module(recipe)) != _final_globals(
        _buggy_build(recipe)
    )


def _failing_recipe():
    for seed in range(300):
        recipe = generate_recipe(seed)
        if _is_failing(recipe):
            return recipe
    raise AssertionError("no seed under 300 reaches a cond statement")


def test_shrinker_converges_on_injected_bug():
    recipe = _failing_recipe()
    shrunk = shrink_recipe(recipe, _is_failing)
    assert _is_failing(shrunk)
    assert statement_count(shrunk) <= 5
    assert statement_count(shrunk) <= statement_count(recipe)
    # The minimal reproducer keeps only what the bug needs: a single
    # cond statement, no helpers, no interrupt hook.
    assert [stmt[0] for stmt in shrunk.body] == ["cond"]
    assert shrunk.helpers == []
    assert shrunk.interrupt_period is None


def test_shrunk_regression_is_runnable():
    recipe = _failing_recipe()
    shrunk = shrink_recipe(recipe, _is_failing)
    source = emit_regression(shrunk, origin="injected cond bug")
    namespace = {}
    exec(compile(source, "<regression>", "exec"), namespace)
    tests = [
        value
        for name, value in namespace.items()
        if name.startswith("test_fuzz_regression_")
    ]
    assert len(tests) == 1
    tests[0]()  # the real pipeline has no such bug: the replay passes
    embedded = Recipe.from_json(namespace["RECIPE_JSON"])
    assert embedded == shrunk


def test_shrinker_requires_a_failing_start():
    passing = Recipe(None, [4], [["scalar", 0, 1]])
    with pytest.raises(ValueError):
        shrink_recipe(passing, _is_failing)


def test_shrinker_drops_unreferenced_structure():
    """Helpers, extra arrays, the interrupt hook, and wrapper loops all
    disappear when the failure does not need them."""
    bloated = Recipe(
        None,
        [8, 8, 8],
        [
            ["loop", 3, [["cond", 0, 2, 4]]],
            ["call", 0, 3],
            ["dot", 1, 2, 5],
        ],
        helpers=[[["scalar", 0, 2]]],
        interrupt_period=5,
    )
    assert _is_failing(bloated)
    shrunk = shrink_recipe(bloated, _is_failing)
    assert statement_count(shrunk) == 1
    assert shrunk.body[0][0] == "cond"
    assert shrunk.helpers == []
    assert shrunk.interrupt_period is None
    assert len(shrunk.arrays) == 1


def test_integer_fields_shrink_toward_one():
    recipe = Recipe(None, [8], [["cond", 0, 6, 6]])
    assert _is_failing(recipe)
    shrunk = shrink_recipe(recipe, _is_failing)
    kind, _array, threshold, trips = shrunk.body[0]
    assert kind == "cond"
    assert trips <= 2
    assert threshold <= 1


def test_recipe_tag_is_stable_and_short():
    recipe = generate_recipe(5)
    assert recipe_tag(recipe) == recipe_tag(Recipe.from_json(recipe.to_json()))
    assert len(recipe_tag(recipe)) == 10
