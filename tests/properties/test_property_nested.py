"""Differential property test over nested-loop programs.

Exercises the interactions most likely to hide bugs: induction-variable
reduction under nesting, hardware loops with runtime trip counts,
while loops, software pipelining, and the optimizer — all strategies
and option combinations must agree with the single-bank baseline.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.compiler import CompileOptions, compile_module
from repro.frontend import ProgramBuilder
from repro.partition.strategies import Strategy
from repro.sim.simulator import Simulator


@st.composite
def nested_recipes(draw):
    return {
        "outer": draw(st.integers(1, 4)),
        "inner": draw(st.integers(1, 5)),
        "offset": draw(st.integers(0, 3)),
        "use_while": draw(st.booleans()),
        "conditional": draw(st.booleans()),
        "runtime_count": draw(st.booleans()),
    }


def _build(recipe):
    pb = ProgramBuilder("nested")
    size = 16
    a = pb.global_array("a", size, float, init=[float(i % 5) for i in range(size)])
    b = pb.global_array("b", size, float, init=[float(i % 3) for i in range(size)])
    counts = pb.global_array("counts", 4, int, init=[recipe["inner"]] * 4)
    out = pb.global_scalar("out", float)
    with pb.function("main") as f:
        acc = f.float_var("acc")
        f.assign(acc, 0.0)
        with f.loop(recipe["outer"], name="o") as o:
            if recipe["runtime_count"]:
                limit = f.index_var("limit")
                f.assign(limit, counts[0])
            else:
                limit = recipe["inner"]
            with f.loop(limit, name="i") as i:
                # same-array offset access + cross-array access, both
                # with induction-reducible indices
                f.assign(acc, acc + a[i + recipe["offset"]] * b[i])
                f.assign(acc, acc + a[i] * a[i + 1])
            if recipe["conditional"]:
                with f.if_(acc > 3.0):
                    f.assign(acc, acc - 1.0)
                with f.else_():
                    f.assign(acc, acc + 0.5)
        if recipe["use_while"]:
            n = f.int_var("n")
            f.assign(n, 3)
            with f.while_(lambda: n > 0):
                f.assign(acc, acc * 1.5)
                f.assign(n, n - 1)
        f.assign(out[0], acc)
    return pb.build()


def _run(recipe, strategy, software_pipelining=False):
    compiled = compile_module(
        _build(recipe),
        CompileOptions(
            strategy=strategy,
            profile_counts={} if strategy.needs_profile else None,
            software_pipelining=software_pipelining,
        ),
    )
    simulator = Simulator(compiled.program)
    result = simulator.run()
    return simulator.read_global("out"), result.cycles


@given(nested_recipes())
@settings(max_examples=30, deadline=None)
def test_nested_programs_agree_across_strategies(recipe):
    reference, base_cycles = _run(recipe, Strategy.SINGLE_BANK)
    for strategy in (
        Strategy.CB,
        Strategy.CB_DUP,
        Strategy.CB_DUP_SELECTIVE,
        Strategy.ALTERNATING,
        Strategy.IDEAL,
    ):
        value, cycles = _run(recipe, strategy)
        assert value == reference, strategy
    cb_value, cb_cycles = _run(recipe, Strategy.CB)
    assert cb_cycles <= base_cycles


@given(nested_recipes())
@settings(max_examples=20, deadline=None)
def test_optional_passes_preserve_semantics(recipe):
    reference, plain_cycles = _run(recipe, Strategy.CB)
    piped, piped_cycles = _run(recipe, Strategy.CB, software_pipelining=True)
    assert piped == reference
    assert piped_cycles <= plain_cycles
