"""Regressions for the per-program codegen cache key and the
process-wide code memo.

The compiled backends store generated code in a cache that lives on
the shared program object, so two simulators over the same program can
skip source generation.  The code objects themselves come from a
bounded memo keyed by source text, so programs that generate the same
source share one code object.  The cache key must therefore capture everything
that changes the *generated source*: backend class and ``max_cycles``
(baked into the jit's cycle clamps); bounds checks are always emitted.
A simulator must also never reuse closures bound to another instance's
interrupt hook (fault plans and injectors are stateful), no matter what
a previous run cached on the program.  Code is generated only for the
pcs a run dispatches, and a stepped-loop step at a pc is the same cache
entry as a one-instruction superblock there.
"""

import types

import pytest

from repro.compiler import compile_module
from repro.frontend import ProgramBuilder
from repro.ir.values import Immediate, Label
from repro.partition.strategies import Strategy
from repro.serve.store import ArtifactStore
from repro.sim import codegen_stats, fastsim, make_simulator
from repro.sim.interrupts import InterruptInjector
from repro.sim.simulator import SimulationError, Simulator
from repro.workloads.registry import get_workload


def _oob_module():
    """Indexes one element past `data`; `after` directly follows it, so
    only the bounds check stops the read landing in another symbol."""
    pb = ProgramBuilder("t")
    data = pb.global_array("data", 4, float, init=[0.0] * 4, opaque=True)
    pb.global_array("after", 4, float, init=[7.0] * 4, opaque=True)
    out = pb.global_scalar("out", float)
    with pb.function("main") as f:
        i = f.index_var("i")
        f.assign(i, 4)
        f.assign(out[0], data[i])
    return pb.build()


@pytest.mark.parametrize("backend", ["interp", "jit", "batch"])
def test_bounds_checks_cannot_be_disabled(backend):
    """Bounds checks are not a simulator option: every backend faults
    on the out-of-bounds read and rejects a ``check_bounds`` keyword."""
    compiled = compile_module(_oob_module(), strategy=Strategy.SINGLE_BANK)
    with pytest.raises(SimulationError, match="out of bounds"):
        make_simulator(compiled.program, backend=backend).run()
    with pytest.raises(TypeError):
        make_simulator(compiled.program, backend=backend, check_bounds=False)


def _hooked_module():
    pb = ProgramBuilder("t")
    data = pb.global_array("data", 16, float, init=[0.5] * 16)
    out = pb.global_array("out", 4, float)
    with pb.function("main") as f:
        with f.loop(4, name="m") as m:
            acc = f.float_var("acc")
            f.assign(acc, 0.0)
            with f.loop(12, name="n") as n:
                f.assign(acc, acc + data[n] * data[n + m])
            f.assign(out[m], acc)
    return pb.build()


def test_cached_program_rerun_under_different_cadence():
    """Re-running a cached program under a different hook period — or
    the same period with a *different* hook object — must deliver by
    the new hook, matching the reference interpreter's delivery count
    exactly."""
    module = _hooked_module()
    compiled = compile_module(module, strategy=Strategy.CB)
    for period in (3, 7, 3):  # a fresh hook per run, as fault runs install
        reference = InterruptInjector(module, period=period)
        Simulator(compiled.program, interrupt_hook=reference).run()
        injector = InterruptInjector(module, period=period)
        sim = make_simulator(
            compiled.program, backend="jit", interrupt_hook=injector
        )
        sim.run()
        assert injector.delivered == reference.delivered
        assert injector.delivered > 0


def test_max_cycles_keys_the_shared_cache():
    """Distinct ``max_cycles`` budgets coexist in one program's cache
    without evicting or colliding with each other."""
    module = _hooked_module()
    compiled = compile_module(module, strategy=Strategy.CB)
    expected = Simulator(compiled.program).run().cycles
    for max_cycles in (expected, 10**6, expected):
        sim = make_simulator(
            compiled.program, backend="jit", max_cycles=max_cycles
        )
        assert sim.run().cycles == expected
    starved = make_simulator(
        compiled.program, backend="jit", max_cycles=expected - 1
    )
    with pytest.raises(SimulationError, match="max_cycles"):
        starved.run()
    # the roomy closures must still be intact after the starved compile
    again = make_simulator(compiled.program, backend="jit", max_cycles=10**6)
    assert again.run().cycles == expected


def _uncalled_module():
    """`unused` is compiled into the program but never called."""
    pb = ProgramBuilder("t")
    out = pb.global_scalar("out", float)
    with pb.function("unused", params=[("x", float)], returns=float) as f:
        f.ret(f.param("x") * 2.0)
    with pb.function("main") as f:
        with f.loop(3):
            f.assign(out[0], out[0] + 1.0)
    return pb.build()


def _straight_keys(program, sim):
    """``(first, last)`` of every straight-line function cached for
    *sim*'s class."""
    owner = type(sim).__qualname__
    return {
        key[1:]
        for key in program._codegen_cache
        if isinstance(key, tuple) and key[0] == owner
        and isinstance(key[1], int)
    }


@pytest.mark.parametrize("backend", ["jit", "batch"])
def test_steps_compile_only_for_dispatched_pcs(backend):
    """The stepped loop (a hooked jit run, a batch lockstep run)
    generates a pc's step on its first dispatch: an uncalled function
    gets no step and no cache entry."""
    compiled = compile_module(_uncalled_module(), strategy=Strategy.CB)
    program = compiled.program
    reference = Simulator(program).run()
    unused = program.function_entries["unused"]
    dead = [pc for pc, n in enumerate(reference.pc_counts) if n == 0]
    assert unused in dead
    hook = (lambda sim, cycle: None) if backend == "jit" else None
    sim = make_simulator(program, backend=backend, interrupt_hook=hook)
    result = sim.run()
    assert result.pc_counts == reference.pc_counts
    for pc, executed in enumerate(reference.pc_counts):
        assert (sim._steps[pc] is not None) == bool(executed), pc
    assert _straight_keys(program, sim) == {
        (pc, pc) for pc, n in enumerate(reference.pc_counts) if n
    }


def test_step_and_one_instruction_superblock_share_an_entry():
    compiled = compile_module(_uncalled_module(), strategy=Strategy.CB)
    program = compiled.program
    fused = make_simulator(program, backend="jit")
    fused.run()
    hooked = make_simulator(
        program, backend="jit", interrupt_hook=lambda sim, cycle: None
    )
    hooked.run()
    shared = [
        pc
        for pc, block in enumerate(fused._blocks)
        if block is not None and fused._block_lens[pc] == 1
    ]
    assert shared
    keys = _straight_keys(program, fused)
    for pc in shared:
        assert hooked._steps[pc].__code__ is fused._blocks[pc].__code__
        assert [key for key in keys if key[0] == pc] == [(pc, pc)]


# ---------------------------------------------------------------------
# The process-wide source -> code memo
# ---------------------------------------------------------------------
def _run(program, backend="jit"):
    """Run *program*; return the simulator and its observable outcome."""
    sim = make_simulator(program, backend=backend)
    result = sim.run()
    return sim, (
        result.cycles, result.operations, result.pc_counts,
        sim.read_global("out"),
    )


def _code_entries(program):
    """How many code objects *program*'s codegen cache holds."""
    return sum(
        1 for entry in program._codegen_cache.values()
        if isinstance(entry, tuple) and entry
        and isinstance(entry[0], types.CodeType)
    )


def _memo_delta(before):
    after = codegen_stats()
    return {name: after[name] - before[name] for name in before}


def test_programs_of_one_workload_share_code_objects():
    workload = get_workload("fir_32_1")
    first = compile_module(workload.build(), strategy=Strategy.CB).program
    second = compile_module(workload.build(), strategy=Strategy.CB).program
    assert first is not second
    fused = make_simulator(first, backend="jit")
    fused.run()
    before = codegen_stats()
    again = make_simulator(second, backend="jit")
    again.run()
    delta = _memo_delta(before)
    assert delta["sim.codegen_misses"] == 0
    assert delta["sim.codegen_hits"] == _code_entries(second) > 0
    shared = [pc for pc, block in enumerate(fused._blocks) if block]
    assert shared
    for pc in shared:
        assert again._blocks[pc].__code__ is fused._blocks[pc].__code__
    for start, loop in enumerate(fused._entries):
        if loop is not None:
            assert again._entries[start].__code__ is loop.__code__


def _scaled_module(factor):
    """`out = data * factor`; a non-finite float immediate binds
    through the environment dict, not the generated source."""
    pb = ProgramBuilder("t")
    data = pb.global_array("data", 4, float, init=[1.0, 2.0, 3.0, 4.0])
    out = pb.global_array("out", 4, float)
    with pb.function("main") as f:
        with f.loop(4, name="i") as i:
            f.assign(out[i], data[i] * factor)
    return pb.build()


def test_constants_bind_through_env_not_source():
    """Two modules that differ only in an immediate generate the same
    source, share its code, and still compute their own results."""
    inf = float("inf")
    positive, negative = (
        compile_module(_scaled_module(factor), strategy=Strategy.CB).program
        for factor in (inf, -inf)
    )
    first = _run(positive)[1]
    before = codegen_stats()
    second = _run(negative)[1]
    delta = _memo_delta(before)
    assert delta["sim.codegen_misses"] == 0
    assert delta["sim.codegen_hits"] == _code_entries(negative) > 0
    assert first == _run(positive, backend="interp")[1]
    assert second == _run(negative, backend="interp")[1]
    assert first[3] == [inf] * 4
    assert second[3] == [-inf] * 4


def test_memo_stays_at_its_cap_and_recompiles_identically():
    program = compile_module(_hooked_module(), strategy=Strategy.CB).program
    reference = _run(program, backend="interp")[1]
    assert _run(program)[1] == reference
    cap = fastsim._CODE_MEMO_CAP
    for n in range(cap + 8):
        fastsim._compiled("def step():\n    return %d  # filler\n" % n)
    assert len(fastsim._code_memo) == cap
    assert codegen_stats()["sim.codegen_entries"] == cap
    # every source of the first run has been evicted: a fresh program
    # recompiles them and still matches the reference bit for bit
    before = codegen_stats()
    fresh = compile_module(_hooked_module(), strategy=Strategy.CB).program
    assert _run(fresh)[1] == reference
    delta = _memo_delta(before)
    assert delta["sim.codegen_misses"] == _code_entries(fresh) > 0
    assert delta["sim.codegen_entries"] == 0
    assert len(fastsim._code_memo) == cap


def _constant_operands(program):
    return [
        operand
        for instruction in program.instructions
        for _unit, op in instruction
        for operand in op.sources + (op.target,)
        if isinstance(operand, (Immediate, Label))
    ]


def test_store_round_trip_runs_without_memo_misses(tmp_path):
    """A program unpickled from the serve store arrives without its
    codegen cache, regenerates its sources and compiles none of them."""
    compiled = compile_module(_hooked_module(), strategy=Strategy.CB)
    expected = _run(compiled.program)[1]
    store = ArtifactStore(tmp_path)
    store.put({"test": "memo"}, compiled)
    loaded = store.get({"test": "memo"})
    assert "_codegen_cache" not in vars(loaded.program)
    # immediates and labels come back equal: same value, type and name
    operands = _constant_operands(loaded.program)
    assert operands == _constant_operands(compiled.program)
    assert {type(operand) for operand in operands} == {Immediate, Label}
    before = codegen_stats()
    assert _run(loaded.program)[1] == expected
    delta = _memo_delta(before)
    assert delta["sim.codegen_misses"] == 0
    assert delta["sim.codegen_hits"] == _code_entries(loaded.program) > 0
