"""Regressions for the per-program codegen cache key.

The compiled backends store generated closures in a cache that lives on
the shared program object, so two simulators over the same program can
skip recompilation.  The cache key must therefore capture everything
that changes the *generated source*: backend class and ``max_cycles``
(baked into the jit's cycle clamps); bounds checks are always emitted.
A simulator must also never reuse closures bound to another instance's
interrupt hook (fault plans and injectors are stateful), no matter what
a previous run cached on the program.  Code is generated only for the
pcs a run dispatches, and a stepped-loop step at a pc is the same cache
entry as a one-instruction superblock there.
"""

import pytest

from repro.compiler import compile_module
from repro.frontend import ProgramBuilder
from repro.partition.strategies import Strategy
from repro.sim import make_simulator
from repro.sim.interrupts import InterruptInjector
from repro.sim.simulator import SimulationError, Simulator


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
