"""Regressions for the per-program codegen cache key.

The compiled backends store generated closures in a cache that lives on
the shared program object, so two simulators over the same program can
skip recompilation.  The cache key must therefore capture everything
that changes the *generated source*: backend class, ``max_cycles``
(baked into the jit's cycle clamps), and — the bug these tests pin —
``check_bounds``, which adds or removes the bounds-check lines.  A
simulator must also never reuse closures specialized for another
instance's interrupt hook or cadence (fault plans and injectors are
stateful), no matter what a previous run cached on the program.
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
    the unchecked machine reads 7.0 while the checked one faults."""
    pb = ProgramBuilder("t")
    data = pb.global_array("data", 4, float, init=[0.0] * 4, opaque=True)
    pb.global_array("after", 4, float, init=[7.0] * 4, opaque=True)
    out = pb.global_scalar("out", float)
    with pb.function("main") as f:
        i = f.index_var("i")
        f.assign(i, 4)
        f.assign(out[0], data[i])
    return pb.build()


@pytest.mark.parametrize("backend", ["jit", "batch"])
def test_cached_program_does_not_leak_disabled_bounds_checks(backend):
    """A relaxed (check_bounds=False) run must not poison the cache for
    a later strict simulator over the same program object."""
    compiled = compile_module(_oob_module(), strategy=Strategy.SINGLE_BANK)
    relaxed = make_simulator(
        compiled.program, backend=backend, check_bounds=False
    )
    relaxed.run()
    assert relaxed.read_global("out") == 7.0
    strict = make_simulator(compiled.program, backend=backend)
    with pytest.raises(SimulationError, match="out of bounds"):
        strict.run()


@pytest.mark.parametrize("backend", ["jit", "batch"])
def test_cached_program_does_not_leak_enabled_bounds_checks(backend):
    """...and the reverse order: a strict run first must not make the
    relaxed simulator fault."""
    compiled = compile_module(_oob_module(), strategy=Strategy.SINGLE_BANK)
    strict = make_simulator(compiled.program, backend=backend)
    with pytest.raises(SimulationError, match="out of bounds"):
        strict.run()
    relaxed = make_simulator(
        compiled.program, backend=backend, check_bounds=False
    )
    relaxed.run()
    assert relaxed.read_global("out") == 7.0


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
    """The jit specializes loop bodies per (hook, cadence); re-running a
    cached program under a different cadence — or the same cadence with
    a *different* hook object — must deliver by the new hook, matching
    the reference interpreter's delivery count exactly."""
    module = _hooked_module()
    compiled = compile_module(module, strategy=Strategy.CB)
    for period in (3, 7, 3):  # returning to 3 must not resurrect period-7 code
        reference = InterruptInjector(module, period=period)
        Simulator(compiled.program, interrupt_hook=reference).run()
        injector = InterruptInjector(module, period=period)
        sim = make_simulator(
            compiled.program, backend="jit", interrupt_hook=injector
        )
        sim.run()
        assert injector.delivered == reference.delivered
        assert injector.delivered > 0


def test_chunk_signature_compares_hook_by_reference():
    """The cadence signature must hold the hook object itself — matching
    a recycled ``id()`` would reuse closures bound to a dead injector."""
    module = _hooked_module()
    compiled = compile_module(module, strategy=Strategy.CB)
    injector = InterruptInjector(module, period=5)
    sim = make_simulator(
        compiled.program, backend="jit", interrupt_hook=injector
    )
    sim.run()
    assert sim._chunk_sig[0] is injector
    assert sim._chunk_sig[1] == 5


def test_max_cycles_and_bounds_key_the_shared_cache():
    """Distinct (max_cycles, check_bounds) configurations coexist in one
    program's cache without evicting or colliding with each other."""
    compiled = compile_module(_oob_module(), strategy=Strategy.SINGLE_BANK)
    make_simulator(compiled.program, backend="jit", check_bounds=False).run()
    with pytest.raises(SimulationError):
        make_simulator(compiled.program, backend="jit").run()
    # the relaxed closures must still be intact after the strict compile
    again = make_simulator(
        compiled.program, backend="jit", check_bounds=False
    )
    again.run()
    assert again.read_global("out") == 7.0
