"""Interrupt injection and the store-lock/store-unlock protocol.

Every test runs on all three simulator backends: installing a hook
forces the fast backend off its fused-superblock path onto the
per-instruction fallback, and the jit backend onto either its chunked
cadence path (hooks advertising a ``cadence``, like
:class:`InterruptInjector`) or the same per-instruction fallback — all
of which must honour the same delivery and lock-window rules as the
reference interpreter.
"""

import pytest

from repro.compiler import compile_module
from repro.frontend import ProgramBuilder
from repro.ir.symbols import MemoryBank
from repro.partition.strategies import Strategy
from repro.sim.fastsim import FastSimulator, make_simulator
from repro.sim.interrupts import DuplicateDivergenceError, InterruptInjector

pytestmark = pytest.mark.parametrize("backend", ["interp", "fast", "jit", "batch"])


def _assert_hook_path(sim):
    """With a hook installed the fast backend must compile and run the
    per-instruction step table, never the fused superblocks."""
    from repro.sim.batchsim import BatchSimulator

    if isinstance(sim, BatchSimulator):
        # hooked batch lanes run on the scalar jit path; the lockstep
        # step table must stay cold
        assert sim._steps is None, "hooked batch lane entered lockstep"
        return
    if isinstance(sim, FastSimulator):
        assert sim._steps is not None, "per-instruction fallback not compiled"
        assert sim._blocks is None, "fused path must stay cold under a hook"


def _dup_module():
    """A module whose `signal` array is duplicated and heavily stored."""
    pb = ProgramBuilder("t")
    signal = pb.global_array("signal", 16, float, init=[0.0] * 16)
    r = pb.global_array("R", 4, float)
    with pb.function("main") as f:
        # Stores into the (soon to be duplicated) array...
        with f.loop(16) as i:
            f.assign(signal[i], 0.5)
        # ...and same-array parallel reads that trigger duplication.
        with f.loop(4, name="m") as m:
            acc = f.float_var("acc")
            f.assign(acc, 0.0)
            with f.for_range(0, 12, name="n") as n:
                f.assign(acc, acc + signal[n] * signal[n + m])
            f.assign(r[m], acc)
    return pb.build()


def test_interrupts_never_observe_divergent_copies(backend):
    module = _dup_module()
    compiled = compile_module(module, strategy=Strategy.CB_DUP)
    assert module.globals.get("signal").bank is MemoryBank.BOTH
    injector = InterruptInjector(module, period=1)  # every unlocked cycle
    sim = make_simulator(compiled.program, backend=backend, interrupt_hook=injector)
    sim.run()
    assert injector.delivered > 0
    _assert_hook_path(sim)


def _run_unsafe(backend):
    """One unlocked-duplication run; returns whether it diverged."""
    compiled = compile_module(
        _dup_module(), strategy=Strategy.CB_DUP, interrupt_safe=False
    )
    injector = InterruptInjector(compiled.program.module, period=1)
    sim = make_simulator(compiled.program, backend=backend, interrupt_hook=injector)
    try:
        sim.run()
        return False
    except DuplicateDivergenceError:
        return True


def test_unlocked_duplication_can_diverge_under_interrupts(backend):
    """Without store-lock/store-unlock, an interrupt can land between the
    two stores of an update and see the copies out of sync — the hazard
    paper Section 3.2 describes.  The schedule may or may not split a
    store pair across instructions; when it does, the injector must
    catch it.  Either way the run is deterministic — and both backends
    must observe the same outcome."""
    diverged = _run_unsafe(backend)
    assert diverged == _run_unsafe(backend)  # deterministic per backend
    assert diverged == _run_unsafe("interp")  # and across backends


def test_interrupt_writer_feeds_program(backend):
    """An interrupt handler that writes a duplicated global (external
    data arriving mid-run) must keep both copies coherent via
    write_global, and the program sees the new data."""
    pb = ProgramBuilder("t")
    flagbox = pb.global_array("flagbox", 1, int)
    out = pb.global_scalar("out", int)
    with pb.function("main") as f:
        seen = f.int_var("seen")
        f.assign(seen, 0)
        with f.loop(200):
            f.assign(seen, seen + flagbox[0])
        f.assign(out[0], seen)
    compiled = compile_module(pb.build(), strategy=Strategy.CB)

    def writer(sim, cycle):
        if cycle == 50:
            sim.write_global("flagbox", [1])

    module = compiled.program.module
    injector = InterruptInjector(module, period=1, writer=writer)
    sim = make_simulator(compiled.program, backend=backend, interrupt_hook=injector)
    sim.run()
    assert sim.read_global("out") > 0
    _assert_hook_path(sim)


def test_locked_window_defers_interrupts(backend):
    """The simulator must not call the hook between a store-lock and its
    matching store-unlock."""
    module = _dup_module()
    compiled = compile_module(module, strategy=Strategy.CB_DUP)

    observed_locked = []

    def hook(sim, cycle):
        observed_locked.append(sim.locked)

    sim = make_simulator(compiled.program, backend=backend, interrupt_hook=hook)
    sim.run()
    assert observed_locked  # interrupts were delivered...
    assert not any(observed_locked)  # ...but never inside a lock window
    _assert_hook_path(sim)


def test_hook_delivery_cycles_match_reference(backend):
    """The per-instruction fallback must present the hook with exactly
    the cycle sequence the reference interpreter does."""
    def _cycles(which):
        compiled = compile_module(_dup_module(), strategy=Strategy.CB_DUP)
        seen = []

        def hook(sim, cycle):
            seen.append(cycle)

        make_simulator(
            compiled.program, backend=which, interrupt_hook=hook
        ).run()
        return seen

    assert _cycles(backend) == _cycles("interp")
