"""Unit tests for the loop-specializing ``jit`` backend.

The differential suites (``test_fastsim_equivalence``, the fuzz oracle,
``test_interrupts``) establish bit-identity on real workloads; the tests
here pin the backend's *mechanisms*: which loop shapes specialize, how
the two run modes are selected, hook delivery (and pc redirects) inside
loop nests, the fault-path contract, and the per-program codegen cache.
The codegen stress tests (large trip counts, deep nesting) run under
``-m full_diff`` so tier-1 stays fast.
"""

import pytest

from repro.compiler import compile_module
from repro.frontend import ProgramBuilder
from repro.ir.operations import OpCode, Operation
from repro.ir.values import Immediate, Label
from repro.machine.resources import FunctionalUnit
from repro.partition.strategies import Strategy
from repro.sim import make_simulator
from repro.sim.interrupts import InterruptInjector
from repro.sim.loopjit import LoopJitSimulator
from repro.sim.simulator import SimulationError, Simulator


def _counted_nest_module(outer=4, inner=8):
    """A two-deep counted accumulation nest (fully specializable)."""
    pb = ProgramBuilder("t")
    out = pb.global_scalar("out", float)
    with pb.function("main") as f:
        acc = f.float_var("acc")
        f.assign(acc, 0.0)
        with f.loop(outer):
            with f.loop(inner):
                f.assign(acc, acc + 1.0)
        f.assign(out[0], acc)
    return pb.build()


def _program(module, strategy=Strategy.SINGLE_BANK, max_cycles=None):
    program = compile_module(module, strategy=strategy).program
    return program


def _identical(program, reference_backend="interp", **sim_kwargs):
    """Run interp and jit on *program*; assert bit-identity, return jit."""
    ref = make_simulator(program, backend=reference_backend)
    jit = make_simulator(program, backend="jit")
    for key, value in sim_kwargs.items():
        setattr(ref, key, value() if callable(value) else value)
        setattr(jit, key, value() if callable(value) else value)
    expected = ref.run()
    actual = jit.run()
    assert actual.cycles == expected.cycles
    assert actual.operations == expected.operations
    assert actual.pc_counts == expected.pc_counts
    assert jit.state_digest() == ref.state_digest()
    return jit


# ----------------------------------------------------------------------
# Specializability analysis
# ----------------------------------------------------------------------
def test_counted_nest_is_specialized():
    program = _program(_counted_nest_module())
    sim = LoopJitSimulator(program)
    nests = sim._nests()
    assert nests, "a counted nest must produce at least one loop entry"
    roots = [n for n in nests.values() if n.children]
    assert roots, "the outer loop must specialize with its inner child"
    child = roots[0].children[0]
    assert child.begin_pc >= roots[0].start
    assert child.end < roots[0].end


def test_inner_loops_get_their_own_entries():
    """Inner loops register independently in the analysis (they still
    specialize when the enclosing loop cannot) — but the dispatch table
    only carries top-level nests: inner bodies are inlined into the
    enclosing closure, so a standalone inner entry would be dead
    codegen weight."""
    program = _program(_counted_nest_module())
    sim = LoopJitSimulator(program)
    nests = sim._nests()
    inner = [n for n in nests.values() if not n.children]
    assert inner, "the innermost loop must register in the analysis"
    sim.run()
    roots = {n.start for n in nests.values() if n.children}
    inlined = {n.start for n in nests.values() if not n.children}
    for start in roots:
        assert sim._entries[start] is not None
    for start in inlined:
        assert sim._entries[start] is None


def test_loop_with_branch_is_not_specialized():
    """A control transfer in the body disqualifies the region — those
    shapes keep the fused-superblock back-edge semantics."""
    pb = ProgramBuilder("t")
    out = pb.global_scalar("out", int)
    with pb.function("main") as f:
        acc = f.int_var("acc")
        f.assign(acc, 0)
        with f.loop(6):
            with f.if_(acc < 3):
                f.assign(acc, acc + 2)
            with f.else_():
                f.assign(acc, acc + 1)
        f.assign(out[0], acc)
    module = pb.build()
    program = _program(module)
    sim = LoopJitSimulator(program)
    for start, end in program.loops.values():
        body_controls = [
            op
            for pc in range(start, end + 1)
            for op in program.instructions[pc].slots.values()
            if op.info.kind.value == "control"
            and op.opcode is not OpCode.LOOP_BEGIN
        ]
        if body_controls:
            assert start not in sim._nests()
    _identical(program)


def test_taken_branch_at_loop_end_still_wins(dot_product_module):
    """The fastsim guard rail carries over: injecting a taken branch at
    the loop-end pc makes the loop unspecializable and the branch must
    override the back-edge, identically to the interpreter."""
    pb = ProgramBuilder("t")
    out = pb.global_scalar("out", int)
    with pb.function("main") as f:
        acc = f.int_var("acc")
        f.assign(acc, 0)
        with f.loop(10):
            f.assign(acc, acc + 1)
        f.assign(out[0], acc)
    program = compile_module(pb.build(), strategy=Strategy.SINGLE_BANK).program
    ((start, end),) = program.loops.values()
    exit_label = min(
        (label for label, index in program.labels.items() if index > end),
        key=lambda label: program.labels[label],
    )
    final = program.instructions[end]
    assert final.unit_free(FunctionalUnit.PCU)
    final.add(
        FunctionalUnit.PCU,
        Operation(
            OpCode.BRT, sources=(Immediate(1),), target=Label(exit_label)
        ),
    )
    jit = _identical(program)
    assert start not in jit._nests()
    assert jit.read_global("out") == 1


def test_shared_loop_end_is_rejected():
    """Two loop regions sharing an end pc cascade through the back-edge
    in one cycle; the analysis must refuse to specialize either."""
    program = _program(_counted_nest_module())
    sim = LoopJitSimulator(program)
    (outer_start, outer_end) = max(program.loops.values(), key=lambda r: r[1] - r[0])
    regions = sim._unique_regions()
    assert (outer_start, outer_end) in regions
    # Forge a second region with the same end: both must drop out.
    forged = dict(program.loops)
    forged["forged"] = (outer_end, outer_end)
    original = program.loops
    program.loops = forged
    try:
        fresh = LoopJitSimulator(program)
        assert (outer_start, outer_end) not in fresh._unique_regions()
        assert (outer_end, outer_end) not in fresh._unique_regions()
    finally:
        program.loops = original


# ----------------------------------------------------------------------
# Run-mode selection and semantics
# ----------------------------------------------------------------------
def test_zero_trip_loop_identical():
    pb = ProgramBuilder("t")
    out = pb.global_scalar("out", float)
    with pb.function("main") as f:
        n = f.int_var("n")
        acc = f.float_var("acc")
        f.assign(n, 0)
        f.assign(acc, 1.0)
        with f.for_range(0, 0):
            f.assign(acc, acc + 1.0)
        f.assign(out[0], acc)
    _identical(_program(pb.build()))


def test_hook_free_run_uses_fused_path_with_entries():
    program = _program(_counted_nest_module())
    sim = make_simulator(program, backend="jit")
    sim.run()
    assert sim._blocks is not None
    assert sim._entries is not None
    assert any(entry is not None for entry in sim._entries)
    assert sim._steps is None


def _delivery_cycles(program, backend, cadence=None):
    seen = []

    def hook(sim, cycle):
        seen.append(cycle)

    if cadence is not None:
        hook.cadence = cadence
    make_simulator(program, backend=backend, interrupt_hook=hook).run()
    return seen


def test_generic_hook_delegates_to_per_cycle_path():
    """Any hook runs the inherited stepped loop and sees exactly the
    cycle sequence the interpreter delivers; a positive int ``cadence``
    attribute on the hook selects nothing either."""
    program = _program(_counted_nest_module())
    expected = _delivery_cycles(program, "interp")
    assert expected
    assert _delivery_cycles(program, "jit", cadence=7) == expected
    sim = make_simulator(
        program, backend="jit", interrupt_hook=lambda sim, cycle: None
    )
    sim.run()
    assert sim._steps is not None
    assert sim._blocks is None and sim._entries is None


@pytest.mark.parametrize("cadence", [0, -3, True, "7", 2.0, None])
def test_invalid_cadence_falls_back_to_per_cycle(cadence):
    """A ``cadence`` attribute of any value leaves the hook on the
    per-cycle path: it sees exactly the interpreter's cycle sequence."""
    program = _program(_counted_nest_module())
    seen = _delivery_cycles(program, "jit", cadence=cadence)
    assert seen == _delivery_cycles(program, "interp")
    assert seen


@pytest.mark.parametrize("period", [1, 2, 3, 5, 17])
def test_cadence_deliveries_land_mid_loop_identically(period):
    """Deliveries landing inside specialized loops: cycle sequence,
    state, and delivery count must match the interpreter exactly."""
    program = _program(_counted_nest_module(outer=5, inner=13))
    module = program.module
    ref_hook = InterruptInjector(module, period=period)
    jit_hook = InterruptInjector(module, period=period)
    ref = make_simulator(program, backend="interp", interrupt_hook=ref_hook)
    jit = make_simulator(program, backend="jit", interrupt_hook=jit_hook)
    expected = ref.run()
    actual = jit.run()
    assert actual.cycles == expected.cycles
    assert actual.pc_counts == expected.pc_counts
    assert jit.state_digest() == ref.state_digest()
    assert jit_hook.delivered == ref_hook.delivered
    assert jit_hook.delivered > 0


def test_cadence_hook_memory_writes_visible():
    """A hook writing a global mid-run inside a specializable loop must
    be observed exactly as on the interpreter."""
    pb = ProgramBuilder("t")
    flagbox = pb.global_array("flagbox", 1, int)
    out = pb.global_scalar("out", int)
    with pb.function("main") as f:
        seen = f.int_var("seen")
        f.assign(seen, 0)
        with f.loop(200):
            f.assign(seen, seen + flagbox[0])
        f.assign(out[0], seen)
    program = _program(pb.build(), strategy=Strategy.CB)

    def make_writer():
        def writer(sim, cycle):
            if cycle == 50:
                sim.write_global("flagbox", [1])
        return writer

    module = program.module
    results = {}
    for backend in ("interp", "jit"):
        hook = InterruptInjector(module, period=1, writer=make_writer())
        sim = make_simulator(program, backend=backend, interrupt_hook=hook)
        sim.run()
        results[backend] = (sim.read_global("out"), sim.state_digest())
    assert results["interp"] == results["jit"]
    assert results["jit"][0] > 0


def test_hook_redirect_inside_loop_nest_matches_interp():
    """A one-shot hook that redirects pc inside a specializable loop
    nest (from the inner body's last instruction, pc 3, back to the
    outer body's first, pc 1) runs on jit exactly as on the
    interpreter.  The hook carries a ``cadence`` attribute, which
    selects nothing: every hook runs per cycle."""
    pb = ProgramBuilder("t")
    out = pb.global_scalar("out", float)
    with pb.function("main") as f:
        acc = f.float_var("acc")
        f.assign(acc, 0.0)
        with f.loop(8):
            with f.loop(32):
                f.assign(acc, acc + 1.0)
                f.assign(acc, acc * 0.5)
        f.assign(out[0], acc)
    program = _program(pb.build())
    assert sorted(program.loops.values()) == [(1, 4), (2, 3)]

    class RedirectOnce:
        cadence = 1

        def __init__(self):
            self.fired = False

        def __call__(self, sim, cycle):
            if not self.fired and cycle > 40 and sim.pc == 3:
                self.fired = True
                sim.pc = 1

    runs = {}
    for backend in ("interp", "jit"):
        hook = RedirectOnce()
        sim = make_simulator(program, backend=backend, interrupt_hook=hook)
        result = sim.run()
        assert hook.fired
        runs[backend] = (result.cycles, result.pc_counts, sim.state_digest())
    assert runs["jit"] == runs["interp"]
    assert runs["jit"][0] == 594


# ----------------------------------------------------------------------
# Fault paths
# ----------------------------------------------------------------------
def test_max_cycles_raises_in_specialized_loop():
    program = _program(_counted_nest_module(outer=100, inner=100))
    sim = make_simulator(program, backend="jit")
    sim.max_cycles = 40
    with pytest.raises(SimulationError, match="max_cycles"):
        sim.run()
    assert sim.locked is False
    assert sim.cycle > 40


def test_max_cycles_outcome_matches_interpreter():
    """Raise-vs-complete must agree with the interpreter at any budget
    (the exact fault-path state may diverge, the outcome may not)."""
    program = _program(_counted_nest_module(outer=3, inner=4))
    full = Simulator(program).run().cycles
    for budget in (1, full - 1, full, full + 1):
        outcomes = {}
        for backend in ("interp", "jit"):
            sim = make_simulator(program, backend=backend)
            sim.max_cycles = budget
            try:
                sim.run()
                outcomes[backend] = "completed"
            except SimulationError:
                outcomes[backend] = "raised"
        assert outcomes["interp"] == outcomes["jit"], budget


def test_oob_fault_state_is_settled():
    """A machine fault inside a specialized loop still leaves a settled
    simulator: lock cleared, cycle counted, registers written back."""
    pb = ProgramBuilder("t")
    data = pb.global_array("data", 8, float)
    out = pb.global_scalar("out", float)
    with pb.function("main") as f:
        acc = f.float_var("acc")
        f.assign(acc, 0.0)
        with f.for_range(0, 64) as i:
            f.assign(acc, acc + data[i])
        f.assign(out[0], acc)
    program = _program(pb.build())
    sim = make_simulator(program, backend="jit")
    with pytest.raises(SimulationError, match="out of bounds"):
        sim.run()
    assert sim.locked is False
    assert sim.cycle > 0


# ----------------------------------------------------------------------
# Codegen cache
# ----------------------------------------------------------------------
def test_codegen_cache_shared_across_simulators():
    program = _program(_counted_nest_module())
    first = make_simulator(program, backend="jit")
    first_result = first.run()
    cache = program._codegen_cache
    assert cache
    # superblocks compile on first dispatch: one cache entry per leader
    # the run dispatched, none inside a region a loop closure consumed
    block_leaders = {key[1] for key in cache if isinstance(key[1], int)}
    dispatched = {
        pc for pc, block in enumerate(first._blocks) if block is not None
    }
    assert block_leaders == dispatched
    assert all(first_result.pc_counts[pc] for pc in dispatched)
    consumed = [
        (start, first._entry_ends[start])
        for start, entry in enumerate(first._entries)
        if entry is not None
    ]
    assert consumed
    for start, end in consumed:
        assert not any(start <= pc <= end for pc in block_leaders)
    reference = make_simulator(program, backend="interp").run()
    assert first_result.operations == reference.operations
    assert first_result.pc_counts == reference.pc_counts
    snapshot = dict(cache)
    second = make_simulator(program, backend="jit")
    second_result = second.run()
    assert dict(cache) == snapshot  # pure hits, nothing regenerated
    assert second_result.cycles == first_result.cycles
    assert second_result.pc_counts == first_result.pc_counts
    assert second.state_digest() == first.state_digest()


def _local_array_module():
    """Loops over a frame-resident array: their promotion includes the
    stack pointer (no paper workload has a frame symbol in a loop)."""
    pb = ProgramBuilder("t")
    out = pb.global_scalar("out", float)
    with pb.function("main") as f:
        buf = f.local_array("buf", 4, float)
        with f.for_range(0, 4) as i:
            f.assign(buf[i], 1.5)
        acc = f.float_var("acc")
        f.assign(acc, 0.0)
        with f.for_range(0, 4) as i:
            f.assign(acc, acc + buf[i])
        f.assign(out[0], acc)
    return pb.build()


def test_promotion_maps_match_the_emitted_refs():
    """Loop promotion reads each pc's register refs off its operands;
    on every paper workload (and a frame-array loop) that equals the
    refs its emitted code names (an emission scraped for
    ``RA[n]``/``SP[n]``-style refs)."""
    import re

    from repro.sim.fastsim import _CodeBuilder
    from repro.workloads.registry import all_workloads

    pattern = re.compile(r"\b(RA|RI|RF|SP)\[(\d+)\]")
    modules = [w.build() for w in all_workloads().values()]
    modules.append(_local_array_module())
    regions = stack_refs = 0
    for module in modules:
        program = compile_module(module, strategy=Strategy.CB).program
        sim = LoopJitSimulator(program)
        for start, nest in sim._nests().items():
            emitted = set()
            for pc in range(start, nest.end + 1):
                lines = []
                control = sim._emit_instruction(pc, _CodeBuilder(), lines, "")
                if control is not None and control.opcode is OpCode.LOOP_BEGIN:
                    lines.append(
                        sim._operand_expr(control.sources[0], _CodeBuilder())
                    )
                emitted.update(
                    m.group(0) for m in pattern.finditer("\n".join(lines))
                )
            promoted = sim._promotion_map(start, nest.end)
            assert set(promoted) == emitted, (module.name, start)
            regions += 1
            stack_refs += any(ref.startswith("SP") for ref in promoted)
    assert regions > 0
    assert stack_refs > 0


def test_cache_keys_include_max_cycles():
    """max_cycles is baked into generated clamps, so two budgets must
    not share a compiled loop batch."""
    program = _program(_counted_nest_module())
    a = make_simulator(program, backend="jit")
    a.run()
    b = make_simulator(program, backend="jit")
    b.max_cycles = 10**6
    b.run()
    loop_keys = [
        key for key in program._codegen_cache if key[1] == "loops"
    ]
    assert len(loop_keys) == 2


# ----------------------------------------------------------------------
# Codegen stress (excluded from tier-1 via the full_diff marker)
# ----------------------------------------------------------------------
@pytest.mark.full_diff
def test_large_trip_counts_identical():
    program = _program(_counted_nest_module(outer=300, inner=500))
    _identical(program)


@pytest.mark.full_diff
def test_deep_nesting_identical():
    pb = ProgramBuilder("t")
    out = pb.global_scalar("out", float)
    with pb.function("main") as f:
        acc = f.float_var("acc")
        f.assign(acc, 0.0)
        with f.loop(3):
            with f.loop(3):
                with f.loop(3):
                    with f.loop(3):
                        with f.loop(3):
                            f.assign(acc, acc + 1.0)
        f.assign(out[0], acc)
    program = _program(pb.build())
    jit = _identical(program)
    assert jit.read_global("out") == 3.0**5


@pytest.mark.full_diff
@pytest.mark.parametrize("period", [1, 7, 31])
def test_deep_nesting_under_cadence_identical(period):
    pb = ProgramBuilder("t")
    out = pb.global_scalar("out", float)
    with pb.function("main") as f:
        acc = f.float_var("acc")
        f.assign(acc, 0.0)
        with f.loop(4):
            with f.loop(5):
                with f.loop(6):
                    f.assign(acc, acc + 1.0)
        f.assign(out[0], acc)
    program = _program(pb.build())
    module = program.module
    ref_hook = InterruptInjector(module, period=period)
    jit_hook = InterruptInjector(module, period=period)
    ref = make_simulator(program, backend="interp", interrupt_hook=ref_hook)
    jit = make_simulator(program, backend="jit", interrupt_hook=jit_hook)
    expected = ref.run()
    actual = jit.run()
    assert actual.cycles == expected.cycles
    assert actual.pc_counts == expected.pc_counts
    assert jit.state_digest() == ref.state_digest()
    assert jit_hook.delivered == ref_hook.delivered
