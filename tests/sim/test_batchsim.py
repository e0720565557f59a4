"""The batched lockstep backend against per-instance scalar runs.

Everything here is a bit-for-bit contract: every lane of a
:class:`BatchSimulator` must finish in exactly the state a scalar
backend reaches for the same program and the same per-instance inputs —
cycles, operation totals, per-pc counts, memory, register files, and
the full architectural digest.  The interesting cases are the ones the
lockstep model has to work for: lanes that agree everywhere (pure
vector execution, the slab stays in lockstep), lanes that diverge on
data-dependent branches or fault alone (the slab falls back and every
lane reruns from its initial state on its own scalar jit simulator),
and lanes that arm interrupt or fault-injection hooks (per-lane jit by
construction).
"""

import random

import pytest

from repro.compiler import compile_module
from repro.frontend import ProgramBuilder
from repro.fuzz.generator import Recipe, build_module, generate_recipe
from repro.partition.strategies import Strategy
from repro.sim.batchsim import BatchSimulator
from repro.sim.fastsim import BACKENDS, make_simulator
from repro.sim.interrupts import InterruptInjector
from repro.sim.simulator import SimulationError, Simulator
from repro.workloads.kernels.fir import Fir
from repro.workloads.registry import get_workload


def _lane_reference(program, writes, backend="jit", hook=None):
    simulator = make_simulator(program, backend=backend, interrupt_hook=hook)
    for name, values in writes.items():
        simulator.write_global(name, values)
    error = None
    result = None
    try:
        result = simulator.run()
    except Exception as exc:  # noqa: BLE001 — compared against the lane
        error = exc
    return simulator, result, error


def _assert_lane_matches(outcome, simulator, result, error, label):
    if error is not None:
        assert outcome.error is not None, label
        assert type(outcome.error) is type(error), label
        assert str(outcome.error) == str(error), label
        return
    assert outcome.error is None, (label, outcome.error)
    assert outcome.result.cycles == result.cycles, label
    assert outcome.result.operations == result.operations, label
    assert outcome.result.pc_counts == result.pc_counts, label
    assert outcome.result.stack_peak_x == result.stack_peak_x, label
    assert outcome.result.stack_peak_y == result.stack_peak_y, label
    assert outcome.state.state_digest() == simulator.state_digest(), label


def test_batch_is_registered():
    assert BACKENDS["batch"] is BatchSimulator
    assert BatchSimulator.backend_name == "batch"


def test_single_lane_matches_interpreter_exactly():
    workload = get_workload("fir_32_1")
    compiled = compile_module(workload.build(), strategy=Strategy.CB)
    reference = Simulator(compiled.program)
    expected = reference.run()
    batch = make_simulator(compiled.program, backend="batch")
    actual = batch.run()
    workload.verify(batch)
    assert actual.cycles == expected.cycles
    assert actual.operations == expected.operations
    assert actual.pc_counts == expected.pc_counts
    assert batch.memory == reference.memory
    assert batch.registers == reference.registers
    assert batch.state_digest() == reference.state_digest()


def test_run_refuses_multi_lane():
    compiled = compile_module(Fir(4, 2).build(), strategy=Strategy.CB)
    batch = BatchSimulator(compiled.program, lanes=3)
    with pytest.raises(ValueError, match="run_batch"):
        batch.run()
    with pytest.raises(ValueError):
        BatchSimulator(compiled.program, lanes=0)


def test_uniform_lanes_stay_locked_and_match():
    """Identical inputs: one lockstep run end to end, no fallback."""
    compiled = compile_module(Fir(8, 4).build(), strategy=Strategy.FULL_DUP)
    lanes = 5
    batch = BatchSimulator(compiled.program, lanes=lanes)
    outcomes = batch.run_batch()
    assert not batch.fell_back
    simulator, result, error = _lane_reference(compiled.program, {})
    assert error is None
    for outcome in outcomes:
        _assert_lane_matches(
            outcome, simulator, result, error, "uniform lane %d" % outcome.lane
        )


def test_varying_inputs_match_per_lane_jit():
    rng = random.Random(11)
    compiled = compile_module(Fir(8, 4).build(), strategy=Strategy.CB)
    lanes = 16
    rows = [[rng.uniform(-2.0, 2.0) for _ in range(11)] for _ in range(lanes)]
    batch = BatchSimulator(compiled.program, lanes=lanes)
    batch.write_global_lanes("x", rows)
    outcomes = batch.run_batch()
    for lane in range(lanes):
        reference = _lane_reference(compiled.program, {"x": rows[lane]})
        _assert_lane_matches(outcomes[lane], *reference, "lane %d" % lane)
        assert outcomes[lane].state.read_global("y") == reference[0].read_global("y")


def _branchy_module():
    """Data-dependent control: a loop whose branch direction and an
    inner trip count both hinge on per-lane array values."""
    pb = ProgramBuilder("branchy")
    data = pb.global_array("data", 8, float, init=[0.0] * 8)
    out = pb.global_array("out", 8, float)
    with pb.function("main") as f:
        acc = f.float_var("acc")
        f.assign(acc, 0.0)
        with f.loop(8) as i:
            element = f.float_var("element")
            f.assign(element, data[i])
            with f.if_(element > 1.0):
                f.assign(acc, acc + element * 2.0)
            with f.else_():
                f.assign(acc, acc - 0.5)
            f.assign(out[i], acc)
    return pb.build()


def test_divergent_branches_split_and_match():
    """Lanes taking different branch arms leave lockstep; each lane's
    per-lane rerun matches its own jit run."""
    compiled = compile_module(_branchy_module(), strategy=Strategy.CB)
    lanes = 6
    rows = [[0.5] * 8 for _ in range(lanes)]
    rows[2][3] = 9.0  # lane 2 takes the other arm at iteration 3
    rows[4][0] = 5.0  # lane 4 diverges immediately
    batch = BatchSimulator(compiled.program, lanes=lanes)
    batch.write_global_lanes("data", rows)
    outcomes = batch.run_batch()
    assert batch.fell_back
    for lane in range(lanes):
        reference = _lane_reference(compiled.program, {"data": rows[lane]})
        _assert_lane_matches(outcomes[lane], *reference, "lane %d" % lane)


def test_faulting_lane_reports_the_scalar_error():
    pb = ProgramBuilder("divzero")
    data = pb.global_array("data", 2, float, init=[1.0, 1.0])
    out = pb.global_scalar("out", float)
    with pb.function("main") as f:
        f.assign(out[0], data[0] / data[1])
    compiled = compile_module(pb.build(), strategy=Strategy.SINGLE_BANK)
    lanes = 4
    batch = BatchSimulator(compiled.program, lanes=lanes)
    batch.write_global_lane(2, "data", [1.0, 0.0])  # only lane 2 divides by 0
    outcomes = batch.run_batch()
    for lane in range(lanes):
        reference = _lane_reference(
            compiled.program,
            {"data": [1.0, 0.0]} if lane == 2 else {},
        )
        _assert_lane_matches(outcomes[lane], *reference, "lane %d" % lane)
    assert isinstance(outcomes[2].error, ZeroDivisionError)


def test_fuzz_recipes_with_varying_lanes_match_jit():
    """Sweep generated recipes (loops, conditionals, calls, duplication)
    with per-lane inputs; every lane must match its own jit run."""
    rng = random.Random(23)
    lanes = 6
    for seed in (1, 4, 9, 14, 27):
        recipe = generate_recipe(seed)
        if recipe.interrupt_period is not None:
            recipe.interrupt_period = None
        compiled = compile_module(build_module(recipe), strategy=Strategy.CB_DUP)
        arrays = [
            symbol.name
            for symbol in compiled.program.module.globals
            if symbol.name.startswith("arr")
        ]
        rows = {
            name: [
                [
                    rng.uniform(-4.0, 4.0)
                    for _ in range(
                        compiled.program.module.globals.get(name).size
                    )
                ]
                for _ in range(lanes)
            ]
            for name in arrays
        }
        batch = BatchSimulator(compiled.program, lanes=lanes)
        for name in arrays:
            batch.write_global_lanes(name, rows[name])
        outcomes = batch.run_batch()
        for lane in range(lanes):
            writes = {name: rows[name][lane] for name in arrays}
            reference = _lane_reference(compiled.program, writes)
            _assert_lane_matches(
                outcomes[lane], *reference, "seed %d lane %d" % (seed, lane)
            )


def test_divergence_and_fault_arming_lanes_match_jit_bit_for_bit():
    """Mixed fallback: of N instances of one fuzz-grammar recipe,
    exactly one takes a different branch and one arms a fault plan, so
    the slab runs per lane from each lane's initial state; all N final
    states must equal per-instance jit runs."""
    from repro.faults.injector import FaultInjector
    from repro.faults.plan import generate_plan

    recipe = Recipe(
        seed=0,
        arrays=[8, 8],
        body=[
            ["cond", 0, 2, 8],       # branch on arr0[i] > 1.0 per element
            ["dot", 0, 1, 8],
            ["writeback", 1, 8],
        ],
    )
    compiled = compile_module(build_module(recipe), strategy=Strategy.CB)
    lanes = 8
    divergent_lane, faulting_lane = 3, 6

    base = [0.5] * 8
    rows = [list(base) for _ in range(lanes)]
    rows[divergent_lane][5] = 7.0  # exactly one lane takes the other arm

    horizon = _lane_reference(compiled.program, {"arr0": base})[1].cycles
    plan = generate_plan(17, horizon=horizon)

    batch = BatchSimulator(compiled.program, lanes=lanes)
    batch.write_global_lanes("arr0", rows)
    batch.set_lane_hook(faulting_lane, FaultInjector.for_plan(plan))
    outcomes = batch.run_batch()

    for lane in range(lanes):
        hook = (
            FaultInjector.for_plan(plan) if lane == faulting_lane else None
        )
        reference = _lane_reference(
            compiled.program, {"arr0": rows[lane]}, hook=hook
        )
        _assert_lane_matches(outcomes[lane], *reference, "lane %d" % lane)
        if reference[2] is None:
            assert (
                outcomes[lane].state.read_global("out")
                == reference[0].read_global("out")
            )
    # the scenario actually happened: the divergent lane's accumulator
    # differs from the base lanes', and the armed lane saw deliveries
    assert outcomes[divergent_lane].state.read_global("out") != outcomes[
        0
    ].state.read_global("out")


def test_interrupt_cadence_lane_peels_and_matches():
    """A lane with an interrupt cadence sends the slab to per-lane jit
    and still matches a scalar hooked run exactly."""
    recipe = generate_recipe(2)
    module = build_module(recipe)
    compiled = compile_module(module, strategy=Strategy.CB_DUP)
    lanes = 3
    hooked_lane = 1

    batch = BatchSimulator(compiled.program, lanes=lanes)
    batch.set_lane_hook(hooked_lane, InterruptInjector(module, period=5))
    outcomes = batch.run_batch()

    for lane in range(lanes):
        hook = None
        if lane == hooked_lane:
            hook = InterruptInjector(compiled.program.module, period=5)
        reference = _lane_reference(compiled.program, {}, hook=hook)
        _assert_lane_matches(outcomes[lane], *reference, "lane %d" % lane)


def test_lane_view_reads_do_not_leak_numpy_scalars():
    compiled = compile_module(Fir(4, 2).build(), strategy=Strategy.CB)
    lanes = 3
    batch = BatchSimulator(compiled.program, lanes=lanes)
    batch.write_global_lane(1, "x", [1.5, 2.5, 3.5, 4.5, 5.5])
    outcomes = batch.run_batch()
    for outcome in outcomes:
        for value in outcome.state.read_global("y"):
            assert type(value) is float
        for bank in outcome.state.memory:
            for cell in bank:
                assert type(cell) in (int, float), repr(cell)


def test_write_global_lane_validates():
    compiled = compile_module(Fir(4, 2).build(), strategy=Strategy.CB)
    batch = BatchSimulator(compiled.program, lanes=2)
    with pytest.raises(ValueError):
        batch.write_global_lane(5, "x", [0.0])
    with pytest.raises(ValueError):
        batch.write_global_lane(0, "x", [0.0] * 99)
    with pytest.raises(ValueError):
        batch.write_global_lanes("x", [[0.0]])  # 1 row, 2 lanes
    with pytest.raises(ValueError):
        batch.set_lane_hook(9, lambda sim: None)


def test_out_of_bounds_faults_per_lane():
    pb = ProgramBuilder("oob")
    data = pb.global_array("data", 4, float, init=[0.0] * 4)
    index = pb.global_scalar("sel", int)
    out = pb.global_scalar("out", float)
    with pb.function("main") as f:
        i = f.index_var("i")
        f.assign(i, index[0])
        f.assign(out[0], data[i])
    compiled = compile_module(pb.build(), strategy=Strategy.SINGLE_BANK)
    lanes = 3
    batch = BatchSimulator(compiled.program, lanes=lanes)
    batch.write_global_lane(1, "sel", 9)  # only lane 1 runs off the end
    outcomes = batch.run_batch()
    assert outcomes[0].error is None and outcomes[2].error is None
    assert isinstance(outcomes[1].error, SimulationError)
    assert "out of bounds" in str(outcomes[1].error)
    reference = _lane_reference(compiled.program, {"sel": 9})
    assert str(outcomes[1].error) == str(reference[2])


def test_one_lane_raw_fault_stays_that_lanes():
    """A raw Python fault raised by one lane's data (int(NaN) in FTOI)
    falls back, so only that lane reports it."""
    pb = ProgramBuilder("ftoi")
    data = pb.global_array("data", 2, float, init=[2.5, 1.0])
    out = pb.global_scalar("out", int)
    with pb.function("main") as f:
        n = f.int_var("n")
        f.assign(n, data[0] * data[1])
        f.assign(out[0], n)
    compiled = compile_module(pb.build(), strategy=Strategy.SINGLE_BANK)
    lanes = 3
    batch = BatchSimulator(compiled.program, lanes=lanes)
    batch.write_global_lane(1, "data", [float("nan"), 1.0])
    outcomes = batch.run_batch()
    assert batch.fell_back
    for lane in range(lanes):
        writes = {"data": [float("nan"), 1.0]} if lane == 1 else {}
        reference = _lane_reference(compiled.program, writes)
        _assert_lane_matches(outcomes[lane], *reference, "lane %d" % lane)
    assert isinstance(outcomes[1].error, ValueError)
    assert outcomes[0].state.read_global("out") == 2


def test_per_lane_runs_replay_writes_in_arrival_order():
    """An all-lanes write_global between per-lane writes overrides the
    earlier ones in every lane's rerun, exactly as in lockstep."""
    compiled = compile_module(Fir(4, 2).build(), strategy=Strategy.CB)
    lanes = 3
    batch = BatchSimulator(compiled.program, lanes=lanes)
    batch.write_global_lane(0, "x", [9.0] * 5)
    batch.write_global("x", [1.0, 2.0, 3.0, 4.0, 5.0])
    batch.write_global_lane(2, "x", [0.5, 0.25])
    batch.set_lane_hook(1, InterruptInjector(compiled.program.module, period=3))
    outcomes = batch.run_batch()
    assert batch.fell_back
    rows = [[1.0, 2.0, 3.0, 4.0, 5.0]] * 2 + [[0.5, 0.25, 3.0, 4.0, 5.0]]
    for lane in range(lanes):
        hook = None
        if lane == 1:
            hook = InterruptInjector(compiled.program.module, period=3)
        reference = _lane_reference(compiled.program, {"x": rows[lane]}, hook=hook)
        _assert_lane_matches(outcomes[lane], *reference, "lane %d" % lane)
