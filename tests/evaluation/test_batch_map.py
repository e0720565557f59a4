"""batch_map: the lockstep fan-out primitive.

Contract: same tasks, same results, regardless of whether they run as
lockstep lanes (``backend="batch"``) or one scalar simulator per
instance — and tasks sharing a program (by identity *or* by content
fingerprint across independent compiles) batch together.
"""

import random

import pytest

from repro.compiler import compile_module
from repro.evaluation.parallel import (
    BatchTaskResult,
    batch_map,
    program_fingerprint,
)
from repro.obs.core import Recorder
from repro.partition.strategies import Strategy
from repro.workloads.kernels.fir import Fir
from repro.workloads.kernels.iir import Iir
from repro.workloads.registry import get_workload


def _fir_program(taps=8, samples=4, strategy=Strategy.CB):
    return compile_module(Fir(taps, samples).build(), strategy=strategy).program


def test_batch_matches_scalar_backends_bit_for_bit():
    rng = random.Random(5)
    program = _fir_program()
    tasks = [
        (program, {"x": [rng.uniform(-1, 1) for _ in range(11)]}, ("y",))
        for _ in range(10)
    ]
    batched = batch_map(tasks, lanes=4)  # 3 slabs: 4 + 4 + 2
    for backend in ("interp", "jit"):
        scalar = batch_map(tasks, backend=backend)
        for index in range(len(tasks)):
            assert batched[index].error is None
            assert scalar[index].error is None
            assert batched[index].outputs == scalar[index].outputs, index
            assert (
                batched[index].result.cycles == scalar[index].result.cycles
            )
            assert (
                batched[index].result.pc_counts
                == scalar[index].result.pc_counts
            )


def test_independent_compiles_group_by_fingerprint():
    a = _fir_program()
    b = _fir_program()  # same content, different object
    assert a is not b
    assert program_fingerprint(a) == program_fingerprint(b)
    recorder = Recorder()
    tasks = [(a, {}, ("y",)), (b, {}, ("y",)), (a, {}, ("y",))]
    results = batch_map(tasks, observe=recorder)
    counters = recorder.counters
    assert counters["batch.groups"] == 1
    assert counters["batch.slabs"] == 1
    assert counters["batch.instances"] == 3
    assert results[0].outputs == results[1].outputs == results[2].outputs


def test_distinct_programs_stay_in_distinct_groups():
    fir = _fir_program()
    iir = compile_module(Iir(2, 4).build(), strategy=Strategy.CB).program
    assert program_fingerprint(fir) != program_fingerprint(iir)
    recorder = Recorder()
    results = batch_map(
        [(fir, {}, ("y",)), (iir, {}, ()), (fir, {}, ("y",))],
        observe=recorder,
    )
    assert recorder.counters["batch.groups"] == 2
    assert results[0].outputs == results[2].outputs
    assert all(r.error is None for r in results)


def test_lane_errors_stay_per_task():
    pb_program = _fir_program(strategy=Strategy.SINGLE_BANK)
    from repro.frontend import ProgramBuilder

    pb = ProgramBuilder("div")
    data = pb.global_array("data", 2, float, init=[1.0, 1.0])
    out = pb.global_scalar("out", float)
    with pb.function("main") as f:
        f.assign(out[0], data[0] / data[1])
    program = compile_module(pb.build(), strategy=Strategy.SINGLE_BANK).program
    tasks = [
        (program, {}, ("out",)),
        (program, {"data": [1.0, 0.0]}, ("out",)),
        (program, {"data": [3.0, 2.0]}, ("out",)),
        (pb_program, {}, ("y",)),
    ]
    results = batch_map(tasks, lanes=8)
    scalar = batch_map(tasks, backend="interp")
    assert results[0].error is None and results[0].outputs == {"out": 1.0}
    assert isinstance(results[1].error, ZeroDivisionError)
    assert isinstance(scalar[1].error, ZeroDivisionError)
    assert results[2].outputs == {"out": 1.5}
    assert results[3].error is None
    assert isinstance(results[3], BatchTaskResult)


def test_scalar_writes_and_empty_reads():
    program = _fir_program()
    results = batch_map([(program, None, ())] * 3, lanes=2)
    assert all(r.error is None and r.outputs == {} for r in results)


def _recipe_tasks(seed, instances):
    """*instances* tasks of one fuzz recipe, each with its own arrays
    (values straddling the recipe's branch thresholds), reading back
    every global."""
    from repro.fuzz.generator import build_module, generate_recipe

    program = compile_module(
        build_module(generate_recipe(seed)), strategy=Strategy.CB
    ).program
    symbols = list(program.module.globals)
    reads = tuple(symbol.name for symbol in symbols)
    rng = random.Random(seed)
    return [
        (
            program,
            {
                symbol.name: [rng.randint(0, 9) * 0.5 for _ in range(symbol.size)]
                for symbol in symbols
                if symbol.name.startswith("arr")
            },
            reads,
        )
        for _ in range(instances)
    ]


def test_divergent_slab_falls_back_to_per_lane_runs():
    """Recipe 41 splits its lanes early; the slab leaves lockstep once
    and every lane still matches its own reference run exactly."""
    tasks = _recipe_tasks(41, 32)
    recorder = Recorder()
    batched = batch_map(tasks, lanes=32, observe=recorder)
    reference = batch_map(tasks, backend="interp")
    assert recorder.counters["batch.slabs"] == 1
    assert recorder.counters["batch.fallbacks"] == 1
    for index, (got, want) in enumerate(zip(batched, reference)):
        assert (got.error is None) == (want.error is None), index
        if want.error is not None:
            assert type(got.error) is type(want.error), index
            assert str(got.error) == str(want.error), index
            continue
        assert got.result.cycles == want.result.cycles, index
        assert got.result.operations == want.result.operations, index
        assert got.result.pc_counts == want.result.pc_counts, index
        assert repr(got.outputs) == repr(want.outputs), index
    # the lanes really diverged: they did not all run the same path
    assert len({tuple(r.result.pc_counts) for r in reference}) > 1


def test_uniform_slab_stays_in_lockstep():
    program = compile_module(
        get_workload("fir_32_1").build(), strategy=Strategy.CB
    ).program
    recorder = Recorder()
    results = batch_map([(program, {}, ("y",))] * 8, observe=recorder)
    assert recorder.counters["batch.fallbacks"] == 0
    assert all(r.error is None for r in results)
    assert len({repr(r.outputs) for r in results}) == 1
