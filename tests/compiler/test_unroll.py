"""Tests for inner-loop unrolling."""

import pytest

from repro.compiler import CompileOptions, compile_module
from repro.compiler.unroll import unroll_inner_loops
from repro.frontend import ProgramBuilder
from repro.partition.strategies import Strategy
from repro.sim.simulator import Simulator
from repro.workloads.registry import KERNELS


def _dot_module(n=32):
    pb = ProgramBuilder("u")
    a = pb.global_array("a", n, float, init=[float(i % 7) for i in range(n)])
    b = pb.global_array("b", n, float, init=[0.5] * n)
    out = pb.global_scalar("out", float)
    with pb.function("main") as f:
        acc = f.float_var("acc")
        f.assign(acc, 0.0)
        with f.loop(n) as i:
            f.assign(acc, acc + a[i] * b[i])
        f.assign(out[0], acc)
    return pb.build()


def _run(module, unroll_factor):
    compiled = compile_module(
        module,
        CompileOptions(strategy=Strategy.CB, unroll_factor=unroll_factor),
    )
    simulator = Simulator(compiled.program)
    result = simulator.run()
    return simulator, result


@pytest.mark.parametrize("factor", [2, 4, 8])
def test_unrolled_semantics_and_speedup(factor):
    expected = sum(0.5 * (i % 7) for i in range(32))
    sim1, base = _run(_dot_module(), 1)
    simk, unrolled = _run(_dot_module(), factor)
    assert sim1.read_global("out") == expected
    assert simk.read_global("out") == expected
    assert unrolled.cycles < base.cycles


def test_non_divisible_count_skipped():
    module = _dot_module(n=30)  # 30 % 4 != 0
    report = unroll_inner_loops(module_after_allocation(module), 4)
    assert report.unrolled == []


def module_after_allocation(module):
    from repro.partition.strategies import run_allocation

    run_allocation(module, Strategy.CB)
    return module


def test_factor_one_is_identity():
    module = module_after_allocation(_dot_module())
    before = sum(1 for _ in module.operations())
    report = unroll_inner_loops(module, 1)
    assert report.unrolled == []
    assert sum(1 for _ in module.operations()) == before


def test_runtime_count_skipped():
    pb = ProgramBuilder("u")
    n_in = pb.global_scalar("n_in", int, init=8)
    a = pb.global_array("a", 8, float, init=[1.0] * 8)
    out = pb.global_scalar("out", float)
    with pb.function("main") as f:
        n = f.index_var("n")
        f.assign(n, n_in[0])
        acc = f.float_var("acc")
        f.assign(acc, 0.0)
        with f.loop(n) as i:
            f.assign(acc, acc + a[i] * 1.0)
        f.assign(out[0], acc)
    module = module_after_allocation(pb.build())
    report = unroll_inner_loops(module, 2)
    assert report.unrolled == []


def test_unroll_report_records_loops():
    module = module_after_allocation(_dot_module())
    report = unroll_inner_loops(module, 2)
    assert len(report.unrolled) == 1
    func, loop, factor = report.unrolled[0]
    assert func == "main" and factor == 2


@pytest.mark.parametrize("name", ["fir_32_1", "mult_4_4", "latnrm_8_1"])
def test_kernels_correct_when_unrolled(name):
    workload = KERNELS[name]
    compiled = compile_module(
        workload.build(),
        CompileOptions(strategy=Strategy.CB, unroll_factor=2),
    )
    simulator = Simulator(compiled.program)
    simulator.run()
    workload.verify(simulator)


def test_unroll_composes_with_pipelining_and_dce():
    expected = sum(0.5 * (i % 7) for i in range(32))
    compiled = compile_module(
        _dot_module(),
        CompileOptions(
            strategy=Strategy.CB,
            unroll_factor=2,
            software_pipelining=True,
            optimize=True,
        ),
    )
    simulator = Simulator(compiled.program)
    simulator.run()
    assert simulator.read_global("out") == expected


@pytest.mark.parametrize("name", ["fir_256_64", "lmsfir_32_64"])
def test_unrolled_paper_kernels_never_slower(name):
    """Unrolling raises cross-iteration memory parallelism on the MAC
    kernels without restructuring the loop."""
    workload = KERNELS[name]

    def cycles(factor):
        compiled = compile_module(
            workload.build(),
            CompileOptions(strategy=Strategy.CB, unroll_factor=factor),
        )
        simulator = Simulator(compiled.program)
        result = simulator.run()
        workload.verify(simulator)
        return result.cycles

    assert cycles(4) <= cycles(1)
