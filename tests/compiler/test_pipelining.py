"""Tests for software pipelining of inner hardware loops (Figure 1)."""

import pytest

from repro.compiler import CompileOptions, compile_module
from repro.frontend import ProgramBuilder
from repro.partition.strategies import Strategy
from repro.sim.simulator import Simulator
from repro.workloads.registry import KERNELS, all_workloads, get_workload


def _fir_module(taps=16):
    pb = ProgramBuilder("fir_sp")
    coeff = pb.global_array("coeff", taps, float, init=[0.5] * taps)
    x = pb.global_array(
        "x", taps, float, init=[float(i) for i in range(taps)]
    )
    out = pb.global_scalar("out", float)
    with pb.function("main") as f:
        acc = f.float_var("acc")
        f.assign(acc, 0.0)
        with f.loop(taps) as k:
            f.assign(acc, acc + coeff[k] * x[k])
        f.assign(out[0], acc)
    return pb.build()


def _run(module, software_pipelining, strategy=Strategy.CB):
    compiled = compile_module(
        module,
        CompileOptions(strategy=strategy, software_pipelining=software_pipelining),
    )
    simulator = Simulator(compiled.program)
    result = simulator.run()
    return compiled, simulator, result


def test_pipelining_preserves_semantics_and_speeds_up():
    expected = sum(0.5 * float(i) for i in range(16))
    _c0, sim0, base = _run(_fir_module(), False)
    compiled, sim1, piped = _run(_fir_module(), True)
    assert sim0.read_global("out") == expected
    assert sim1.read_global("out") == expected
    assert piped.cycles < base.cycles
    assert compiled.pipelining.pipelined


def test_steady_state_body_is_one_instruction():
    compiled, _sim, _result = _run(_fir_module(), True)
    program = compiled.program
    (start, end) = program.loops["main.L0"]
    assert start == end  # the paper's single-instruction MAC loop
    ops = program.instructions[start].ops
    opcodes = sorted(op.opcode.name for op in ops)
    assert "FMAC" in opcodes
    assert opcodes.count("LOAD") == 2


def test_single_iteration_loop_handled():
    pb = ProgramBuilder("one")
    a = pb.global_array("a", 1, float, init=[3.0])
    b = pb.global_array("b", 1, float, init=[4.0])
    out = pb.global_scalar("out", float)
    with pb.function("main") as f:
        acc = f.float_var("acc")
        f.assign(acc, 0.0)
        with f.loop(1) as i:
            f.assign(acc, acc + a[i] * b[i])
        f.assign(out[0], acc)
    _c, sim, _r = _run(pb.build(), True)
    assert sim.read_global("out") == 12.0


def test_loops_with_stores_to_loaded_symbol_skipped():
    """lmsfir-style update loop: h is loaded and stored — the load must
    not be rotated past the store."""
    pb = ProgramBuilder("alias")
    h = pb.global_array("h", 8, float, init=[1.0] * 8)
    x = pb.global_array("x", 8, float, init=[2.0] * 8)
    out = pb.global_scalar("out", float)
    with pb.function("main") as f:
        with f.loop(8) as i:
            f.assign(h[i], h[i] + x[i])
        f.assign(out[0], h[0] + h[7])
    compiled, sim, _r = _run(pb.build(), True)
    assert sim.read_global("out") == 6.0
    pipelined_loads = sum(n for _f, _l, n in compiled.pipelining.pipelined)
    # x[i] may rotate; h[i] must not.
    for _func, _loop, count in compiled.pipelining.pipelined:
        assert count <= 1


def test_runtime_trip_count_loops_skipped():
    pb = ProgramBuilder("runtime")
    a = pb.global_array("a", 8, float, init=[1.0] * 8)
    b = pb.global_array("b", 8, float, init=[1.0] * 8)
    n_in = pb.global_scalar("n_in", int, init=8)
    out = pb.global_scalar("out", float)
    with pb.function("main") as f:
        n = f.index_var("n")
        f.assign(n, n_in[0])
        acc = f.float_var("acc")
        f.assign(acc, 0.0)
        with f.loop(n) as i:
            f.assign(acc, acc + a[i] * b[i])
        f.assign(out[0], acc)
    compiled, sim, _r = _run(pb.build(), True)
    assert sim.read_global("out") == 8.0
    assert compiled.pipelining.pipelined == []


def test_nested_loop_pipelines_inner_only():
    pb = ProgramBuilder("nested")
    a = pb.global_array("a", 24, float, init=[1.0] * 24)
    b = pb.global_array("b", 8, float, init=[2.0] * 8)
    out = pb.global_array("out", 3, float)
    with pb.function("main") as f:
        with f.loop(3, name="r") as r:
            acc = f.float_var("acc")
            f.assign(acc, 0.0)
            row = f.index_var("row")
            f.assign(row, r * 8)
            with f.loop(8, name="c") as c:
                f.assign(acc, acc + a[row + c] * b[c])
            f.assign(out[r], acc)
    compiled, sim, _r = _run(pb.build(), True)
    assert sim.read_global("out") == [16.0, 16.0, 16.0]
    loops = [loop for _f, loop, _n in compiled.pipelining.pipelined]
    assert len(loops) == 1  # only the inner (constant-count) loop


@pytest.mark.parametrize(
    "name", ["fir_32_1", "mult_4_4", "latnrm_8_1", "iir_1_1", "lmsfir_8_1"]
)
def test_kernels_correct_with_pipelining(name):
    workload = KERNELS[name]
    compiled = compile_module(
        workload.build(),
        CompileOptions(strategy=Strategy.CB, software_pipelining=True),
    )
    simulator = Simulator(compiled.program)
    simulator.run()
    workload.verify(simulator)


@pytest.mark.parametrize(
    ("name", "expect_faster"),
    [
        ("fir_32_1", True),
        ("mult_4_4", False),
        ("fir_256_64", True),
        ("mult_10_10", False),
        ("latnrm_32_64", True),
        ("lmsfir_32_64", True),
        ("iir_4_64", False),
    ]
    + [
        pytest.param(name, None, id=name + "-never-slower")
        for name in sorted(all_workloads())
    ],
)
def test_pipelining_profitability(name, expect_faster):
    """Memory-bound loops (fir, latnrm, lmsfir) get faster; loops bound
    elsewhere (mult's AU-heavy body, iir's recurrence) are skipped by
    the profitability check and must not regress.  No registry workload
    may get slower (``expect_faster`` None): a rotation whose register
    pressure makes linear scan spill is declined (adpcm, V32encode)."""
    workload = get_workload(name)

    def cycles(sp):
        compiled = compile_module(
            workload.build(),
            CompileOptions(strategy=Strategy.CB, software_pipelining=sp),
        )
        sim = Simulator(compiled.program)
        result = sim.run()
        workload.verify(sim)
        return result.cycles

    with_sp = cycles(True)
    without_sp = cycles(False)
    if expect_faster is None:
        assert with_sp <= without_sp
    elif expect_faster:
        assert with_sp < without_sp
    else:
        assert with_sp == without_sp


def test_pipelined_fir_halves_like_figure1():
    """The flagship: fir_256_64's inner loop becomes the paper's single
    MAC-plus-two-loads instruction, nearly halving its cycles."""
    workload = KERNELS["fir_256_64"]
    plain = _run(workload.build(), False)[2].cycles
    piped = _run(workload.build(), True)[2].cycles
    assert plain / piped > 1.6
