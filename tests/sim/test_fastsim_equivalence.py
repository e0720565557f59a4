"""Differential testing: the compiled backends against the reference.

Every (workload, strategy) pair is compiled once and simulated on every
backend; the jit and batch backends must be bit-identical to the
reference interpreter — same cycle count, same operation total, same
per-pc execution counts, same stack peaks, and the same final memory
and register-file state.

Tier-1 runs cover a small but representative subset (kernels and
applications exercising hardware loops, calls, duplication, and the
profile-driven configuration).  The exhaustive sweep over every
registered workload runs under ``-m full_diff``.
"""

import pytest

from repro.compiler import CompileOptions, compile_module
from repro.partition.strategies import Strategy
from repro.sim import make_simulator
from repro.sim.simulator import Simulator
from repro.sim.tracing import collect_block_counts
from repro.workloads.registry import APPLICATIONS, KERNELS, get_workload

#: tier-1 subset: small kernels plus applications with calls/duplication
SMALL_SUBSET = ("fir_32_1", "iir_1_1", "mult_4_4", "histogram", "adpcm")

ALL_WORKLOADS = tuple(KERNELS) + tuple(APPLICATIONS)

ALL_STRATEGIES = tuple(Strategy)


def _profile_counts(workload):
    compiled = compile_module(workload.build(), strategy=Strategy.SINGLE_BANK)
    simulator = Simulator(compiled.program)
    return collect_block_counts(compiled.program, simulator.run())


def _measure(workload, strategy, backend):
    counts = _profile_counts(workload) if strategy.needs_profile else None
    compiled = compile_module(
        workload.build(),
        CompileOptions(strategy=strategy, profile_counts=counts),
    )
    simulator = make_simulator(compiled.program, backend=backend)
    result = simulator.run()
    workload.verify(simulator)
    return simulator, result


def _assert_equivalent(name, strategy):
    workload = get_workload(name)
    reference, expected = _measure(workload, strategy, "interp")
    for backend in ("jit", "batch"):
        compiled_sim, actual = _measure(workload, strategy, backend)
        label = "%s/%s/%s" % (name, strategy.name, backend)
        assert actual.cycles == expected.cycles, label
        assert actual.operations == expected.operations, label
        assert actual.pc_counts == expected.pc_counts, label
        assert actual.stack_peak_x == expected.stack_peak_x, label
        assert actual.stack_peak_y == expected.stack_peak_y, label
        assert compiled_sim.memory == reference.memory, label
        assert compiled_sim.registers == reference.registers, label


@pytest.mark.parametrize("strategy", ALL_STRATEGIES, ids=lambda s: s.name)
@pytest.mark.parametrize("name", SMALL_SUBSET)
def test_backends_agree_small(name, strategy):
    _assert_equivalent(name, strategy)


@pytest.mark.full_diff
@pytest.mark.parametrize("strategy", ALL_STRATEGIES, ids=lambda s: s.name)
@pytest.mark.parametrize("name", ALL_WORKLOADS)
def test_backends_agree_exhaustive(name, strategy):
    _assert_equivalent(name, strategy)
