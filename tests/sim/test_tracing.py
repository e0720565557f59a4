"""Tests for profiling support (block execution counts).

Parametrized over all three simulator backends: block counts derive
from the per-pc execution counts, which the jit backend reconstructs
from superblock leader counts after the run and accumulates as bulk
per-level ``pc_counts[pc] += iterations`` updates, and the batch
backend counts per stepped cycle — all must be indistinguishable from
the reference interpreter's per-cycle counting.
"""

import types

import pytest

from repro.compiler import compile_module
from repro.evaluation.runner import profile_counts
from repro.frontend import ProgramBuilder
from repro.partition.strategies import Strategy
from repro.sim import LoopJitSimulator, make_simulator
from repro.sim.tracing import collect_block_counts

pytestmark = pytest.mark.parametrize("backend", ["interp", "jit", "batch"])


def _loop_module():
    pb = ProgramBuilder("t")
    out = pb.global_scalar("out", float)
    with pb.function("main") as f:
        acc = f.float_var("acc")
        f.assign(acc, 0.0)
        with f.loop(10):
            f.assign(acc, acc + 1.0)
        f.assign(out[0], acc)
    return pb.build()


def test_block_counts_reflect_trip_counts(backend):
    module = _loop_module()
    compiled = compile_module(module, strategy=Strategy.SINGLE_BANK)
    sim = make_simulator(compiled.program, backend=backend)
    result = sim.run()
    from repro.sim.batchsim import BatchSimulator

    if isinstance(sim, BatchSimulator):
        # The lockstep backend always dispatches per instruction (its
        # divergence guards live in the step table).
        assert sim._steps is not None
    elif isinstance(sim, LoopJitSimulator):
        # Hook-free profiling runs stay on the fused superblock path.
        assert sim._blocks is not None
        assert sim._steps is None
    counts = collect_block_counts(compiled.program, result)
    body_labels = [b.label for b in module.main.blocks if b.loop_depth == 1]
    for label in body_labels:
        assert counts[label] == 10
    entry_label = module.main.blocks[0].label
    assert counts[entry_label] == 1


def test_block_counts_identical_across_backends(backend):
    compiled = compile_module(_loop_module(), strategy=Strategy.SINGLE_BANK)
    result = make_simulator(compiled.program, backend=backend).run()
    counts = collect_block_counts(compiled.program, result)
    reference_compiled = compile_module(
        _loop_module(), strategy=Strategy.SINGLE_BANK
    )
    reference = collect_block_counts(
        reference_compiled.program,
        make_simulator(reference_compiled.program, backend="interp").run(),
    )
    assert counts == reference


#: a workload-shaped source for :func:`profile_counts`
_LOOP_SOURCE = types.SimpleNamespace(build=_loop_module)


def test_profile_module_helper(backend):
    counts = profile_counts(_LOOP_SOURCE)
    assert max(counts.values()) == 10


def test_profile_feeds_cb_profile_strategy(backend):
    counts = profile_counts(_LOOP_SOURCE)
    compiled = compile_module(
        _loop_module(), strategy=Strategy.CB_PROFILE, profile_counts=counts
    )
    sim = make_simulator(compiled.program, backend=backend)
    sim.run()
    assert sim.read_global("out") == 10.0
