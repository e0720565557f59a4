"""Cross-backend fault-outcome identity.

For the same program and the same seeded FaultPlan, all three simulator
backends must classify the faulted run identically, and completed runs
must be bit-identical in architectural state and injector record —
because injection rides the interrupt-hook protocol whose delivery
cycles are already proven identical by the interrupt suite.  An armed
plan installs a hook, and every backend runs a hooked program one cycle
at a time, so crash/hang runs must also agree on the fault's pc and
cycle.
"""

import pytest

from repro.compiler import compile_module
from repro.faults.experiment import (
    OUTCOMES,
    comparable,
    reference_run,
    run_with_plan,
)
from repro.faults.plan import generate_plan
from repro.partition.strategies import Strategy
from repro.workloads.kernels.autocorr import Autocorr
from repro.workloads.kernels.fir import Fir
from repro.workloads.kernels.iir import Iir
from repro.workloads.registry import get_workload

BACKENDS = ("interp", "jit", "batch")


def _programs(workload, strategy):
    """One freshly compiled program per backend (compilation is
    deterministic, so the three are bit-identical)."""
    return {
        backend: compile_module(workload.build(), strategy=strategy).program
        for backend in BACKENDS
    }


def _identical_projections(workload, strategy, seed):
    programs = _programs(workload, strategy)
    results = {}
    for backend, program in programs.items():
        reference = reference_run(program, backend=backend)
        plan = generate_plan(seed, horizon=reference[0])
        results[backend] = run_with_plan(
            program, plan, backend=backend, reference=reference
        )
    projections = {b: comparable(r) for b, r in results.items()}
    for backend in BACKENDS[1:]:
        assert projections[backend] == projections[BACKENDS[0]], (
            workload.name, strategy.name, seed, backend,
        )
    return results[BACKENDS[0]]


@pytest.mark.parametrize("seed", range(6))
def test_fir_identity_under_faults(seed):
    result = _identical_projections(Fir(32, 1), Strategy.CB, seed)
    assert result["outcome"] in OUTCOMES


@pytest.mark.parametrize("seed", range(4))
def test_dup_identity_under_faults(seed):
    """CB_DUP exercises the dup cross-check (and its repair writes) on
    every backend — the detections themselves must agree."""
    result = _identical_projections(Iir(1, 1), Strategy.CB_DUP, seed)
    assert result["outcome"] in OUTCOMES


@pytest.mark.parametrize("seed", (0, 1))
def test_autocorr_identity_under_faults(seed):
    result = _identical_projections(Autocorr(), Strategy.CB_DUP, seed)
    assert result["outcome"] in OUTCOMES


def test_outcomes_actually_vary():
    """Sanity: injection is not a no-op — across a handful of seeds the
    classifier produces more than one outcome class."""
    outcomes = set()
    program = compile_module(Fir(32, 1).build(), strategy=Strategy.CB).program
    reference = reference_run(program)
    for seed in range(8):
        plan = generate_plan(seed, horizon=reference[0])
        outcomes.add(run_with_plan(program, plan, reference=reference)["outcome"])
    assert len(outcomes) >= 2


def test_hang_identity():
    """A starved cycle budget classifies as a hang on every backend,
    with the same machine error category."""
    projections = set()
    for backend in BACKENDS:
        program = compile_module(
            Fir(32, 1).build(), strategy=Strategy.CB
        ).program
        plan = generate_plan(0, horizon=100)
        result = run_with_plan(program, plan, backend=backend, max_cycles=8)
        assert result["outcome"] == "hang"
        projections.add(tuple(sorted(comparable(result).items())))
    assert len(projections) == 1


@pytest.mark.parametrize(
    "name, seed",
    [("latnrm_8_1", 1), ("mult_4_4", 1), ("histogram", 5)],
)
def test_crash_location_identity(name, seed):
    """Armed crashes report the interpreter's pc and cycle on every
    backend.  These three fault inside hardware loops that jit
    specializes on its hook-free path, where a loop closure would
    settle pc on the loop entry and overshoot the cycle count."""
    result = _identical_projections(get_workload(name), Strategy.CB, seed)
    assert result["outcome"] == "crash"
    assert result["error"]["pc"] is not None
    assert result["error"]["cycle"] is not None
