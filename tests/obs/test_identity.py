"""Profiling off must change nothing: bit-identical cycles and state.

Two separate guarantees:

* compiling with a live :class:`Recorder` produces the *same program*
  as compiling without one (instrumentation only observes the passes);
* profiling a finished run (:func:`profile_run`) mutates neither the
  program nor the result, on any simulator backend.
"""

from repro.compiler import CompileOptions, compile_module
from repro.obs.core import Recorder
from repro.obs.profile import profile_run
from repro.partition.strategies import Strategy
from repro.sim import BACKENDS, make_simulator


def _compile(module, observe=None):
    return compile_module(
        module, CompileOptions(strategy=Strategy.CB, observe=observe)
    )


def test_observed_compile_emits_identical_program(dot_product_module):
    plain = _compile(dot_product_module())
    recorder = Recorder()
    observed = _compile(dot_product_module(), observe=recorder)
    assert recorder.find("compile") is not None
    assert observed.program.dump() == plain.program.dump()
    assert observed.code_size == plain.code_size


def test_backends_bit_identical_with_and_without_profiling(
    dot_product_module,
):
    program = _compile(dot_product_module()).program
    reference = None
    for backend in sorted(BACKENDS):
        # Unprofiled run.
        plain_sim = make_simulator(program, backend=backend)
        plain = plain_sim.run()
        plain_digest = plain_sim.state_digest()

        # Profiled run: same program, fresh simulator, full profile.
        profiled_sim = make_simulator(program, backend=backend)
        profiled = profiled_sim.run()
        before = profiled_sim.state_digest()
        profile = profile_run(program, profiled)
        profile.to_dict(top=10)  # force every lazy view
        after = profiled_sim.state_digest()

        assert before == after, "profiling mutated %s state" % backend
        assert profiled.cycles == plain.cycles
        assert list(profiled.pc_counts) == list(plain.pc_counts)
        assert plain_digest == before

        if reference is None:
            reference = (plain.cycles, list(plain.pc_counts), plain_digest)
        else:
            assert (
                plain.cycles, list(plain.pc_counts), plain_digest
            ) == reference, "backend %s diverged" % backend


def test_profile_run_leaves_result_counts_untouched(dot_product_module):
    compiled = _compile(dot_product_module())
    simulator = make_simulator(compiled.program, backend="jit")
    result = simulator.run()
    snapshot = list(result.pc_counts)
    profile = profile_run(compiled.program, result)
    profile.conflicts()
    profile.bank_accesses()
    profile.hot_pcs()
    assert list(result.pc_counts) == snapshot
