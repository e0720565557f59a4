"""Profiling support: post-run attribution over ``pc_counts``.

This module is the simulators' profiling hook surface: every backend
records per-pc execution counts during every run (the jit backend
settles its fused superblocks' interior counts before returning and
adds whole-loop iteration counts in bulk), and
everything else — block counts for the ``Pr`` configuration, the
:mod:`repro.obs.profile` conflict ledger — is derived here
*after* the run from ``(program, result)``.  Keeping attribution
post-run means profiling can never perturb what it measures and the
jit backend's fused path stays fused.

The ``Pr`` configuration of paper Figure 8 replaces the static loop-depth
edge weights with profile-driven ones.  The natural profile is the number
of times each basic block executed in the *baseline* (single-bank) binary:
``profile_module`` compiles a module that way, simulates it, and maps the
per-instruction execution counts back to source-block labels.
"""


def collect_block_counts(program, result):
    """Aggregate per-pc counts from *result* to basic-block labels."""
    counts = {}
    for index, instruction in enumerate(program.instructions):
        label = instruction.block_label
        if label is None:
            continue
        executed = result.pc_counts[index]
        # Every instruction of a block runs the same number of times, so
        # keeping the maximum is robust even if decoding skipped some.
        if executed > counts.get(label, 0):
            counts[label] = executed
    return counts


def profile_module(module_factory, setup=None, stack_words=16384):
    """Profile a benchmark: returns block label -> execution count.

    ``module_factory`` builds a fresh module (the baseline compile consumes
    it); ``setup(simulator)`` may preload input data before the run.
    """
    from repro.compiler import compile_module
    from repro.partition.strategies import Strategy
    from repro.sim.simulator import Simulator

    compiled = compile_module(module_factory(), strategy=Strategy.SINGLE_BANK)
    simulator = Simulator(compiled.program, stack_words=stack_words)
    if setup is not None:
        setup(simulator)
    result = simulator.run()
    return collect_block_counts(compiled.program, result)
