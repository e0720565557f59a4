"""Profiling support: post-run attribution over ``pc_counts``.

This module is the simulators' profiling hook surface: every backend
records per-pc execution counts during every run (the jit backend
settles its fused superblocks' interior counts before returning and
adds whole-loop iteration counts in bulk), and
everything else — block counts for the ``Pr`` configuration, hot-block
rollups, the :mod:`repro.obs.profile` conflict ledger — is derived here
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


def collect_hot_blocks(program, result, n=10):
    """Top-*n* basic blocks by attributed cycles.

    Returns ``(label, cycles, instructions)`` triples, heaviest first
    (ties broken by label for determinism).  A block's cycles are the
    sum of its instructions' execution counts — the block-level rollup
    of the per-pc attribution :mod:`repro.obs.profile` reports.
    """
    cycles = {}
    sizes = {}
    for index, instruction in enumerate(program.instructions):
        label = instruction.block_label
        if label is None:
            continue
        cycles[label] = cycles.get(label, 0) + result.pc_counts[index]
        sizes[label] = sizes.get(label, 0) + 1
    ranked = sorted(cycles, key=lambda label: (-cycles[label], label))
    return [(label, cycles[label], sizes[label]) for label in ranked[:n]]


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
