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
:func:`repro.evaluation.runner.profile_counts` compiles a workload that
way, simulates it, and maps the per-instruction execution counts back to
source-block labels with :func:`collect_block_counts`.
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
