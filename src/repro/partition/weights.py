"""Edge-weight policies for the interference graph.

The paper's heuristic (Section 3.1) weighs an edge by the loop-nesting
depth of the memory operations that could execute in parallel, giving the
highest priority to load/store parallelism inside inner loops.  The ``Pr``
configuration of Figure 8 replaces the heuristic with profile-driven
weights — execution counts gathered by simulating the baseline binary.
"""


class StaticDepthWeights:
    """The paper's loop-nesting-depth heuristic.

    A block outside any loop contributes weight 1, a block inside one loop
    weight 2, and so on (paper Figure 4 assigns weight 2 to the pair that
    is parallel inside the single loop and 1 to the pairs outside it).

    The paper leaves repeated occurrences of the same pair unspecified; we
    accumulate them, so a pair that could issue in parallel several times
    per iteration outweighs one that could pair only once.  Without
    accumulation, uniformly-weighted inner-loop graphs (e.g. an FFT
    butterfly) leave the greedy partitioner stuck in zero-gain ties.
    Set ``accumulate = False`` to study the max-weight variant; the
    comparison of the two is
    ``tests/partition/test_weights.py::test_accumulated_weights_never_cut_worse_than_max``.
    """

    def __init__(self, accumulate=True):
        self.accumulate = accumulate

    def weight(self, block):
        return block.loop_depth + 1


class ProfileWeights:
    """Profile-driven weights: the block's measured execution count.

    ``counts`` maps block label -> execution count, as collected by
    :func:`repro.sim.tracing.collect_block_counts`.  Occurrences of the
    same pair accumulate, so an edge's weight approximates the number of
    dynamic opportunities for a parallel access.  Blocks never executed in
    the profiling run still contribute a weight of 1 so that cold code is
    partitioned rather than ignored.
    """

    accumulate = True

    def __init__(self, counts):
        self.counts = dict(counts)

    def weight(self, block):
        return max(1, self.counts.get(block.label, 0))
