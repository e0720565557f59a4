"""The data-allocation pass: one entry point for every paper configuration.

==============  ======================================================
Strategy        Meaning (paper labels in parentheses)
==============  ======================================================
``SINGLE_BANK`` allocation pass disabled; all data in the X bank — the
                baseline every figure normalizes against
``CB``          compaction-based partitioning, static loop-depth edge
                weights (figures' *CB*)
``CB_PROFILE``  CB with profile-driven edge weights (Figure 8's *Pr*)
``CB_DUP``      CB plus partial data duplication (Figure 8's *Dup*)
``FULL_DUP``    every variable duplicated into both banks (Table 3's
                *Full Duplication*)
``IDEAL``       dual-ported memory: placement does not constrain
                parallel access (figures' *Ideal*)
==============  ======================================================

The pass runs once per compiled module: it assigns every partitionable
symbol a bank, optionally rewrites stores for duplication, and tags every
memory operation with the bank holding its data — the tag the compaction
pass uses to route the operation to MU0 or MU1.
"""

import enum

from repro.ir.symbols import MemoryBank
from repro.partition.duplication import (
    duplicate_symbols,
    full_duplication_symbols,
    select_beneficial,
)
from repro.partition.graph_builder import build_interference_graph
from repro.partition.registry import (
    DEFAULT_PARTITIONER,
    PARTITIONERS,
    make_partitioner,
)
from repro.partition.weights import ProfileWeights, StaticDepthWeights


class Strategy(enum.Enum):
    """The data-allocation configurations (paper labels in the module
    docstring table above)."""

    SINGLE_BANK = "single"
    CB = "cb"
    CB_PROFILE = "cb_profile"
    CB_DUP = "cb_dup"
    #: Partial duplication restricted to candidates whose estimated
    #: benefit exceeds their integrity-store penalty — the refinement
    #: the paper's Section 5 proposes for low-PCR cases like spectral.
    CB_DUP_SELECTIVE = "cb_dup_selective"
    FULL_DUP = "full_dup"
    IDEAL = "ideal"
    #: The simple greedy baseline the paper's Section 2 attributes to
    #: Sudarsanam & Malik: allocate variables to alternating banks in
    #: order, with no interference analysis.  What the interference
    #: graph buys over it is checked by
    #: ``tests/partition/test_strategies.py::test_cb_never_loses_to_alternation``.
    ALTERNATING = "alternating"

    @property
    def needs_profile(self):
        return self is Strategy.CB_PROFILE

    def __repr__(self):
        return "Strategy.%s" % self.name


#: Display labels matching the paper's figures.
PAPER_LABELS = {
    Strategy.SINGLE_BANK: "baseline",
    Strategy.CB: "CB",
    Strategy.CB_PROFILE: "Pr",
    Strategy.CB_DUP: "Dup",
    Strategy.CB_DUP_SELECTIVE: "SelDup",
    Strategy.FULL_DUP: "FullDup",
    Strategy.IDEAL: "Ideal",
    Strategy.ALTERNATING: "Alt",
}


class AllocationResult:
    """What the allocation pass decided, for inspection and reporting."""

    def __init__(
        self,
        strategy,
        graph=None,
        partition=None,
        duplicated=(),
        duplication_decisions=(),
        partitioner=None,
    ):
        self.strategy = strategy
        #: The interference graph (None for SINGLE_BANK / IDEAL / FULL_DUP).
        self.graph = graph
        #: The :class:`PartitionResult` (None when not partitioned).
        self.partition = partition
        #: Registry name of the partitioner that produced ``partition``
        #: (None when the strategy does not partition).
        self.partitioner = partitioner
        #: Symbols replicated into both banks.
        self.duplicated = list(duplicated)
        #: Selective-duplication log: (symbol, benefit, penalty, selected).
        self.duplication_decisions = list(duplication_decisions)

    @property
    def dual_ported(self):
        """Whether the scheduler should ignore banks (Ideal memory)."""
        return self.strategy is Strategy.IDEAL

    def bank_summary(self, module):
        """Map bank label -> sorted symbol names, for reports."""
        summary = {"X": [], "Y": [], "XY": []}
        for symbol in module.all_symbols():
            if symbol.bank is not None:
                summary[symbol.bank.value].append(symbol.name)
        for names in summary.values():
            names.sort()
        return summary


def _tag_memory_ops(module):
    for op in module.operations():
        if op.is_memory and op.bank is None:
            op.bank = op.symbol.bank


def run_allocation(module, strategy, profile_counts=None, interrupt_safe=True,
                   observe=None, partitioner=DEFAULT_PARTITIONER):
    """Run the data-allocation pass over *module* under *strategy*.

    The module is mutated (symbol banks, memory-op tags, and — for the
    duplication strategies — rewritten stores), so each module instance
    may be allocated only once; build a fresh module per configuration.

    ``partitioner`` names the interference-graph partitioner
    (:data:`~repro.partition.registry.PARTITIONERS`; the paper's greedy
    by default) used by the CB-family strategies.
    Partitioners only move the cut cost, never program semantics, so
    every choice compiles to a correct program (the fuzz oracle's
    partitioner stage checks exactly that).

    ``observe`` is an optional :class:`~repro.obs.core.Recorder`; when
    given, the graph build and the partition each get a timed span
    (``graph_build`` / ``partition``) with their headline metrics, the
    latter tagged with the partitioner name.
    """
    if observe is None:
        from repro.obs.core import NULL_RECORDER as observe
    if partitioner not in PARTITIONERS:
        raise ValueError(
            "unknown partitioner %r (choose from: %s)"
            % (partitioner, ", ".join(sorted(PARTITIONERS)))
        )
    if getattr(module, "_allocated", None) is not None:
        raise RuntimeError(
            "module %r was already allocated with %s; rebuild it before "
            "allocating again" % (module.name, module._allocated)
        )
    module._allocated = strategy

    for symbol in module.all_symbols():
        symbol.bank = MemoryBank.X

    if strategy in (Strategy.SINGLE_BANK, Strategy.IDEAL):
        _tag_memory_ops(module)
        return AllocationResult(strategy)

    if strategy is Strategy.FULL_DUP:
        duplicated = full_duplication_symbols(module, interrupt_safe)
        _tag_memory_ops(module)
        return AllocationResult(strategy, duplicated=duplicated)

    if strategy is Strategy.ALTERNATING:
        for position, symbol in enumerate(module.partitionable_symbols()):
            symbol.bank = MemoryBank.X if position % 2 == 0 else MemoryBank.Y
        _tag_memory_ops(module)
        return AllocationResult(strategy)

    if strategy is Strategy.CB_PROFILE:
        if profile_counts is None:
            raise ValueError("CB_PROFILE requires profile_counts")
        weights = ProfileWeights(profile_counts)
    elif strategy is Strategy.CB_DUP_SELECTIVE and profile_counts is not None:
        # Selective duplication estimates benefit vs penalty; measured
        # execution counts sharpen both estimates when available.
        weights = ProfileWeights(profile_counts)
    else:
        weights = StaticDepthWeights()

    with observe.span("graph_build") as span:
        graph = build_interference_graph(module, weights)
        span.set(
            nodes=len(graph),
            edges=sum(1 for _edge in graph.edges()),
            total_weight=graph.total_weight(),
            duplication_candidates=len(graph.duplication_candidates),
        )
    with observe.span("partition") as span:
        partition = make_partitioner(graph, partitioner).partition(
            observe=observe
        )
        span.set(
            partitioner=partitioner,
            initial_cost=partition.initial_cost,
            final_cost=partition.final_cost,
            moves=len(partition.cost_trace) - 1,
        )
    for symbol in partition.set_x:
        symbol.bank = MemoryBank.X
    for symbol in partition.set_y:
        symbol.bank = MemoryBank.Y

    duplicated = []
    decisions = []
    if strategy is Strategy.CB_DUP:
        duplicated = duplicate_symbols(
            module, graph.duplication_candidates, interrupt_safe
        )
    elif strategy is Strategy.CB_DUP_SELECTIVE:
        chosen, decisions = select_beneficial(module, graph, weights)
        duplicated = duplicate_symbols(module, chosen, interrupt_safe)
    _tag_memory_ops(module)
    return AllocationResult(
        strategy, graph, partition, duplicated, decisions,
        partitioner=partitioner,
    )
