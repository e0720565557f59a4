"""The list-scheduling core shared by graph construction and compaction.

This implements the operation-compaction algorithm of paper Figure 3,
which is based on local microcode compaction [Landskov et al. 1980]:

* a data-dependence graph is built for the basic block;
* each operation's priority is its number of descendants;
* the data-ready set (DRS) — operations whose flow/output predecessors
  have all been scheduled in earlier instructions — is processed in
  priority order, packing operations into the current long instruction;
* an operation with an *anti*-dependence on an operation already placed in
  the current instruction may still join it (reads happen before writes
  within a cycle), which is the paper's data-compatibility rule;
* function-unit compatibility is delegated to a policy object, so the same
  engine serves two masters:

  - **allocation mode** (:class:`repro.partition.graph_builder`): one
    memory unit is assumed, and each memory operation that is data-ready
    but blocked behind an already-placed memory operation contributes an
    interference edge (or a duplication mark);
  - **schedule mode** (:class:`repro.compiler.compaction`): the real nine
    units are modelled and bank tags route memory operations to MU0/MU1.

Terminators and pseudo operations (``LOOP_END``, ``NOP``) are excluded
from scheduling; the compaction pass re-attaches them to the block's final
instruction.
"""

from repro.analysis.dependence import DepKind
from repro.ir.operations import OpCode


class SchedulePolicy:
    """Callbacks customizing one run of the list scheduler."""

    def begin_round(self):
        """Called when a new (virtual) long instruction is opened."""

    def try_place(self, index, op):
        """Attempt to place *op*; return True when a unit accepted it."""
        raise NotImplementedError

    def memory_blocked(self, index, op, first_index, first_op):
        """Called when a data-ready memory op cannot issue because the
        memory resource is held by *first_op*, the first memory operation
        placed in the current instruction (paper Figure 3 italics)."""

    def end_round(self, placed):
        """Called when the current instruction closes; *placed* lists the
        ``(index, op)`` pairs it contains."""


def schedulable_indices(graph):
    """Indices of operations that participate in list scheduling.

    Terminators and ``LOOP_BEGIN`` are excluded: both must end up in the
    block's final instruction (a zero-trip hardware loop *skips* every
    instruction after the one holding its ``LOOP_BEGIN``, so nothing may
    be scheduled behind it), and the compaction pass attaches them after
    the normal operations are placed.
    """
    indices = []
    for i, op in enumerate(graph.ops):
        if op.is_terminator or op.opcode is OpCode.LOOP_BEGIN:
            continue
        if op.opcode in (OpCode.LOOP_END, OpCode.NOP):
            continue
        indices.append(i)
    return indices


def run_list_schedule(graph, policy):
    """Run the compaction algorithm over *graph* using *policy*.

    Returns the number of (virtual) instructions formed.  Raises
    ``RuntimeError`` if no progress can be made (which would indicate a
    cyclic dependence graph or a policy that refuses every op).
    """
    candidates = schedulable_indices(graph)
    priorities = graph.priorities()
    remaining = set(candidates)
    rounds = 0
    # Flow/output predecessors must sit in strictly earlier instructions:
    # an op is data-ready once every hard predecessor among the
    # candidates has left `remaining`, which happens only when a round
    # closes, so ops placed in the current instruction still block their
    # hard successors.
    pending = dict.fromkeys(candidates, 0)
    hard_succs = {index: [] for index in candidates}
    # A data-ready op's hard predecessors have all left `remaining`, and
    # ops outside the candidates never enter it, so only anti-only
    # predecessors among the candidates can keep an op out of the current
    # instruction: it may join once each of them is placed, here or in
    # an earlier instruction.
    anti_preds = {}
    for index in candidates:
        waits = anti_preds[index] = []
        for pred, kinds in graph.preds[index].items():
            if pred not in pending:
                continue
            if DepKind.FLOW in kinds or DepKind.OUTPUT in kinds:
                pending[index] += 1
                hard_succs[pred].append(index)
            else:
                waits.append(pred)
    data_ready = {index for index, count in pending.items() if not count}
    # position of each candidate in (priority descending, program order)
    rank = {
        index: position
        for position, index in enumerate(
            sorted(candidates, key=lambda i: (-priorities[i], i))
        )
    }
    ops = graph.ops
    try_place = policy.try_place

    while remaining:
        rounds += 1
        policy.begin_round()
        in_current = set()
        placed = []
        first_mem = None
        blocked_reported = set()

        # Data-ready set, sorted by priority (descendants), ties by
        # program order for determinism.  Readiness changes only when a
        # round closes, so it already holds every op that can join this
        # instruction; passes repeat over it while they place ops, which
        # admits the anti-dependent followers of ops placed earlier.
        drs = sorted(data_ready, key=rank.__getitem__)
        if not drs:
            raise RuntimeError("list scheduler made no progress (cyclic graph?)")

        progress = True
        while progress:
            progress = False
            for index in drs:
                if index in in_current:
                    continue
                waits = anti_preds[index]
                if waits and any(
                    pred in remaining and pred not in in_current for pred in waits
                ):
                    continue
                op = ops[index]
                if try_place(index, op):
                    in_current.add(index)
                    placed.append((index, op))
                    progress = True
                    if op.is_memory and first_mem is None:
                        first_mem = (index, op)
                elif (
                    op.is_memory
                    and first_mem is not None
                    and index not in blocked_reported
                ):
                    blocked_reported.add(index)
                    policy.memory_blocked(index, op, first_mem[0], first_mem[1])

        if not in_current:
            raise RuntimeError(
                "list scheduler stalled with %d ops remaining" % len(remaining)
            )
        remaining -= in_current
        data_ready -= in_current
        for index in in_current:
            for succ in hard_succs[index]:
                pending[succ] -= 1
                if not pending[succ]:
                    data_ready.add(succ)
        policy.end_round(placed)

    return rounds
