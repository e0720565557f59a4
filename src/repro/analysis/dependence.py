"""Per-block data-dependence graphs.

The compaction algorithm (paper Figure 3) is local in scope: a dependence
graph is built for every basic block, covering

* register dependences — flow (read-after-write), anti (write-after-read),
  and output (write-after-write) — through virtual or physical registers;
* memory dependences between operations that may touch the same address:
  two accesses conflict when they name the same symbol (or either symbol is
  *opaque*, the paper's conservative no-alias-information case), unless both
  use distinct compile-time-constant indices;
* call barriers — a ``CALL`` is treated as reading and writing all memory.

The integrity (``shadow``) store added by data duplication writes the
*other* bank's copy of the same symbol: it never conflicts with its primary
store, which is what lets the pair pack into one long instruction.

Priorities follow the paper: an operation's priority is its number of
descendants in the dependence graph.
"""

import enum

from repro.ir.operations import OpCode
from repro.ir.values import Immediate


class DepKind(enum.Enum):
    """Dependence kinds: flow (RAW), anti (WAR), output (WAW)."""

    # Members are singletons: hash by identity in C, not by Enum's
    # Python-level hash of the member name.
    __hash__ = object.__hash__

    FLOW = "flow"
    ANTI = "anti"
    OUTPUT = "output"

    def __repr__(self):
        return "DepKind.%s" % self.name


class DependenceGraph:
    """Dependences among the operations of one basic block.

    Nodes are operation indices into ``ops``.  ``succs[i]`` maps successor
    index -> set of :class:`DepKind`; ``preds`` is the mirror image.
    """

    def __init__(self, ops):
        self.ops = list(ops)
        n = len(self.ops)
        self.succs = [{} for _ in range(n)]
        self.preds = [{} for _ in range(n)]
        self._priority = None

    def add_edge(self, src, dst, kind):
        if src == dst:
            raise ValueError("self-dependence at op %d" % src)
        kinds = self.succs[src].get(dst)
        if kinds is None:
            # preds mirrors succs, so one set serves both directions
            kinds = self.succs[src][dst] = self.preds[dst][src] = set()
        kinds.add(kind)

    def has_edge(self, src, dst, kind=None):
        kinds = self.succs[src].get(dst)
        if kinds is None:
            return False
        return True if kind is None else kind in kinds

    def hard_preds(self, node):
        """Predecessors through FLOW or OUTPUT edges (gate readiness)."""
        return [
            p
            for p, kinds in self.preds[node].items()
            if DepKind.FLOW in kinds or DepKind.OUTPUT in kinds
        ]

    def anti_preds(self, node):
        """Predecessors through ANTI-only edges (allow same-cycle issue)."""
        return [
            p
            for p, kinds in self.preds[node].items()
            if kinds == {DepKind.ANTI}
        ]

    def priorities(self):
        """Priority of every op: its number of descendants (paper Sec 3.1)."""
        if self._priority is not None:
            return self._priority
        n = len(self.ops)
        # descendant sets as int bitmasks: bit i set when op i is reached
        descendants = [None] * n
        visiting = [False] * n

        def visit(node):
            if descendants[node] is not None:
                return descendants[node]
            if visiting[node]:
                raise ValueError("cycle in dependence graph at op %d" % node)
            visiting[node] = True
            reached = 0
            for succ in self.succs[node]:
                reached |= (1 << succ) | visit(succ)
            visiting[node] = False
            descendants[node] = reached
            return reached

        for node in range(n):
            visit(node)
        self._priority = [mask.bit_count() for mask in descendants]
        return self._priority

    def __len__(self):
        return len(self.ops)


def _memory_conflict(op_a, op_b):
    """Whether two memory operations may touch the same address.

    Returns False for provably-disjoint accesses: different non-opaque
    symbols, distinct constant indices into the same symbol, or the
    primary/shadow store pair of a duplicated symbol (they write different
    banks' copies of the same element).
    """
    sym_a, sym_b = op_a.symbol, op_b.symbol
    if sym_a.opaque or sym_b.opaque:
        return True
    if sym_a is not sym_b:
        return False
    if op_a.is_store and op_b.is_store and op_a.shadow != op_b.shadow:
        return False
    const_a = _constant_address(op_a)
    const_b = _constant_address(op_b)
    if const_a is not None and const_b is not None and const_a != const_b:
        return False
    return True


def _constant_address(op):
    """The compile-time-constant effective index of *op*, or None."""
    index = op.index_operand()
    if not isinstance(index, Immediate):
        return None
    offset = op.offset_operand()
    if offset is None:
        return index.value
    if isinstance(offset, Immediate):
        return index.value + offset.value
    return None


def build_dependence_graph(ops):
    """Build the :class:`DependenceGraph` for one block's operation list."""
    graph = DependenceGraph(ops)
    last_writer = {}
    readers_since_write = {}
    memory_ops = []
    barrier_ops = []

    for i, op in enumerate(graph.ops):
        is_barrier = op.opcode is OpCode.CALL

        for reg in op.reads():
            writer = last_writer.get(reg)
            if writer is not None and writer != i:
                graph.add_edge(writer, i, DepKind.FLOW)
            readers_since_write.setdefault(reg, []).append(i)
        reg = op.dest  # the one register an operation writes
        if reg is not None:
            writer = last_writer.get(reg)
            if writer is not None and writer != i:
                graph.add_edge(writer, i, DepKind.OUTPUT)
            for reader in readers_since_write.get(reg, []):
                if reader != i:
                    graph.add_edge(reader, i, DepKind.ANTI)
            last_writer[reg] = i
            readers_since_write[reg] = []

        if op.is_memory:
            for j in memory_ops:
                other = graph.ops[j]
                if not _memory_conflict(other, op):
                    continue
                if other.is_store and op.is_load:
                    graph.add_edge(j, i, DepKind.FLOW)
                elif other.is_load and op.is_store:
                    graph.add_edge(j, i, DepKind.ANTI)
                elif other.is_store and op.is_store:
                    graph.add_edge(j, i, DepKind.OUTPUT)
            for j in barrier_ops:
                graph.add_edge(j, i, DepKind.FLOW)
            memory_ops.append(i)
        elif is_barrier:
            for j in memory_ops:
                graph.add_edge(j, i, DepKind.FLOW)
            for j in barrier_ops:
                graph.add_edge(j, i, DepKind.FLOW)
            barrier_ops.append(i)
    return graph
