"""Exact minimum-cost partitioning via branch and bound.

Two-way minimum-cost partitioning of the interference graph is the
complement of maximum cut (``cost = total_weight - cut_weight``), so it
is NP-complete — but the graphs this compiler actually partitions are
tiny: every workload in the registry and every program the fuzz grammar
emits produces well under 20 partitionable symbols (the paper's own
benchmarks are in the same range).  At that size an exact search with
interference-weight bounds answers in microseconds, which is what makes
"how far from optimal is greedy?" a measurable question
(:mod:`repro.evaluation.partition_gap`) instead of folklore.

The search assigns nodes to banks one at a time in decreasing order of
incident weight and prunes a subtree as soon as

    cost(assigned same-side edges)
      + sum over unassigned nodes of min(weight to X side, weight to Y side)

reaches the incumbent: the second term is a valid lower bound because a
node must eventually join one side and then pays at least its lighter
connection to the already-assigned nodes, while edges between two
unassigned nodes are (optimistically) assumed cut.  The incumbent starts
at the greedy partition, so the exact result can never be worse than
greedy, and the first-node-stays-in-X convention halves the 2^n space.

Beyond :data:`ExactPartitioner.NODE_LIMIT` nodes the solver does not
attempt the search at all: it returns the greedy incumbent with
``proved_optimal=False`` so callers can still ask for "exact" uniformly
and read the flag.
"""

from repro.partition.greedy import GreedyPartitioner, PartitionResult


class ExactPartitioner:
    """Branch-and-bound minimum-cost (maximum-cut) partitioner.

    Worst case O(2^v), but the weight-based lower bound and the greedy
    incumbent prune the search to a small fraction of that on real
    interference graphs.  Fully deterministic: node order, the bound,
    and the side convention are all content-derived, so *seed* only
    influences the greedy incumbent's tie-breaks (which cannot change
    the proved-optimal cost, merely which optimal assignment is found
    first).
    """

    partitioner_name = "exact"

    #: Largest graph the exponential search is attempted on.  24 nodes
    #: is an order of magnitude above anything the workload registry or
    #: the fuzz grammar produces, and still bounded in the worst case.
    NODE_LIMIT = 24

    def __init__(self, graph, *, seed=0, node_limit=None):
        self.graph = graph
        self.seed = seed
        self.node_limit = self.NODE_LIMIT if node_limit is None else node_limit

    def partition(self, observe=None):
        """Partition the graph; returns a :class:`PartitionResult`.

        ``observe`` (an optional :class:`~repro.obs.core.Recorder`)
        collects the search effort: ``bnb.explored`` counts visited
        tree nodes, ``bnb.pruned`` bound cut-offs, ``bnb.incumbents``
        improvements over the greedy seed.  ``proved_optimal`` is True
        on the result whenever the search ran to completion.
        """
        if observe is None:
            from repro.obs.core import NULL_RECORDER as observe
        nodes = self.graph.nodes
        seeded = GreedyPartitioner(self.graph, seed=self.seed).partition()
        if len(nodes) > self.node_limit:
            observe.counter("bnb.skipped_too_large")
            seeded.proved_optimal = False
            return seeded
        if len(nodes) <= 1:
            seeded.proved_optimal = True
            return seeded

        # Dense index ordered by total incident weight (heaviest first)
        # so high-impact decisions happen near the root where pruning
        # pays most; ties break on the node name for determinism.
        ordered = sorted(
            nodes,
            key=lambda node: (
                -sum(self.graph.neighbors(node).values()),
                node.name,
            ),
        )
        index_of = {node.name: i for i, node in enumerate(ordered)}
        adjacency = [[] for _ in ordered]
        for a, b, weight in self.graph.edges():
            ia, ib = index_of[a.name], index_of[b.name]
            adjacency[ia].append((ib, weight))
            adjacency[ib].append((ia, weight))
        for row in adjacency:
            row.sort()

        count = len(ordered)
        in_y = {symbol.name for symbol in seeded.set_y}
        best_sides = [1 if node.name in in_y else 0 for node in ordered]
        best_cost = seeded.final_cost

        # weight_to[s][i]: weight from unassigned node i to the nodes
        # already assigned to side s.
        weight_to = ([0] * count, [0] * count)
        sides = [None] * count
        stats = {"explored": 0, "pruned": 0, "incumbents": 0}
        improvements = []

        def descend(position, cost):
            nonlocal best_cost, best_sides
            stats["explored"] += 1
            if position == count:
                if cost < best_cost:
                    best_cost = cost
                    best_sides = sides[:]
                    stats["incumbents"] += 1
                    improvements.append(cost)
                return
            bound = cost
            for i in range(position, count):
                bound += min(weight_to[0][i], weight_to[1][i])
                if bound >= best_cost:
                    stats["pruned"] += 1
                    return
            # Side 0 first keeps the all-X prefix explored before its
            # mirror; the root is pinned to side 0 (bank symmetry).
            for side in (0,) if position == 0 else (0, 1):
                sides[position] = side
                for neighbor, weight in adjacency[position]:
                    if neighbor > position:
                        weight_to[side][neighbor] += weight
                descend(position + 1, cost + weight_to[side][position])
                for neighbor, weight in adjacency[position]:
                    if neighbor > position:
                        weight_to[side][neighbor] -= weight
            sides[position] = None

        descend(0, 0)
        observe.counter("bnb.explored", stats["explored"])
        observe.counter("bnb.pruned", stats["pruned"])
        observe.counter("bnb.incumbents", stats["incumbents"])

        set_x = [node for node in nodes if best_sides[index_of[node.name]] == 0]
        set_y = [node for node in nodes if best_sides[index_of[node.name]] == 1]
        trace = list(seeded.cost_trace)
        for cost in improvements:
            if cost < trace[-1]:
                trace.append(cost)
        return PartitionResult(set_x, set_y, trace, proved_optimal=True)
