"""Name -> partitioner registry, mirroring the simulator ``BACKENDS``.

Every entry is a class with the uniform signature

    Partitioner(graph, *, seed=0).partition(observe=None) -> PartitionResult

so the compiler option (``CompileOptions.partitioner``), the fuzz
oracle's partitioner stage, and the gap-to-optimal evaluation can all
swap algorithms freely — one seed steers greedy's tie-breaks (and
through them the exact solver's incumbent).  Every command and the
serve protocol compile with greedy; the exact solver changes no
reported cycle count, so it is a measuring instrument, not a user
option.  The registered algorithms:

``greedy``
    the paper's O(v^2) node-moving descent (Figure 5) — the default;
``exact``
    branch-and-bound minimum cost with interference-weight bounds,
    provably optimal up to :data:`~repro.partition.exact.
    ExactPartitioner.NODE_LIMIT` nodes (the greedy partition beyond,
    flagged via ``proved_optimal=False``).

Adding an entry here is deliberately load-bearing:
``tests/test_partitioner_registry.py`` asserts every registered name is
covered by the fuzz oracle's partitioner stage, so a partitioner cannot
ship without differential coverage (and that no CLI command grows a
``--partitioner`` flag again).
"""

from repro.partition.exact import ExactPartitioner
from repro.partition.greedy import GreedyPartitioner

#: name -> partitioner class; keep the paper's greedy first as default.
PARTITIONERS = {
    "greedy": GreedyPartitioner,
    "exact": ExactPartitioner,
}

#: the paper's algorithm, used wherever no explicit choice is made
DEFAULT_PARTITIONER = "greedy"


def make_partitioner(graph, partitioner=DEFAULT_PARTITIONER, seed=0):
    """Instantiate the partitioner named *partitioner* over *graph*.

    All registered classes honour the same constructor keywords and
    return the same :class:`~repro.partition.greedy.PartitionResult`
    shape (disjoint X/Y covering all nodes, non-increasing cost trace),
    so callers may switch freely.  Raises :class:`ValueError` for an
    unknown name; :data:`PARTITIONERS` lists the valid ones.
    """
    try:
        cls = PARTITIONERS[partitioner]
    except KeyError:
        raise ValueError(
            "unknown partitioner %r (choose from: %s)"
            % (partitioner, ", ".join(sorted(PARTITIONERS)))
        )
    return cls(graph, seed=seed)
