"""Regenerate paper Table 3: performance/cost trade-offs of duplication."""

from repro.cost.model import TradeoffRow
from repro.evaluation.paper_data import APPLICATION_ORDER
from repro.evaluation.parallel import evaluate_workloads
from repro.partition.strategies import Strategy
from repro.workloads.registry import APPLICATIONS

#: Table 3 column order: paper labels -> strategies.
TABLE3_CONFIGS = (
    ("FullDup", Strategy.FULL_DUP),
    ("Dup", Strategy.CB_DUP),
    ("CB", Strategy.CB),
    ("Ideal", Strategy.IDEAL),
)


class Table3:
    """The reproduced Table 3: rows per application plus the mean row."""

    def __init__(self, rows, evaluations):
        #: application -> {label -> TradeoffRow}
        self.rows = rows
        self.evaluations = evaluations

    @property
    def order(self):
        """Application names in the paper's row order."""
        return [name for name in APPLICATION_ORDER if name in self.rows]

    def mean(self, label):
        """Arithmetic mean (PG, CI, PCR) across applications, as in the
        paper's final row (the paper averages each column independently)."""
        cells = [self.rows[name][label] for name in self.order]
        n = float(len(cells))
        pg = sum(c.pg for c in cells) / n
        ci = sum(c.ci for c in cells) / n
        pcr = sum(c.pcr for c in cells) / n
        return pg, ci, pcr


def table3(verify=True, subset=None, jobs=None, backend="interp",
           cache_dir=None):
    """Measure every application under the four Table 3 configurations.

    ``jobs`` fans the (application, configuration) pipelines out across
    worker processes; ``backend`` selects the simulator backend;
    ``cache_dir`` reads every compile through the persistent artifact
    store at that path.
    """
    strategies = [strategy for _label, strategy in TABLE3_CONFIGS]
    rows = {}
    names = (
        APPLICATION_ORDER
        if subset is None
        else [n for n in APPLICATION_ORDER if n in subset]
    )
    evaluations = evaluate_workloads(
        APPLICATIONS, names, strategies, jobs=jobs, backend=backend,
        verify=verify, cache_dir=cache_dir,
    )
    for name in names:
        evaluation = evaluations[name]
        cells = {}
        for label, strategy in TABLE3_CONFIGS:
            cells[label] = TradeoffRow(
                name,
                label,
                pg=evaluation.performance_gain(strategy),
                ci=evaluation.cost_increase(strategy),
            )
        rows[name] = cells
    return Table3(rows, evaluations)
