"""The paper's first-order cost model:  Cost = X + Y + 2·S + I.

``X`` and ``Y`` are the static data sizes (in words) of the two banks,
``S`` the stack size — multiplied by two because both banks carry a stack
— and ``I`` the instruction-memory size (one word per long instruction;
the paper assumes instructions and data are the same size and notes that
data costs dominate).

From per-configuration costs and cycle counts the model derives the
paper's Table 3 metrics:

* **PG** — performance gain, ``baseline_cycles / cycles``;
* **CI** — cost increase, ``cost / baseline_cost``;
* **PCR** — performance/cost ratio, ``PG / CI``; above 1 means the
  speedup outweighs the extra memory.
"""


class CostReport:
    """Memory cost breakdown for one compiled-and-simulated program."""

    def __init__(self, data_x, data_y, stack, instructions):
        self.data_x = data_x
        self.data_y = data_y
        self.stack = stack
        self.instructions = instructions

    @property
    def total(self):
        return self.data_x + self.data_y + 2 * self.stack + self.instructions

    def __repr__(self):
        return "<CostReport X=%d Y=%d S=%d I=%d total=%d>" % (
            self.data_x,
            self.data_y,
            self.stack,
            self.instructions,
            self.total,
        )


class CostModel:
    """Extracts a :class:`CostReport` from a compile + simulate pair,
    charging one instruction-memory word per long instruction
    (``program.size``)."""

    def measure(self, compile_result, sim_result):
        layout = compile_result.program.layout
        return CostReport(
            data_x=layout.data_size_x,
            data_y=layout.data_size_y,
            stack=max(sim_result.stack_peak_x, sim_result.stack_peak_y),
            instructions=compile_result.program.size,
        )


class TradeoffRow:
    """One (application, configuration) cell of paper Table 3."""

    def __init__(self, name, strategy, pg, ci):
        self.name = name
        self.strategy = strategy
        #: performance gain (1.00 = no change; 1.34 = 34% faster)
        self.pg = pg
        #: cost increase (1.00 = no change)
        self.ci = ci

    @property
    def pcr(self):
        """Performance/cost ratio; > 1 means worthwhile (paper Sec 4.2)."""
        return self.pg / self.ci

    def __repr__(self):
        return "<%s/%s PG=%.2f CI=%.2f PCR=%.2f>" % (
            self.name,
            self.strategy,
            self.pg,
            self.ci,
            self.pcr,
        )


def tradeoff_row(name, strategy, baseline_cycles, cycles, baseline_cost, cost):
    """Build a :class:`TradeoffRow` from raw measurements."""
    if cycles <= 0 or baseline_cost <= 0:
        raise ValueError("measurements must be positive")
    return TradeoffRow(
        name,
        strategy,
        pg=baseline_cycles / cycles,
        ci=cost / baseline_cost,
    )
