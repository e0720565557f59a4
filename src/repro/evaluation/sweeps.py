"""Parameter sweeps: how the paper's effects scale with problem size.

The headline results are single design points; these sweeps trace the
underlying curves:

* :func:`kernel_size_sweep` — CB gain as a kernel's size grows (the
  per-iteration win is size-independent; overheads amortize);
* :func:`duplication_crossover` — the paper's Section 4.2 decision
  ("the gain in performance must be weighed against the increase in
  memory cost") as a *curve*: for an autocorrelation workload, the
  duplicated array's share of total memory grows with the frame, so
  partial duplication's PCR falls from clearly-worth-it past the
  crossover where partitioning alone is the better deal.
"""

from repro.compiler import compile_module
from repro.cost.model import CostModel
from repro.frontend import ProgramBuilder
from repro.partition.strategies import Strategy
from repro.sim import make_simulator


class SweepPoint:
    """One (parameter, strategy) measurement."""

    def __init__(self, parameter, strategy, cycles, cost):
        self.parameter = parameter
        self.strategy = strategy
        self.cycles = cycles
        self.cost = cost

    def __repr__(self):
        return "<SweepPoint %s %s cycles=%d>" % (
            self.parameter,
            self.strategy.name,
            self.cycles,
        )


def _measure(module, strategy, observe=None, backend="interp"):
    compiled = compile_module(module, strategy=strategy, observe=observe)
    simulator = make_simulator(compiled.program, backend=backend)
    result = simulator.run()
    return result.cycles, CostModel().measure(compiled, result).total


def sweep(factory, parameters, strategies, observe=None, backend="interp"):
    """Measure ``factory(parameter)`` under each strategy.

    ``factory`` must return a fresh module per call. Returns
    ``{parameter: {strategy: SweepPoint}}`` with SINGLE_BANK always
    included as the baseline.

    ``observe`` is an optional :class:`~repro.obs.core.Recorder`: each
    measurement gets a ``point`` span (with parameter/strategy/cycles
    metrics) wrapping the instrumented compile — the structured
    replacement for sprinkling progress prints through long sweeps.

    ``backend`` selects the simulator backend for every point (any
    :data:`~repro.sim.BACKENDS` name, including ``batch``);
    results are bit-identical across backends, so it is purely a
    throughput knob.
    """
    if observe is None:
        from repro.obs.core import NULL_RECORDER as observe
    rows = {}
    for parameter in parameters:
        row = {}
        for strategy in [Strategy.SINGLE_BANK] + [
            s for s in strategies if s is not Strategy.SINGLE_BANK
        ]:
            with observe.span("point") as span:
                cycles, cost = _measure(
                    factory(parameter), strategy, observe=observe,
                    backend=backend,
                )
                span.set(
                    parameter=parameter,
                    strategy=strategy.name,
                    cycles=cycles,
                    cost=cost,
                )
            row[strategy] = SweepPoint(parameter, strategy, cycles, cost)
        rows[parameter] = row
    return rows


# ----------------------------------------------------------------------
# Predefined studies
# ----------------------------------------------------------------------
def kernel_size_sweep(taps_list=(8, 16, 32, 64, 128), backend="interp"):
    """CB gain for an FIR filter as the tap count grows."""
    from repro.workloads.kernels.fir import Fir

    def factory(taps):
        return Fir(taps, 4).build()

    rows = sweep(factory, taps_list, [Strategy.CB], backend=backend)
    series = []
    for taps in taps_list:
        base = rows[taps][Strategy.SINGLE_BANK].cycles
        cb = rows[taps][Strategy.CB].cycles
        series.append((taps, 100.0 * (base / cb - 1.0)))
    return series


def _autocorr_module(frame, lags=8, table_words=384):
    """A speech-codec-shaped program: a fixed coefficient/codebook table
    (whose size does not scale with the frame) plus the paper-Figure-6
    autocorrelation over a `frame`-sample signal.  Only `signal` gets
    duplicated, so its share of total memory — and with it duplication's
    cost increase — grows with the frame size."""
    pb = ProgramBuilder("autocorr_%d" % frame)
    signal = pb.global_array(
        "signal", frame + lags, float,
        init=[float((7 * i) % 13) / 13.0 for i in range(frame + lags)],
    )
    codebook = pb.global_array(
        "codebook", table_words, float,
        init=[float(i % 9) for i in range(table_words)],
    )
    r = pb.global_array("R", lags, float)
    matches = pb.global_array("matches", lags, float)
    with pb.function("main") as f:
        with f.loop(lags, name="m") as m:
            acc = f.float_var("acc")
            f.assign(acc, 0.0)
            with f.loop(frame, name="n") as n:
                f.assign(acc, acc + signal[n] * signal[n + m])
            f.assign(r[m], acc)
        # Codebook scoring against the correlation vector (fixed work).
        with f.loop(lags, name="k") as k:
            score = f.float_var("score")
            f.assign(score, 0.0)
            with f.loop(lags, name="j") as j:
                f.assign(score, score + codebook[k * lags + j] * r[j])
            f.assign(matches[k], score)
    return pb.build()


def duplication_crossover(frame_sizes=(16, 32, 64, 128, 256, 512)):
    """PG / CI / PCR of CB vs partial duplication across frame sizes.

    Returns rows ``(frame, pcr_cb, pcr_dup, pg_dup, ci_dup)`` plus the
    crossover frame — the first size where duplication's PCR falls below
    plain partitioning's.
    """
    rows = []
    crossover = None
    for frame in frame_sizes:
        base_cycles, base_cost = _measure(
            _autocorr_module(frame), Strategy.SINGLE_BANK
        )
        cb_cycles, cb_cost = _measure(_autocorr_module(frame), Strategy.CB)
        dup_cycles, dup_cost = _measure(
            _autocorr_module(frame), Strategy.CB_DUP
        )
        pcr_cb = (base_cycles / cb_cycles) / (cb_cost / base_cost)
        pg_dup = base_cycles / dup_cycles
        ci_dup = dup_cost / base_cost
        pcr_dup = pg_dup / ci_dup
        rows.append((frame, pcr_cb, pcr_dup, pg_dup, ci_dup))
        if crossover is None and pcr_dup < pcr_cb:
            crossover = frame
    return rows, crossover
