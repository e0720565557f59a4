"""Regenerate the data series of paper Figures 7 and 8.

Figure 7 plots the percent performance gain of CB partitioning and Ideal
(dual-ported) memory over the single-bank baseline for the 12 kernels;
Figure 8 adds the Pr (profile-weighted) and Dup (partial-duplication)
configurations for the 11 applications.
"""

from repro.evaluation.paper_data import APPLICATION_ORDER, KERNEL_ORDER
from repro.evaluation.parallel import evaluate_workloads
from repro.partition.strategies import Strategy
from repro.workloads.registry import APPLICATIONS, KERNELS

FIGURE7_STRATEGIES = (Strategy.CB, Strategy.IDEAL)
FIGURE8_STRATEGIES = (
    Strategy.CB,
    Strategy.CB_PROFILE,
    Strategy.CB_DUP,
    Strategy.IDEAL,
)


class FigureSeries:
    """One figure's data: benchmark order plus per-config gain series."""

    def __init__(self, title, order, labels, gains, evaluations):
        self.title = title
        #: benchmark names in the paper's x-axis order
        self.order = order
        #: configuration labels in display order (e.g. ["CB", "Ideal"])
        self.labels = labels
        #: label -> {benchmark -> percent gain}
        self.gains = gains
        #: benchmark -> WorkloadEvaluation (for further inspection)
        self.evaluations = evaluations

    def series(self, label):
        """Gains for configuration *label*, in plot (x-axis) order."""
        return [self.gains[label][name] for name in self.order]


def _collect(title, table, order, strategies, labels, verify=True, subset=None,
             jobs=None, backend="interp", cache_dir=None):
    names = order if subset is None else [n for n in order if n in subset]
    gains = {label: {} for label in labels}
    evaluations = evaluate_workloads(
        table, names, strategies, jobs=jobs, backend=backend, verify=verify,
        cache_dir=cache_dir,
    )
    for name in names:
        evaluation = evaluations[name]
        for strategy, label in zip(strategies, labels):
            gains[label][name] = evaluation.gain_percent(strategy)
    return FigureSeries(title, names, list(labels), gains, evaluations)


def figure7(verify=True, subset=None, jobs=None, backend="interp",
            cache_dir=None):
    """Figure 7: kernel performance gains (CB and Ideal)."""
    return _collect(
        "Figure 7: Performance Gain for DSP Kernels",
        KERNELS,
        KERNEL_ORDER,
        FIGURE7_STRATEGIES,
        ("CB", "Ideal"),
        verify=verify,
        subset=subset,
        jobs=jobs,
        backend=backend,
        cache_dir=cache_dir,
    )


def figure8(verify=True, subset=None, jobs=None, backend="interp",
            cache_dir=None):
    """Figure 8: application gains (CB, Pr, Dup, Ideal)."""
    return _collect(
        "Figure 8: Performance Gain for DSP Applications",
        APPLICATIONS,
        APPLICATION_ORDER,
        FIGURE8_STRATEGIES,
        ("CB", "Pr", "Dup", "Ideal"),
        verify=verify,
        subset=subset,
        jobs=jobs,
        backend=backend,
        cache_dir=cache_dir,
    )
