"""Resilience campaigns: seeded fault experiments over the workloads.

A campaign is a grid of :func:`repro.faults.experiment.run_experiment`
tasks — ``workloads × strategies × runs`` — pushed through
:func:`repro.evaluation.parallel.supervised_map`, so it survives hung
tasks (per-task timeout), crashed workers (replacement + bounded
retry), and interruption (checkpoint journal: rerun the same command
and it resumes, converging to the same aggregate report).

The default strategy set is the paper's resilience-relevant triple —
``SINGLE_BANK`` (no partitioning), ``CB`` (partitioned, no redundancy),
``CB_DUP`` (partitioned + partial duplication) — because the question
the report answers is *what does the duplicated copy buy you when bits
flip* (detection, per :mod:`repro.faults.injector`).
"""

from repro.evaluation.parallel import supervised_map
from repro.faults.experiment import OUTCOMES, run_experiment
from repro.obs.core import NULL_RECORDER
from repro.partition.strategies import Strategy

#: strategies a campaign runs by default: none / partitioned / duplicated
DEFAULT_STRATEGIES = ("SINGLE_BANK", "CB", "CB_DUP")

#: workloads a campaign runs by default: the registry kernels whose
#: arrays duplication actually touches, plus the Fig-6 autocorrelation
DEFAULT_WORKLOADS = ("autocorr_24_4", "iir_1_1", "fir_32_1")

#: per-worker compile/reference cache (module-level so forked workers
#: accumulate across their tasks)
_WORKER_CACHE = {}


def campaign_workloads():
    """Workload table campaigns draw from: the full registry plus the
    Fig-6 :class:`~repro.workloads.kernels.autocorr.Autocorr` workload
    (which is not in the registry proper — the paper's figure/table
    sets are frozen)."""
    from repro.workloads.kernels.autocorr import Autocorr
    from repro.workloads.registry import all_workloads

    table = dict(all_workloads())
    autocorr = Autocorr()
    table[autocorr.name] = autocorr
    return table


def run_task(workload_name, strategy_name, backend, seed):
    """Worker entry point: one fault experiment, returned as a JSON-able
    row (the unit :func:`supervised_map` journals and retries)."""
    workload = campaign_workloads()[workload_name]
    return run_experiment(
        workload, Strategy[strategy_name], seed, backend=backend,
        cache=_WORKER_CACHE,
    )


def aggregate(rows, backend="interp"):
    """Fold experiment rows into the resilience report.

    Order-independent (a resumed campaign interleaves journaled and
    fresh rows arbitrarily): per-(workload, strategy) and per-strategy
    outcome histograms plus the headline rates —

    ``masked_rate``
        runs with no observable effect,
    ``detection_rate``
        runs where the dup cross-check caught the corruption,
    ``coverage``
        masked + detected: runs that did **not** end in silent
        corruption, a crash, or a hang.
    """
    per_pair = {}
    for row in rows:
        key = (row["workload"], row["strategy"])
        entry = per_pair.setdefault(
            key,
            {outcome: 0 for outcome in OUTCOMES}
            | {"runs": 0, "detections": 0, "applied": 0, "repairs": 0},
        )
        entry[row["outcome"]] += 1
        entry["runs"] += 1
        entry["detections"] += len(row["detections"])
        entry["applied"] += len(row["applied"])
        entry["repairs"] += row["repairs"]

    def rates(entry):
        runs = entry["runs"] or 1
        entry["masked_rate"] = entry["masked"] / runs
        entry["detection_rate"] = entry["detected"] / runs
        entry["coverage"] = (entry["masked"] + entry["detected"]) / runs
        return entry

    workloads = {}
    strategies = {}
    for (workload, strategy), entry in sorted(per_pair.items()):
        workloads.setdefault(workload, {})[strategy] = rates(dict(entry))
        total = strategies.setdefault(
            strategy,
            {outcome: 0 for outcome in OUTCOMES}
            | {"runs": 0, "detections": 0, "applied": 0, "repairs": 0},
        )
        for key, value in entry.items():
            total[key] += value
    strategies = {name: rates(entry) for name, entry in strategies.items()}
    return {
        "backend": backend,
        "runs": sum(entry["runs"] for entry in strategies.values()),
        "outcomes": list(OUTCOMES),
        "strategies": strategies,
        "workloads": workloads,
    }


def fault_campaign(runs, seed=0, jobs=None, workloads=None, strategies=None,
                   backend="interp", journal=None, timeout=None, retries=2,
                   backoff=0.25, log=None, observe=NULL_RECORDER):
    """Run a resilience campaign and return its aggregate report.

    *runs* seeded experiments (seeds ``seed .. seed+runs-1``) per
    (workload, strategy) pair; *workloads*/*strategies* default to
    :data:`DEFAULT_WORKLOADS`/:data:`DEFAULT_STRATEGIES`.  *journal*,
    *timeout*, *retries*, *backoff*, *jobs*, and *log* are passed to
    :func:`~repro.evaluation.parallel.supervised_map` — worker deaths
    and timeouts retry, everything completed lands in the journal, and
    an interrupted campaign rerun with the same journal resumes and
    converges to the same report.  The report embeds *observe*'s
    counters under ``"obs"`` when a real recorder is supplied.
    """
    table = campaign_workloads()
    if workloads is None:
        workloads = DEFAULT_WORKLOADS
    unknown = [name for name in workloads if name not in table]
    if unknown:
        raise ValueError(
            "unknown workload(s) %s (choose from: %s)"
            % (", ".join(unknown), ", ".join(sorted(table)))
        )
    if strategies is None:
        strategies = DEFAULT_STRATEGIES
    strategies = [Strategy[name].name for name in strategies]
    tasks = [
        (workload, strategy, backend, seed + run)
        for workload in workloads
        for strategy in strategies
        for run in range(runs)
    ]
    with observe.span("faults.campaign"):
        rows = supervised_map(
            run_task, tasks, jobs=jobs, timeout=timeout, retries=retries,
            backoff=backoff, journal=journal, log=log, observe=observe,
        )
    report = aggregate(rows, backend=backend)
    observe.counter("faults.rows", len(rows))
    if observe is not NULL_RECORDER:
        report["obs"] = observe.to_dict()
    return report
