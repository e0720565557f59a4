"""Assemble the observability report for one workload configuration.

:func:`build_report` runs the full instrumented pipeline twice — once
under a baseline configuration (single-bank unless overridden) and once
under the strategy being studied — and packages, per configuration:

* the per-pass compile-time breakdown (from the
  :class:`~repro.obs.core.Recorder` the compiler pipeline fills in),
  with each pass's IR-delta metrics (instruction count, operation
  count, long-instruction fill rate);
* the run profile (top-N hot pcs, per-bank access histogram, and the
  bank-conflict ledger from :mod:`repro.obs.profile`);
* headline numbers (cycles, operations, parallelism, code size,
  duplicated symbols);

plus a ``deltas`` section comparing the two configurations: cycle gain,
conflict cycles removed, and code-size change.  The result is plain
JSON-ready data; ``python -m repro report --workload ...`` renders it
through :func:`repro.evaluation.reporting.render_observability`.
"""

from repro.obs.core import Recorder
from repro.obs.profile import profile_run

# The compiler itself imports repro.obs.core (every pass is
# instrumented), so pulling the pipeline in at module-import time would
# be circular; resolve it on first use instead.
from repro.partition.strategies import PAPER_LABELS, Strategy

__all__ = ["build_report"]


def _resolve_strategy(strategy):
    if isinstance(strategy, Strategy):
        return strategy
    try:
        return Strategy[str(strategy).upper()]
    except KeyError:
        raise ValueError(
            "unknown strategy %r (choose from: %s)"
            % (strategy, ", ".join(s.name for s in Strategy))
        )


def _resolve_workload(workload):
    if isinstance(workload, str):
        from repro.workloads.registry import all_workloads

        table = all_workloads()
        if workload not in table:
            raise ValueError(
                "unknown workload %r (run `python -m repro list`)" % workload
            )
        return table[workload]
    return workload


def _pass_rows(recorder):
    """Flatten the compile span's children into per-pass rows."""
    compile_span = recorder.find("compile")
    if compile_span is None:
        return []
    rows = []
    for child in compile_span.children:
        row = {"pass": child.name, "seconds": child.duration}
        row.update(child.metrics)
        if child.counters:
            row.update(child.counters)
        rows.append(row)
    return rows


def _configuration(workload, strategy, backend, top, verify=True):
    """One instrumented compile + simulate + verify + profile."""
    from repro.compiler import CompileOptions
    from repro.evaluation.runner import compile_workload
    from repro.sim import make_simulator

    recorder = Recorder()
    compiled = compile_workload(
        workload, CompileOptions(strategy=strategy, observe=recorder)
    )
    simulator = make_simulator(compiled.program, backend=backend)
    result = simulator.run()
    if verify:
        workload.verify(simulator)
    profile = profile_run(compiled.program, result)
    compile_span = recorder.find("compile")
    return {
        "strategy": strategy.name,
        "label": PAPER_LABELS[strategy],
        "cycles": result.cycles,
        "operations": result.operations,
        "parallelism": result.parallelism,
        "code_size": compiled.code_size,
        "duplicated": [s.name for s in compiled.allocation.duplicated],
        "compile_seconds": (
            compile_span.duration if compile_span is not None else None
        ),
        "compile_passes": _pass_rows(recorder),
        "profile": profile.to_dict(top),
    }


def build_report(workload, strategy=Strategy.CB,
                 baseline=Strategy.SINGLE_BANK, backend="interp", top=10,
                 verify=True):
    """Build the observability report as a JSON-ready dict.

    Parameters
    ----------
    workload:
        A :class:`~repro.workloads.base.Workload` or a registry name.
    strategy, baseline:
        :class:`Strategy` members or their names; the report contrasts
        *strategy* against *baseline* (single-bank by default, matching
        how the paper normalizes every figure).
    backend:
        Simulator backend name (``interp``, ``jit`` or ``batch``).
    top:
        How many hot pcs to keep per configuration.
    verify:
        Check each run against the workload's reference model.
    """
    workload = _resolve_workload(workload)
    strategy = _resolve_strategy(strategy)
    baseline = _resolve_strategy(baseline)
    base = _configuration(workload, baseline, backend, top, verify=verify)
    target = _configuration(workload, strategy, backend, top, verify=verify)

    base_cycles = base["cycles"]
    target_cycles = target["cycles"]
    gain = (
        100.0 * (base_cycles / target_cycles - 1.0) if target_cycles else 0.0
    )
    base_conflicts = base["profile"]["conflict_cycles"]
    target_conflicts = target["profile"]["conflict_cycles"]
    return {
        "workload": workload.name,
        "category": workload.category,
        "backend": backend,
        "top": top,
        "baseline": base,
        "strategy": target,
        "deltas": {
            "cycles_baseline": base_cycles,
            "cycles_strategy": target_cycles,
            "gain_percent": gain,
            "conflict_cycles_baseline": base_conflicts,
            "conflict_cycles_strategy": target_conflicts,
            "conflict_cycles_removed": base_conflicts - target_conflicts,
            "code_size_delta": target["code_size"] - base["code_size"],
        },
    }
