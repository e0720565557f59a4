"""Compile-simulate-verify one workload under the paper's configurations.

Performance is measured exactly as in the paper: cycle counts from the
instruction-set simulator, reported as gains over the single-bank
baseline (allocation pass disabled).  The ``Pr`` configuration profiles
the baseline binary first and feeds block execution counts to the
allocation pass as edge weights; :func:`compile_workload` owns that
step for every caller above the compiler.
"""

import copy

from repro.compiler import CompileOptions, compile_module
from repro.compiler.pipeline import options_signature
from repro.cost.model import CostModel
from repro.partition.strategies import Strategy
from repro.sim import make_simulator
from repro.sim.tracing import collect_block_counts


class Measurement:
    """One (workload, configuration) data point."""

    def __init__(self, strategy, cycles, cost, code_size, duplicated):
        self.strategy = strategy
        self.cycles = cycles
        #: the :class:`~repro.cost.model.CostReport`
        self.cost = cost
        self.code_size = code_size
        #: names of symbols duplicated into both banks
        self.duplicated = duplicated

    def __repr__(self):
        return "<Measurement %s cycles=%d cost=%d>" % (
            self.strategy.name,
            self.cycles,
            self.cost.total,
        )


class WorkloadEvaluation:
    """All configurations of one workload, relative to its baseline."""

    def __init__(self, name, category, measurements):
        self.name = name
        self.category = category
        #: Strategy -> Measurement (always includes SINGLE_BANK)
        self.measurements = measurements

    @property
    def baseline(self):
        """The single-bank measurement every gain is normalized to."""
        return self.measurements[Strategy.SINGLE_BANK]

    def cycles(self, strategy):
        """Cycle count measured under *strategy*."""
        return self.measurements[strategy].cycles

    def gain_percent(self, strategy):
        """Percent cycle-count improvement over the single-bank baseline,
        the y-axis of the paper's Figures 7 and 8."""
        return 100.0 * (self.performance_gain(strategy) - 1.0)

    def performance_gain(self, strategy):
        """PG ratio as used in paper Table 3 (1.00 = unchanged).

        Degenerate zero-cycle measurements (an empty workload) are
        defined rather than faulting: matching zeros count as unchanged,
        a zero-cycle configuration against a nonzero baseline is an
        unbounded gain.
        """
        return _ratio(self.baseline.cycles, self.cycles(strategy))

    def cost_increase(self, strategy):
        """CI ratio as used in paper Table 3 (1.00 = unchanged); defined
        even for zero-cost measurements (see :meth:`performance_gain`)."""
        return _ratio(self.measurements[strategy].cost.total, self.baseline.cost.total)

    def pcr(self, strategy):
        """Performance/cost ratio PG/CI (paper Table 3); inf at CI=0."""
        ci = self.cost_increase(strategy)
        if ci == 0.0:
            return float("inf")
        return self.performance_gain(strategy) / ci


def _ratio(numerator, denominator):
    """``numerator / denominator`` with the degenerate cases pinned:
    0/0 is 1.0 (nothing changed), n/0 is +inf (unbounded improvement)."""
    if denominator == 0:
        return 1.0 if numerator == 0 else float("inf")
    return numerator / denominator


def module_fingerprint(module):
    """Content hash of a freshly built module: the printed IR (blocks,
    operations, symbols) plus global sizes and initializers — everything
    that determines the compiled program for a given strategy."""
    import hashlib

    from repro.ir.printer import format_module

    digest = hashlib.sha256(format_module(module).encode())
    for symbol in module.globals:
        digest.update(
            repr(
                (symbol.name, symbol.size, symbol.data_type, symbol.initializer)
            ).encode()
        )
    return digest.hexdigest()


def profile_counts(source, cache=None):
    """The ``Pr`` profile of *source*: block label -> execution count in
    its plain single-bank baseline (default options, compiled through
    *cache*), run once on the reference ``interp`` backend."""
    compiled = compile_workload(
        source, CompileOptions(strategy=Strategy.SINGLE_BANK), cache
    )
    result = make_simulator(compiled.program).run()
    return collect_block_counts(compiled.program, result)


def compile_workload(source, options, cache=None, profile=None):
    """Compile *source* (anything whose ``build()`` returns a fresh
    module) under *options*: the one place above the compiler that
    decides how a workload is compiled.

    A strategy that needs a profile is fed *profile*, or without one the
    :func:`profile_counts` of *source*; other strategies ignore
    *profile*.  With a *cache* (a dict or a
    :class:`~repro.serve.store.CompileCache`) the key is (module content
    hash, :func:`~repro.compiler.pipeline.options_signature`, frozen
    profile counts), the triple the persistent store key is built from,
    so any two identical builds share one compile.  Compiled programs
    are immutable under simulation (each simulator run owns fresh
    memory), so cache hits skip the whole compile pipeline.  Without a
    cache the module is compiled directly and never fingerprinted.
    """
    if options.strategy.needs_profile:
        options = copy.copy(options)
        options.profile_counts = (
            profile_counts(source, cache) if profile is None else profile
        )
    if cache is None:
        return compile_module(source.build(), options)
    module = source.build()
    counts = options.profile_counts
    key = (
        module_fingerprint(module),
        options_signature(options),
        None if counts is None else tuple(sorted(counts.items())),
    )
    compiled = cache.get(key)
    if compiled is None:
        compiled = compile_module(module, options)
        cache[key] = compiled
    return compiled


def _run_once(workload, options, profile=None, verify=True, backend="interp",
              cache=None, expected=None):
    """Compile, run and measure one configuration.  With *verify* the
    run is checked against *expected*, the workload's reference outputs
    (computed here when None)."""
    compiled = compile_workload(workload, options, cache, profile)
    simulator = make_simulator(compiled.program, backend=backend)
    result = simulator.run()
    if verify:
        workload.verify(simulator, expected)
    cost = CostModel().measure(compiled, result)
    duplicated = [s.name for s in compiled.allocation.duplicated]
    return (
        Measurement(
            options.strategy, result.cycles, cost, compiled.code_size,
            duplicated,
        ),
        compiled,
        result,
    )


def evaluate_workload(workload, strategies, verify=True, backend="interp",
                      cache=None):
    """Measure *workload* under *strategies* (baseline always included).

    ``backend`` selects the simulator backend (``interp``, ``jit``, or
    ``batch`` — see :mod:`repro.sim`); ``cache`` is an optional dict
    used as a content-keyed compiled-program cache shared across
    evaluations.  With *verify* the reference model
    (``workload.expected()``) is computed once and every configuration's
    run is checked against it.
    """
    measurements = {}
    expected = workload.expected() if verify else None
    baseline, base_compiled, base_result = _run_once(
        workload, CompileOptions(strategy=Strategy.SINGLE_BANK),
        verify=verify, backend=backend, cache=cache, expected=expected,
    )
    measurements[Strategy.SINGLE_BANK] = baseline
    profile = None
    for strategy in strategies:
        if strategy is Strategy.SINGLE_BANK:
            continue
        if strategy.needs_profile and profile is None:
            profile = collect_block_counts(base_compiled.program, base_result)
        measurement, _compiled, _result = _run_once(
            workload, CompileOptions(strategy=strategy), profile=profile,
            verify=verify, backend=backend, cache=cache, expected=expected,
        )
        measurements[strategy] = measurement
    return WorkloadEvaluation(workload.name, workload.category, measurements)
