"""The differential oracle: one recipe, every strategy, every backend.

For each generated module the oracle checks, in order:

1. **Build determinism** — rebuilding the module from its recipe yields
   a fingerprint-identical module (the content key the compile cache and
   the shrinker both rely on).
2. **Strategy semantics** — under every strategy in
   :data:`ORACLE_STRATEGIES` the final value of every global symbol
   equals what the sequential IR walker (:class:`IRInterpreter`, the
   strategy-free reference) computes.
3. **Backend bit-identity** — for each strategy, the threaded-code
   and loop-specializing backends must match the reference interpreter
   exactly: cycles, operation total, per-pc execution counts, stack
   peaks, final memory and register files.  Recipes with an
   ``interrupt_period`` install an :class:`InterruptInjector`, so the
   backends' hooked stepped loops (deliveries landing mid-loop) are
   exercised differentially.
4. **Duplication coherence** — after every run, both bank copies of
   every duplicated symbol are identical; when the recipe installs an
   interrupt hook, the :class:`InterruptInjector` additionally checks
   coherence at every delivery *during* the run (the store-lock window
   of paper Section 3.2).
5. **Cycle ordering** — ``Ideal <= strategy <= None`` for every
   partitioned strategy: dual-ported memory bounds every configuration
   from below, and no allocation strategy may lose to the single-bank
   baseline.
6. **Fault-outcome identity** (opt-in via ``fault_seed``) — with a
   seeded :class:`~repro.faults.plan.FaultPlan` armed, every backend
   classifies the faulted run identically (masked / detected / silent /
   crash / hang) and completed runs stay bit-identical — the
   cross-backend contract of :mod:`repro.faults.experiment`, checked
   differentially over fuzzer-generated programs.
7. **Partitioner identity** — under every partitioner in
   :data:`ORACLE_PARTITIONERS` (the full
   :data:`~repro.partition.registry.PARTITIONERS` registry) the
   partitioned strategies still match the sequential reference, both
   duplicate copies stay coherent, the ``Ideal <= strategy <= None``
   cycle ordering holds, and the observable program state — every
   global's final value — is bit-identical across partitioners: a
   partitioner may only move the cut cost, never program semantics.
   Because the exact solver participates, this stage also differentially
   pins the greedy heuristic against a proved-optimal bank assignment
   on every fuzzed program.

Any violation raises :class:`OracleViolation` carrying the recipe, so a
failure is self-contained and replayable.
"""

from repro.compiler import compile_module
from repro.fuzz.generator import build_module
from repro.ir.interp import IRInterpreter
from repro.partition.strategies import Strategy
from repro.sim import make_simulator
from repro.sim.interrupts import InterruptInjector
from repro.sim.simulator import SimulationError, Simulator
from repro.sim.tracing import collect_block_counts

#: the paper's five headline configurations (None/CB/Pr/Dup/Ideal)
ORACLE_STRATEGIES = (
    Strategy.SINGLE_BANK,
    Strategy.CB,
    Strategy.CB_PROFILE,
    Strategy.CB_DUP,
    Strategy.IDEAL,
)

#: every simulator backend, checked against each other per strategy
ORACLE_BACKENDS = ("interp", "jit", "batch")

#: every registered partitioner, checked against each other per recipe
#: (greedy first: it is the reference the others are compared against)
ORACLE_PARTITIONERS = ("greedy", "exact")

#: strategies the partitioner stage re-runs: partitioned without and
#: with duplication (profile-driven CB behaves identically modulo edge
#: weights, which the property suite covers directly)
_PARTITIONED_STRATEGIES = (Strategy.CB, Strategy.CB_DUP)


class OracleViolation(AssertionError):
    """A recipe broke one of the oracle's invariants."""

    def __init__(self, stage, detail, recipe=None):
        super().__init__("%s: %s" % (stage, detail))
        #: which invariant failed (e.g. ``"strategy-semantics"``)
        self.stage = stage
        self.detail = detail
        #: the offending recipe (attached by :func:`check_recipe`)
        self.recipe = recipe


class OracleReport:
    """What a passing oracle run measured (for logs and tests)."""

    def __init__(self):
        #: strategy -> cycle count (reference backend)
        self.cycles = {}
        #: strategy -> names of duplicated symbols
        self.duplicated = {}
        #: interrupt deliveries summed over all runs
        self.interrupts_delivered = 0

    def __repr__(self):
        return "<OracleReport cycles=%r>" % (
            {s.name: c for s, c in self.cycles.items()},
        )


def _freeze(value):
    return tuple(value) if isinstance(value, list) else value


def _global_state(reader, module):
    return {
        symbol.name: _freeze(reader(symbol.name))
        for symbol in module.globals
    }


def _reference_state(recipe):
    module = build_module(recipe)
    interpreter = IRInterpreter(module)
    interpreter.run()
    return _global_state(interpreter.read_global, module)


def _profile_counts(recipe):
    compiled = compile_module(build_module(recipe), strategy=Strategy.SINGLE_BANK)
    simulator = Simulator(compiled.program)
    return collect_block_counts(compiled.program, simulator.run())


class _Observation:
    """Everything one (strategy, backend) run exposes for comparison."""

    def __init__(self, simulator, result):
        self.result = result
        self.memory = [list(bank) for bank in simulator.memory]
        self.registers = {
            rclass: list(values)
            for rclass, values in simulator.registers.items()
        }


def _run_config(recipe, strategy, backend, profile_counts,
                partitioner="greedy"):
    module = build_module(recipe)
    compiled = compile_module(
        module, strategy=strategy, profile_counts=profile_counts,
        partitioner=partitioner,
    )
    hook = None
    if recipe.interrupt_period:
        hook = InterruptInjector(
            compiled.program.module, period=recipe.interrupt_period
        )
    simulator = make_simulator(
        compiled.program, backend=backend, interrupt_hook=hook
    )
    result = simulator.run()
    return compiled, simulator, result, hook


def check_recipe(recipe, strategies=ORACLE_STRATEGIES, backends=ORACLE_BACKENDS,
                 fault_seed=None):
    """Run the full oracle over *recipe*; returns an :class:`OracleReport`.

    Raises :class:`OracleViolation` (with the recipe attached) on the
    first broken invariant, and re-raises simulator faults wrapped the
    same way so campaign drivers can treat every failure uniformly.
    A non-None *fault_seed* additionally runs the fault-outcome
    identity stage (:func:`check_fault_identity`).  The
    partitioner-identity stage (:func:`check_partitioner_identity`)
    always runs over :data:`ORACLE_PARTITIONERS`.
    """
    try:
        report = _check(recipe, strategies, backends)
        check_partitioner_identity(recipe, report)
        if fault_seed is not None:
            check_fault_identity(
                recipe, fault_seed, strategies=strategies, backends=backends
            )
        return report
    except OracleViolation as violation:
        violation.recipe = recipe
        raise


def check_fault_identity(recipe, fault_seed, strategies=ORACLE_STRATEGIES,
                         backends=ORACLE_BACKENDS):
    """Oracle stage 6: identical fault-outcome classification everywhere.

    For each strategy, arms the same seeded
    :class:`~repro.faults.plan.FaultPlan` (horizon = the fault-free
    cycle count) on every backend and asserts the
    :func:`repro.faults.experiment.comparable` projections agree —
    outcome class, injector record, the full architectural state digest
    for completed runs, and the fault's pc and cycle for crash/hang
    runs.  Raises :class:`OracleViolation` with
    stage ``"fault-identity"`` on any divergence.
    """
    from repro.faults.experiment import comparable, reference_run, run_with_plan
    from repro.faults.plan import generate_plan

    profile = None
    for strategy in strategies:
        if strategy.needs_profile and profile is None:
            profile = _profile_counts(recipe)
        counts = profile if strategy.needs_profile else None
        results = {}
        for backend in backends:
            compiled = compile_module(
                build_module(recipe), strategy=strategy, profile_counts=counts
            )
            try:
                reference = reference_run(compiled.program, backend=backend)
                plan = generate_plan(fault_seed, horizon=reference[0])
                results[backend] = run_with_plan(
                    compiled.program, plan, backend=backend,
                    reference=reference,
                )
            except SimulationError as fault:
                raise OracleViolation(
                    "simulation-fault",
                    "%s/%s (fault stage): %s" % (strategy.name, backend, fault),
                    recipe=recipe,
                )
        first = backends[0]
        expected = comparable(results[first])
        for backend in backends[1:]:
            actual = comparable(results[backend])
            if actual != expected:
                raise OracleViolation(
                    "fault-identity",
                    "%s: fault seed %d classified %r on %s but %r on %s"
                    % (
                        strategy.name,
                        fault_seed,
                        results[first]["outcome"],
                        first,
                        results[backend]["outcome"],
                        backend,
                    ),
                    recipe=recipe,
                )


def check_partitioner_identity(recipe, report=None,
                               partitioners=ORACLE_PARTITIONERS,
                               backend="interp"):
    """Oracle stage 7: program semantics are partitioner-invariant.

    Re-runs the partitioned strategies (:data:`_PARTITIONED_STRATEGIES`)
    once per registry partitioner on the reference backend and asserts,
    per partitioner: the final value of every global matches the
    sequential IR reference, both bank copies of every duplicated symbol
    agree, and the ``Ideal <= strategy <= None`` cycle ordering holds
    (bounds taken from *report*, an :class:`OracleReport` from the main
    stages, when supplied — Ideal and None never partition, so their
    cycles are partitioner-independent).  Then asserts the observable
    state is bit-identical across partitioners: a partitioner may only
    move the cut cost, never what the program computes.  Raises
    :class:`OracleViolation` with stage ``"partitioner-identity"`` on
    any divergence.
    """
    reference = _reference_state(recipe)
    baseline = ideal = None
    if report is not None:
        baseline = report.cycles.get(Strategy.SINGLE_BANK)
        ideal = report.cycles.get(Strategy.IDEAL)
    for strategy in _PARTITIONED_STRATEGIES:
        states = {}
        for partitioner in partitioners:
            try:
                compiled, simulator, result, _hook = _run_config(
                    recipe, strategy, backend, None, partitioner=partitioner
                )
            except SimulationError as fault:
                raise OracleViolation(
                    "simulation-fault",
                    "%s[%s]: %s" % (strategy.name, partitioner, fault),
                )
            label = "%s[%s]" % (strategy.name, partitioner)
            observed = _global_state(
                simulator.read_global, compiled.program.module
            )
            for name, expected in reference.items():
                if observed[name] != expected:
                    raise OracleViolation(
                        "partitioner-identity",
                        "%s: global %r is %r, reference says %r"
                        % (label, name, observed[name], expected),
                    )
            _check_duplicate_coherence(simulator, compiled, label)
            if ideal is not None and result.cycles < ideal:
                raise OracleViolation(
                    "partitioner-identity",
                    "%s ran in %d cycles, below the Ideal bound of %d"
                    % (label, result.cycles, ideal),
                )
            if baseline is not None and result.cycles > baseline:
                raise OracleViolation(
                    "partitioner-identity",
                    "%s ran in %d cycles, worse than the single-bank "
                    "baseline's %d" % (label, result.cycles, baseline),
                )
            states[partitioner] = observed
        first = partitioners[0]
        for partitioner in partitioners[1:]:
            if states[partitioner] != states[first]:
                differing = sorted(
                    name
                    for name in states[first]
                    if states[partitioner][name] != states[first][name]
                )
                raise OracleViolation(
                    "partitioner-identity",
                    "%s: globals %s differ between partitioners %s and %s"
                    % (strategy.name, differing, first, partitioner),
                )


def _check(recipe, strategies, backends):
    from repro.evaluation.runner import module_fingerprint

    first = module_fingerprint(build_module(recipe))
    second = module_fingerprint(build_module(recipe))
    if first != second:
        raise OracleViolation(
            "build-determinism",
            "rebuilding the module changed its fingerprint",
        )

    reference = _reference_state(recipe)
    report = OracleReport()
    profile = None
    for strategy in strategies:
        if strategy.needs_profile and profile is None:
            profile = _profile_counts(recipe)
        counts = profile if strategy.needs_profile else None
        observations = {}
        for backend in backends:
            try:
                compiled, simulator, result, hook = _run_config(
                    recipe, strategy, backend, counts
                )
            except SimulationError as fault:
                raise OracleViolation(
                    "simulation-fault",
                    "%s/%s: %s" % (strategy.name, backend, fault),
                )
            label = "%s/%s" % (strategy.name, backend)
            observed = _global_state(simulator.read_global, compiled.program.module)
            for name, expected in reference.items():
                if observed[name] != expected:
                    raise OracleViolation(
                        "strategy-semantics",
                        "%s: global %r is %r, reference says %r"
                        % (label, name, observed[name], expected),
                    )
            _check_duplicate_coherence(simulator, compiled, label)
            observations[backend] = _Observation(simulator, result)
            if hook is not None:
                report.interrupts_delivered += hook.delivered
        _check_backend_identity(observations, strategy)
        baseline_backend = backends[0]
        report.cycles[strategy] = observations[baseline_backend].result.cycles
        report.duplicated[strategy] = [
            symbol.name for symbol in compiled.allocation.duplicated
        ]
    _check_cycle_ordering(report.cycles)
    return report


def _check_duplicate_coherence(simulator, compiled, label):
    from repro.ir.symbols import MemoryBank

    for symbol in compiled.program.module.globals:
        if symbol.bank is not MemoryBank.BOTH:
            continue
        copy_x = simulator.read_global_copy(symbol.name, MemoryBank.X)
        copy_y = simulator.read_global_copy(symbol.name, MemoryBank.Y)
        if copy_x != copy_y:
            raise OracleViolation(
                "duplication-coherence",
                "%s: copies of %r diverged: X=%r Y=%r"
                % (label, symbol.name, copy_x, copy_y),
            )


def _check_backend_identity(observations, strategy):
    backends = list(observations)
    first = observations[backends[0]]
    for backend in backends[1:]:
        other = observations[backend]
        pairs = (
            ("cycles", first.result.cycles, other.result.cycles),
            ("operations", first.result.operations, other.result.operations),
            ("pc_counts", first.result.pc_counts, other.result.pc_counts),
            ("stack_peak_x", first.result.stack_peak_x, other.result.stack_peak_x),
            ("stack_peak_y", first.result.stack_peak_y, other.result.stack_peak_y),
            ("memory", first.memory, other.memory),
            ("registers", first.registers, other.registers),
        )
        for field, expected, actual in pairs:
            if expected != actual:
                raise OracleViolation(
                    "backend-identity",
                    "%s: %s differ between %s and %s: %r vs %r"
                    % (
                        strategy.name,
                        field,
                        backends[0],
                        backend,
                        _truncate(expected),
                        _truncate(actual),
                    ),
                )


def _truncate(value, limit=200):
    text = repr(value)
    return text if len(text) <= limit else text[:limit] + "..."


def _check_cycle_ordering(cycles):
    baseline = cycles.get(Strategy.SINGLE_BANK)
    ideal = cycles.get(Strategy.IDEAL)
    for strategy, measured in cycles.items():
        if ideal is not None and measured < ideal:
            raise OracleViolation(
                "cycle-ordering",
                "%s ran in %d cycles, below the Ideal bound of %d"
                % (strategy.name, measured, ideal),
            )
        if (
            baseline is not None
            and strategy is not Strategy.SINGLE_BANK
            and measured > baseline
        ):
            raise OracleViolation(
                "cycle-ordering",
                "%s ran in %d cycles, worse than the single-bank "
                "baseline's %d" % (strategy.name, measured, baseline),
            )
