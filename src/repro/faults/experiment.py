"""Run one faulted simulation and classify its outcome.

The outcome taxonomy (ISSUE 5):

``masked``
    the run completed and every global — both bank images of duplicated
    ones — matches the fault-free reference: the fault had no observable
    architectural effect;
``detected``
    the run completed and the injector's dup cross-check caught at least
    one divergence between a duplicated global's X and Y copies (the
    paper's redundancy paying off as error detection);
``silent``
    the run completed, nothing was detected, but the final globals
    differ from the reference — silent data corruption, the outcome
    duplication exists to prevent;
``crash``
    the machine faulted (:class:`~repro.sim.simulator.SimulationError`:
    bad address, wild pc, stack overflow, …);
``hang``
    the run exceeded its cycle budget
    (:class:`~repro.sim.simulator.CycleLimitError` with
    ``max_cycles`` set to a multiple of the fault-free cycle count).

Cross-backend contract: for the same program and
:class:`~repro.faults.plan.FaultPlan`, all three backends classify
identically, *completed* runs (masked/detected/silent) are
bit-identical in architectural state and injector record, and crash/hang
runs agree on the error category and on the ``pc`` and ``cycle`` the
fault was raised at — an armed plan installs a hook, and every backend
runs a hooked program one cycle at a time.  :func:`comparable` projects
a result onto exactly the fields the identity suite may assert.
"""

from repro.faults.injector import FaultInjector
from repro.faults.plan import generate_plan
from repro.ir.symbols import MemoryBank
from repro.sim.errors import classify_fault
from repro.sim import make_simulator
from repro.sim.simulator import CycleLimitError, SimulationError

#: outcome classes, worst first (report columns render in this order)
OUTCOMES = ("hang", "crash", "silent", "detected", "masked")

#: faulted runs get this many times the fault-free cycle count (plus
#: slack for tiny programs) before they classify as ``hang``
CYCLE_BUDGET_FACTOR = 4
CYCLE_BUDGET_SLACK = 1024


def _global_state(simulator, module):
    """Every global's observable value(s): the X image, plus the Y image
    for duplicated symbols — so a corruption hiding in either copy makes
    the state differ from the reference."""
    state = {}
    for symbol in module.globals:
        if symbol.bank is MemoryBank.BOTH:
            state[symbol.name] = (
                list(simulator.read_global_copy(symbol.name, MemoryBank.X)),
                list(simulator.read_global_copy(symbol.name, MemoryBank.Y)),
            )
        else:
            values = simulator.read_global(symbol.name)
            state[symbol.name] = values if isinstance(values, list) else [values]
    return state


def reference_run(program, backend="interp"):
    """Fault-free run of *program*: ``(cycles, global state)``.

    The cycle count seeds plan horizons and the faulted run's cycle
    budget; the state is the masked/silent discriminator.
    """
    simulator = make_simulator(program, backend=backend)
    result = simulator.run()
    return result.cycles, _global_state(simulator, program.module)


def run_with_plan(program, plan, backend="interp", reference=None,
                  max_cycles=None, repair=True):
    """Execute *program* with *plan* armed; classify the outcome.

    *reference* is a ``(cycles, state)`` pair from :func:`reference_run`
    (computed here when omitted); *max_cycles* defaults to
    ``reference cycles * CYCLE_BUDGET_FACTOR + CYCLE_BUDGET_SLACK``.
    Returns a JSON-able result dict (see the module docstring for the
    ``outcome`` values); ``digest`` is the full architectural
    :meth:`~repro.sim.simulator.Simulator.state_digest` for completed
    runs and ``None`` on error paths.
    """
    if reference is None:
        reference = reference_run(program, backend=backend)
    reference_cycles, reference_state = reference
    budget = max_cycles
    if budget is None:
        budget = reference_cycles * CYCLE_BUDGET_FACTOR + CYCLE_BUDGET_SLACK
    injector = FaultInjector.for_plan(plan, repair=repair)
    simulator = make_simulator(
        program, backend=backend, interrupt_hook=injector, max_cycles=budget
    )
    error = None
    cycles = None
    digest = None
    try:
        result = simulator.run()
    except CycleLimitError as fault:
        outcome = "hang"
        error = classify_fault(fault, backend=backend)
    except SimulationError as fault:
        outcome = "crash"
        error = classify_fault(fault, backend=backend)
    else:
        cycles = result.cycles
        digest = simulator.state_digest()
        if injector is not None and injector.detections:
            outcome = "detected"
        elif _global_state(simulator, program.module) == reference_state:
            outcome = "masked"
        else:
            outcome = "silent"
    record = injector.record() if injector is not None else {
        "delivered": 0,
        "suppressed": 0,
        "applied": [],
        "detections": [],
        "repairs": 0,
    }
    return {
        "outcome": outcome,
        "backend": backend,
        "cycles": cycles,
        "digest": digest,
        "budget": budget,
        "reference_cycles": reference_cycles,
        "error": None if error is None else {
            "category": error.category,
            "message": str(error),
            "pc": error.pc,
            "cycle": error.cycle,
        },
        **record,
    }


def comparable(result):
    """Projection of a :func:`run_with_plan` result onto the fields the
    cross-backend identity contract covers: everything except
    ``backend`` for completed runs; outcome, error category, and the
    fault's ``pc`` and ``cycle`` for crash/hang runs (the message names
    the backend)."""
    if result["outcome"] in ("crash", "hang"):
        error = result.get("error") or {}
        return {
            "outcome": result["outcome"],
            "category": error.get("category"),
            "pc": error.get("pc"),
            "cycle": error.get("cycle"),
        }
    return {
        key: value
        for key, value in result.items()
        if key not in ("backend", "error")
    }


def run_experiment(workload, strategy, seed, backend="interp", events=3,
                   cache=None, repair=True):
    """One campaign data point: compile *workload* under *strategy*,
    draw a plan from *seed* with the fault-free cycle count as horizon,
    run, classify.

    *cache* (a dict) memoizes compiled programs (so a ``Pr`` profile
    runs once per worker, not once per seed) and reference runs across
    a worker's tasks.  Returns a flat JSON-able row consumed by
    :func:`repro.faults.campaign.aggregate`.
    """
    from repro.compiler import CompileOptions
    from repro.evaluation.runner import compile_workload

    compiled_key = ("faults-compiled", workload.name, strategy.name)
    compiled = None if cache is None else cache.get(compiled_key)
    if compiled is None:
        compiled = compile_workload(
            workload, CompileOptions(strategy=strategy), cache
        )
        if cache is not None:
            cache[compiled_key] = compiled
    reference_key = ("faults-reference", workload.name, strategy.name, backend)
    reference = None if cache is None else cache.get(reference_key)
    if reference is None:
        reference = reference_run(compiled.program, backend=backend)
        if cache is not None:
            cache[reference_key] = reference
    plan = generate_plan(seed, events=events, horizon=reference[0])
    result = run_with_plan(
        compiled.program, plan, backend=backend, reference=reference,
        repair=repair,
    )
    result.update(
        workload=workload.name,
        strategy=strategy.name,
        seed=seed,
        cadence=plan.cadence,
        duplicated=[symbol.name for symbol in compiled.allocation.duplicated],
    )
    return result
