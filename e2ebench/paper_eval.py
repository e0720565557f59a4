"""paper-eval: regenerate Figure 7, Figure 8 and Table 3 back to back.

One pass is ``figure7()``, ``figure8()`` and ``table3()`` in this
process, serially, on the ``jit`` backend with ``verify=True`` and no
artifact store: what ``examples/reproduce_paper.py`` does with the
fastest serial backend.  Every (workload, configuration) cycle count
and cost is checked against ``expected/paper_eval.json``.

The traced pass runs the same three calls with timers wrapped around
the calls the evaluation runner makes into each layer (workload
build/verify, compile, simulator, cost model, profile collection); the
compile itself reports its passes through ``CompileOptions(observe=)``.
"""

import contextlib
import gc
import subprocess
import sys
import time

import pools
from stats import (MIN_COVERAGE, Tally, best_per_unit, compare_expected,
                   layer_coverage, median, percentile)

CALLS = ("figure7", "figure8", "table3")
BACKEND = "jit"
#: passes are timed in CPU seconds of this process: the work is serial
#: and single-threaded, so CPU time is what the code costs, and it does
#: not count the time other tenants of a shared host hold the core
CLOCK = time.process_time
#: passes measured at least, whatever ``--seconds`` says
MIN_PASSES = 3
#: fresh-interpreter imports timed for ``setup_s`` before the first
#: pass; one more follows every pass
SETUP_REPEATS = 3
SETUP_CODE = (
    "import repro.evaluation\n"
    "from repro.workloads.registry import all_workloads\n"
    "all_workloads()\n"
)


def time_setup(ctx):
    """Seconds a fresh interpreter takes to import the evaluation entry
    points and materialize the workload tables (what every ``repro
    table3`` invocation pays before its first compile)."""
    start = time.perf_counter()
    subprocess.run([sys.executable, "-c", SETUP_CODE], env=ctx.env,
                   cwd=ctx.root, check=True)
    return time.perf_counter() - start


def setup(ctx):
    """The first set-up samples and the expected results."""
    times = [time_setup(ctx) for _ in range(SETUP_REPEATS)]
    return times, pools.load_expected("paper_eval")


@contextlib.contextmanager
def patched(module, name, make_wrapper):
    """Replace ``module.name`` by ``make_wrapper(original)`` for the
    duration.  A missing attribute raises: the layer it times would
    silently read 0."""
    original = getattr(module, name)
    setattr(module, name, make_wrapper(original))
    try:
        yield
    finally:
        setattr(module, name, original)


def _timed(original, sink, key):
    def wrapper(*args, **kwargs):
        start = CLOCK()
        try:
            return original(*args, **kwargs)
        finally:
            sink[key] = sink.get(key, 0.0) + CLOCK() - start
    return wrapper


def _check(outcomes, expected, tally):
    """Compare every measured (workload, configuration) of one pass
    with the expected cycles and costs, and the derived rounded gains."""
    for name in CALLS:
        outcome = outcomes.get(name)
        want = expected[name]
        if outcome is None:
            tally.fail("%s raised" % name,
                       sum(len(cells) for cells in want.values()))
            continue
        for workload, cells in want.items():
            evaluation = outcome.evaluations.get(workload)
            observed = {} if evaluation is None else {
                strategy.name: [m.cycles, m.cost.total]
                for strategy, m in evaluation.measurements.items()
            }
            wrong, missing = compare_expected(observed, cells)
            bad = len(wrong) + len(missing)
            tally.ok(len(cells) - bad)
            if bad:
                tally.fail("%s cycles/cost mismatch" % name, bad)
        if name == "table3":
            rounded = {
                app: {label: "%.2f / %.2f / %.2f" % (c.pg, c.ci, c.pcr)
                      for label, c in cells.items()}
                for app, cells in outcome.rows.items()
            }
        else:
            rounded = {
                label: {w: "%+.1f%%" % g for w, g in gains.items()}
                for label, gains in outcome.gains.items()
            }
        tally.check(rounded == expected[name + "_rounded"],
                    "%s rounded values differ" % name)


def _pass(expected, tally):
    """One untraced pass; returns the seconds of each ``evaluate_workload``
    call, in call order, and the simulated cycles."""
    from repro import evaluation
    from repro.evaluation import parallel

    calls = []

    def per_workload(original):
        def wrapper(*args, **kwargs):
            start = CLOCK()
            result = original(*args, **kwargs)
            calls.append(CLOCK() - start)
            return result
        return wrapper

    outcomes = {}
    gc.collect()  # every pass starts from the same heap state
    with patched(parallel, "evaluate_workload", per_workload):
        for name in CALLS:
            try:
                outcomes[name] = getattr(evaluation, name)(
                    backend=BACKEND, verify=True)
            except Exception as error:  # counted as failed points below
                print("%s raised %s: %s" % (name, type(error).__name__,
                                           error), file=sys.stderr)
    _check(outcomes, expected, tally)
    cycles = sum(
        m.cycles
        for outcome in outcomes.values()
        for e in outcome.evaluations.values()
        for m in e.measurements.values()
    )
    return calls, cycles


def measure(ctx, seed, seconds):
    setup_times, expected = setup(ctx)
    tally = Tally()
    passes = []
    started = time.perf_counter()
    while (len(passes) < MIN_PASSES
           or time.perf_counter() - started < seconds):
        calls, cycles = _pass(expected, tally)
        passes.append(calls)
        # one more set-up sample per pass, so the samples span the run
        setup_times.append(time_setup(ctx))
    best = best_per_unit(passes)
    wall = sum(best)
    return tally, {
        "setup_s": median(setup_times),
        "peak_rss_mb": ctx.own_peak_rss_mb(),
        "wall_s": wall,
        "cycles_per_s": cycles / wall,
        "p50_ms": 1000.0 * percentile(best, 50),
        "p90_ms": 1000.0 * percentile(best, 90),
    }, {"passes": len(passes), "calls_per_pass": len(best),
        "median_pass_s": round(median([sum(p) for p in passes]), 4),
        "setup_samples": len(setup_times)}


# ----------------------------------------------------------------------
# traced pass
# ----------------------------------------------------------------------
class _Layers:
    """Per-pass accumulators for the traced run."""

    def __init__(self):
        self.seconds = {}
        self.counts = {}
        self.probe_s = 0.0
        self.fill_weighted = 0.0

    def add(self, key, value):
        self.seconds[key] = self.seconds.get(key, 0.0) + value

    def count(self, key, value=1):
        self.counts[key] = self.counts.get(key, 0) + value


#: compile spans read from the recorder -> layer metric
_COMPILE_SPANS = (
    ("validate", "compiler.validate_s"),
    ("regalloc", "compiler.regalloc_s"),
    ("layout", "compiler.layout_s"),
    ("compaction", "compiler.compaction_s"),
)


def _traced_compile(layers):
    from repro.obs.core import Recorder

    def make(original):
        def wrapper(module, options=None, **kwargs):
            recorder = Recorder()
            if options is not None:
                options.observe = recorder
            else:
                kwargs["observe"] = recorder
            start = CLOCK()
            result = original(module, options, **kwargs)
            layers.add("compiler.compile_s", CLOCK() - start)
            layers.count("compiler.compiles")
            root = recorder.find("compile")
            for span_name, key in _COMPILE_SPANS:
                span = root.find(span_name)
                if span is not None:
                    layers.add(key, span.duration)
            allocate = root.find("allocate")
            if allocate is not None:
                inner = 0.0
                for span_name, key in (("graph_build",
                                        "partition.graph_build_s"),
                                       ("partition", "partition.partition_s")):
                    span = allocate.find(span_name)
                    if span is not None:
                        layers.add(key, span.duration)
                        inner += span.duration
                layers.add("compiler.allocate_s", allocate.duration - inner)
                layers.count("partition.graph_nodes",
                             allocate.metrics.get("graph_nodes", 0))
            instructions = root.metrics.get("instructions", 0)
            layers.count("compiler.instructions", instructions)
            compaction = root.find("compaction")
            if compaction is not None:
                layers.fill_weighted += (
                    compaction.metrics.get("fill_rate", 0.0) * instructions)
            layers.count("frontend.nodes_created",
                         root.counters.get("nodes.created", 0))
            layers.count("frontend.cons_hits",
                         root.counters.get("nodes.cons_hits", 0))
            return result
        return wrapper
    return make


def _traced_simulator(layers, tally):
    def make(original):
        def wrapper(program, backend="interp", **kwargs):
            start = CLOCK()
            simulator = original(program, backend=backend, **kwargs)
            layers.add("sim.exec_s", CLOCK() - start)
            first_run = simulator.run

            def run(*args, **run_kwargs):
                start = CLOCK()
                result = first_run(*args, **run_kwargs)
                first = CLOCK() - start
                # re-run on a fresh simulator: the program-level codegen
                # cache is now warm, so this run is execution only
                probe_start = CLOCK()
                probe = original(program, backend=backend, **kwargs)
                warm_start = CLOCK()
                warm_result = probe.run(*args, **run_kwargs)
                warm = CLOCK() - warm_start
                layers.probe_s += CLOCK() - probe_start
                tally.check(warm_result.cycles == result.cycles,
                            "warm re-run changed cycles")
                layers.add("sim.codegen_s", first - warm)
                layers.add("sim.exec_s", warm)
                layers.count("sim.runs")
                layers.count("sim.cycles", result.cycles)
                return result
            simulator.run = run
            return simulator
        return wrapper
    return make


def _traced_cost_model(layers):
    def make(original):
        class TimedCostModel(original):
            def measure(self, *args, **kwargs):
                start = CLOCK()
                try:
                    return super().measure(*args, **kwargs)
                finally:
                    layers.add("cost.measure_s", CLOCK() - start)
        return TimedCostModel
    return make


@contextlib.contextmanager
def _workload_timers(layers):
    """Time every registry workload's ``build`` and ``verify``."""
    from repro.workloads.registry import all_workloads

    workloads = list(all_workloads().values())
    for workload in workloads:
        workload.build = _timed(workload.build, layers.seconds,
                                "workloads.build_s")
        workload.verify = _timed(workload.verify, layers.seconds,
                                 "workloads.verify_s")
    try:
        yield
    finally:
        for workload in workloads:
            del workload.build
            del workload.verify


def _traced_pass(expected, tally):
    """One pass with every layer timed; returns (wall without the warm
    re-runs, layer table)."""
    from repro import evaluation
    from repro.evaluation import runner

    layers = _Layers()
    timed = lambda key: lambda original: _timed(original, layers.seconds, key)
    outcomes = {}
    with contextlib.ExitStack() as stack:
        stack.enter_context(_workload_timers(layers))
        stack.enter_context(patched(runner, "compile_module",
                                    _traced_compile(layers)))
        stack.enter_context(patched(runner, "make_simulator",
                                    _traced_simulator(layers, tally)))
        stack.enter_context(patched(runner, "CostModel",
                                    _traced_cost_model(layers)))
        stack.enter_context(patched(runner, "collect_block_counts",
                                    timed("sim.profile_s")))
        stack.enter_context(patched(runner, "module_fingerprint",
                                    timed("eval.fingerprint_s")))
        gc.collect()
        start = CLOCK()
        for name in CALLS:
            try:
                outcomes[name] = getattr(evaluation, name)(
                    backend=BACKEND, verify=True)
            except Exception as error:
                print("%s raised %s: %s" % (name, type(error).__name__,
                                           error), file=sys.stderr)
        wall = CLOCK() - start - layers.probe_s
    _check(outcomes, expected, tally)
    return wall, layers


#: layer metrics that partition the traced wall time (inclusive spans
#: such as compiler.compile_s appear once; their parts are breakdowns)
SUMMED_LAYERS = (
    "workloads.build_s", "workloads.verify_s", "eval.fingerprint_s",
    "compiler.compile_s", "sim.codegen_s", "sim.exec_s", "sim.profile_s",
    "cost.measure_s",
)


def trace(ctx, seed, seconds):
    _setup_s, expected = setup(ctx)
    tally = Tally()
    plain, traced, tables = [], [], []
    started = time.perf_counter()
    while (len(traced) < 2
           or time.perf_counter() - started < seconds):
        plain.append(sum(_pass(expected, tally)[0]))
        wall, layers = _traced_pass(expected, tally)
        traced.append(wall)
        tables.append(layers)
    pick = lambda key: median([t.seconds.get(key, 0.0) for t in tables])
    counts = tables[0].counts
    metrics = {key: pick(key) for key in (
        "workloads.build_s", "workloads.verify_s", "compiler.compile_s",
        "compiler.validate_s", "compiler.allocate_s", "compiler.regalloc_s",
        "compiler.layout_s", "compiler.compaction_s",
        "partition.graph_build_s", "partition.partition_s",
        "sim.codegen_s", "sim.exec_s", "cost.measure_s", "sim.profile_s",
        "eval.fingerprint_s",
    )}
    for key in ("frontend.nodes_created", "frontend.cons_hits",
                "compiler.compiles", "compiler.instructions",
                "partition.graph_nodes", "sim.runs", "sim.cycles"):
        metrics[key] = counts.get(key, 0)
    instructions = counts.get("compiler.instructions", 0)
    metrics["compiler.fill_rate"] = (
        tables[0].fill_weighted / instructions if instructions else 0.0)
    metrics["sim.host_ns_per_cycle"] = (
        1e9 * metrics["sim.exec_s"] / metrics["sim.cycles"]
        if metrics["sim.cycles"] else 0.0)
    traced_wall = median(traced)
    summed = {key: metrics[key] for key in SUMMED_LAYERS}
    coverage, unattributed = layer_coverage(summed, traced_wall)
    metrics["trace.wall_s"] = traced_wall
    metrics["trace.unattributed_s"] = unattributed
    metrics["trace.coverage_pct"] = 100.0 * coverage
    metrics["trace.probe_s"] = median([t.probe_s for t in tables])
    metrics["trace.overhead_pct"] = (
        100.0 * (traced_wall - median(plain)) / median(plain))
    notes = {"passes": len(traced), "coverage_ok": coverage >= MIN_COVERAGE}
    return tally, metrics, notes
