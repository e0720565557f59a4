"""lane-sweep: many seeded instances of a few programs through batch_map.

Set-up compiles three uniform-control, loop-heavy kernels and a fixed
list of fuzz recipes whose branches read the written arrays, then
builds one task per instance with its own ``writes``.  A sweep runs
every program's instances through one ``batch_map(tasks, lanes=64)``
call, exactly as ``serve.jobs.execute_group`` runs a coalesced group;
compile does no work inside the timed region.  Every instance's cycles
and final-state digest are checked against ``expected/lane_sweep.json``.
"""

import gc
import random
import time

import pools
from stats import (MIN_COVERAGE, Tally, best_per_unit, layer_coverage,
                   median, percentile)

#: sweeps measured at least, whatever ``--seconds`` says
MIN_SWEEPS = 5
#: calls are timed in CPU seconds of this process, as in paper_eval
CLOCK = time.process_time
#: set-ups timed for ``setup_s`` before the first sweep; one more
#: follows every sweep
SETUP_REPEATS = 3


class Group:
    """One compiled program and its instances: (expected key, task)."""

    def __init__(self, kind, pairs):
        #: "uniform" or "divergent"
        self.kind = kind
        self.pairs = pairs

    @property
    def tasks(self):
        return [task for _key, task in self.pairs]


def _build(seed):
    """Compile the lane programs and draw this seed's instances; returns
    the groups in a seeded order."""
    from repro.compiler import compile_module
    from repro.fuzz.generator import build_module, generate_recipe
    from repro.partition.strategies import Strategy
    from repro.workloads.registry import get_workload

    rng = random.Random(seed)
    strategy = Strategy[pools.LANE_STRATEGY]

    def compiled(module):
        program = compile_module(module, strategy=strategy).program
        sizes = {s.name: s.size for s in program.module.globals}
        return program, sizes, tuple(sorted(sizes))

    groups = []
    for name, array in pools.UNIFORM_PROGRAMS:
        program, sizes, reads = compiled(get_workload(name).build())
        groups.append(Group("uniform", [
            (pools.uniform_key(name, index),
             (program, pools.uniform_writes(name, array, sizes[array], index),
              reads))
            for index in rng.sample(range(pools.UNIFORM_POOL),
                                    pools.UNIFORM_PER_SWEEP)
        ]))
    for recipe_seed in pools.DIVERGENT_RECIPE_SEEDS:
        program, sizes, reads = compiled(
            build_module(generate_recipe(recipe_seed)))
        groups.append(Group("divergent", [
            (pools.divergent_key(recipe_seed, index),
             (program, pools.divergent_writes(recipe_seed, sizes, index),
              reads))
            for index in rng.sample(range(pools.DIVERGENT_POOL),
                                    pools.DIVERGENT_INSTANCES)
        ]))
    rng.shuffle(groups)
    return groups


def time_setup(seed):
    start = time.perf_counter()
    groups = _build(seed)
    return time.perf_counter() - start, groups


def _check(pairs, outcomes, expected, tally):
    """Check each instance; returns the simulated cycles of the ones
    that ran."""
    from repro.serve.jobs import state_digest

    cycles = 0
    for (key, _task), outcome in zip(pairs, outcomes):
        if outcome.error is not None:
            tally.fail("instance faulted")
            continue
        cycles += outcome.result.cycles
        got = [outcome.result.cycles, state_digest(outcome.outputs)[:16]]
        tally.check(got == expected[key], "instance cycles/digest mismatch")
    return cycles


def _run(tasks, **kwargs):
    from repro.evaluation.parallel import batch_map

    start = CLOCK()
    outcomes = batch_map(tasks, lanes=pools.LANES, **kwargs)
    return outcomes, CLOCK() - start


def _sweep(groups, expected, tally, **kwargs):
    """One sweep; returns the seconds of each group's call, in group
    order, the simulated cycles and the seconds spent checking."""
    times, cycles, check_s = [], 0, 0.0
    for group in groups:
        outcomes, seconds = _run(group.tasks, **kwargs)
        times.append(seconds)
        start = CLOCK()
        cycles += _check(group.pairs, outcomes, expected, tally)
        check_s += CLOCK() - start
    return times, cycles, check_s


def measure(ctx, seed, seconds):
    expected = pools.load_expected("lane_sweep")["instances"]
    setup_times = []
    for _ in range(SETUP_REPEATS):
        setup_s, groups = time_setup(seed)
        setup_times.append(setup_s)
    tally = Tally()
    sweeps = []
    started = time.perf_counter()
    while (len(sweeps) < MIN_SWEEPS
           or time.perf_counter() - started < seconds):
        gc.collect()  # every sweep starts from the same heap state
        times, cycles, _check_s = _sweep(groups, expected, tally)
        sweeps.append(times)
        # one more set-up sample per sweep, so the samples span the run
        setup_times.append(time_setup(seed)[0])
    best = best_per_unit(sweeps)
    wall = sum(best)
    return tally, {
        "setup_s": median(setup_times),
        "peak_rss_mb": ctx.own_peak_rss_mb(),
        "wall_s": wall,
        "cycles_per_s": cycles / wall,
        "p50_ms": 1000.0 * percentile(best, 50),
        "p90_ms": 1000.0 * percentile(best, 90),
    }, {"sweeps": len(sweeps), "groups": len(groups),
        "instances": sum(len(g.pairs) for g in groups),
        "median_sweep_s": round(median([sum(s) for s in sweeps]), 4),
        "setup_samples": len(setup_times)}


def trace(ctx, seed, seconds):
    from repro.obs.core import Recorder

    expected = pools.load_expected("lane_sweep")["instances"]
    groups = time_setup(seed)[1]
    tally = Tally()
    plain, tables = [], []
    recorder, cycles = None, 0
    started = time.perf_counter()
    while (len(tables) < 3
           or time.perf_counter() - started < seconds):
        gc.collect()
        plain.append(sum(_sweep(groups, expected, tally)[0]))
        recorder = Recorder()
        gc.collect()
        start = CLOCK()
        times, cycles, check_s = _sweep(groups, expected, tally,
                                        observe=recorder)
        # checking is outside the timed region of an untraced sweep too
        table = {"sweep.uniform_s": 0.0, "sweep.divergent_s": 0.0,
                 "wall": CLOCK() - start - check_s, "check": check_s}
        for group, seconds_ in zip(groups, times):
            table["sweep.%s_s" % group.kind] += seconds_
        tables.append(table)
    tasks = [task for group in groups for task in group.tasks]
    pairs = [pair for group in groups for pair in group.pairs]
    outcomes, jit_s = _run(tasks, backend="jit")
    _check(pairs, outcomes, expected, tally)
    metrics = {key: median([t[key] for t in tables])
               for key in ("sweep.uniform_s", "sweep.divergent_s")}
    layered = metrics["sweep.uniform_s"] + metrics["sweep.divergent_s"]
    traced_wall = median([t["wall"] for t in tables])
    coverage, unattributed = layer_coverage(metrics, traced_wall)
    counters = recorder.counters
    metrics.update({
        "sweep.check_s": median([t["check"] for t in tables]),
        "batch.groups": counters.get("batch.groups", 0),
        "batch.slabs": counters.get("batch.slabs", 0),
        "batch.instances": counters.get("batch.instances", 0),
        "sweep.cycles": cycles,
        "sweep.jit_scalar_s": jit_s,
        "trace.wall_s": traced_wall,
        "trace.unattributed_s": unattributed,
        "trace.coverage_pct": 100.0 * coverage,
        "trace.overhead_pct": (
            100.0 * (layered - median(plain)) / median(plain)),
    })
    notes = {"sweeps": len(tables), "coverage_ok": coverage >= MIN_COVERAGE}
    return tally, metrics, notes
