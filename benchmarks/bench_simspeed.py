"""Simulator/evaluation throughput tracking: emits ``BENCH_simspeed.json``.

Measures the end-to-end wall clock of a full Table-3 evaluation under

* the seed configuration (serial, reference interpreter),
* the threaded-code backend, serial,
* the loop-specializing ``jit`` backend, serial,
* the ``jit`` backend with ``--jobs 0`` (all cores, resolved exactly as
  the CLI resolves it) — skipped with a note, instead of reported as a
  misleading duplicate of the serial number, when only one core
  resolves,

plus raw simulator throughput (cycles/second per backend) on the largest
FIR kernel, and the ``batch`` campaign section: 64 instances of one FIR
program with per-instance inputs through a single lockstep
:func:`~repro.evaluation.parallel.batch_map` call, against the best
available per-instance jit sweep (``batch_speedup``, gated at 5x).  The headline ``speedup`` compares the seed configuration
against the best measured alternative (named in ``best_config``) — the
Table-3 sweep is compile-bound, each program is simulated exactly once,
so per-program codegen never amortizes and the fastest end-to-end
configuration can legitimately differ from the fastest steady-state
backend.  ``speedup_jit`` holds the tentpole claim that the jit backend
beats the threaded-code backend on raw loop throughput where codegen
does amortize.

The pytest entry point doubles as a **regression gate**: it reads the
committed ``BENCH_simspeed.json`` *before* regenerating it and asserts
that no backend's throughput — normalized to the same machine's
reference interpreter, so absolute hardware speed cancels out — has
regressed by more than :data:`REGRESSION_TOLERANCE`.  It also holds the
fault-injection-off overhead gate: with no plan armed the fault
subsystem installs no hook at all, so simulation stays within 2% of the
hookless baseline (see ``docs/resilience.md``).

Run either way:

    python benchmarks/bench_simspeed.py
    pytest benchmarks/bench_simspeed.py -q
"""

import json
import random
import time
from pathlib import Path

from repro.compiler import compile_module
from repro.evaluation.parallel import (
    batch_map,
    default_jobs,
    resolve_jobs,
    supervised_map,
)
from repro.evaluation.tables import table3
from repro.partition.strategies import Strategy
from repro.sim.fastsim import make_simulator
from repro.workloads.kernels.fir import Fir
from repro.workloads.registry import KERNELS

OUTPUT = Path(__file__).resolve().parent.parent / "BENCH_simspeed.json"

#: wall-clock rounds per configuration (the minimum is reported)
ROUNDS = 2

THROUGHPUT_KERNEL = "fir_256_64"

BACKENDS = ("interp", "fast", "jit", "batch")

#: the lockstep campaign benchmark: 64 instances of one FIR program
BATCH_INSTANCES = 64
BATCH_FIR = (32, 8)

#: allowed relative drop in interp-normalized throughput per backend
REGRESSION_TOLERANCE = 0.10


def _best_wall_clock(fn):
    times = []
    for _ in range(ROUNDS):
        start = time.perf_counter()
        fn()
        times.append(time.perf_counter() - start)
    return min(times)


def _simulator_throughput(backend):
    """Best-of-ROUNDS cycles/elapsed for *backend* on the throughput
    kernel.  Each round runs three fresh simulators of one compiled
    program; from the second round on the program-level codegen cache
    is warm, so the minimum reflects steady-state dispatch speed."""
    compiled = compile_module(
        KERNELS[THROUGHPUT_KERNEL].build(), strategy=Strategy.CB
    )
    best = None
    for _ in range(ROUNDS + 1):
        simulators = [
            make_simulator(compiled.program, backend=backend)
            for _ in range(3)
        ]
        cycles = 0
        start = time.perf_counter()
        for simulator in simulators:
            cycles += simulator.run().cycles
        elapsed = time.perf_counter() - start
        if best is None or elapsed < best[1]:
            best = (cycles, elapsed)
    return best


def _fault_off_overhead():
    """Throughput with a disarmed fault plan vs no plan at all.

    :meth:`~repro.faults.injector.FaultInjector.for_plan` returns
    ``None`` for ``None``/event-less plans, so a disarmed campaign
    installs **no hook** and the simulator keeps its fused no-hook fast
    path — the overhead is structural zero by design.  The measurement
    documents that (both legs run the identical code path; the delta is
    wall-clock noise) and the gate in :func:`test_simspeed_trajectory`
    holds it under 2%.
    """
    from repro.faults.injector import FaultInjector
    from repro.faults.plan import FaultPlan

    hook = FaultInjector.for_plan(FaultPlan(seed=0, events=[]))
    assert hook is None, "disarmed plan must not install a hook"
    compiled = compile_module(
        KERNELS[THROUGHPUT_KERNEL].build(), strategy=Strategy.CB
    )

    def run(installed):
        simulators = [
            make_simulator(
                compiled.program, backend="fast", interrupt_hook=installed
            )
            for _ in range(3)
        ]
        start = time.perf_counter()
        for simulator in simulators:
            simulator.run()
        return time.perf_counter() - start

    # Each leg is ~20ms, so the min-of-rounds needs more rounds than the
    # table3 measurements to push the noise floor below the 2% gate.
    baseline = armed_off = None
    for _ in range(max(ROUNDS + 1, 10)):
        elapsed = run(None)
        baseline = elapsed if baseline is None else min(baseline, elapsed)
        elapsed = run(hook)
        armed_off = elapsed if armed_off is None else min(armed_off, elapsed)
    overhead = armed_off / baseline - 1.0
    return {
        "workload": THROUGHPUT_KERNEL,
        "disarmed_hook_is_none": True,
        "baseline_s": round(baseline, 4),
        "disarmed_s": round(armed_off, 4),
        "overhead_percent": round(100.0 * overhead, 3),
    }


_JIT_WORKER_PROGRAM = None


def _jit_campaign_task(row):
    """One campaign instance for the process-parallel jit leg (each
    worker process compiles the program once and caches it)."""
    global _JIT_WORKER_PROGRAM
    if _JIT_WORKER_PROGRAM is None:
        taps, samples = BATCH_FIR
        _JIT_WORKER_PROGRAM = compile_module(
            Fir(taps, samples).build(), strategy=Strategy.CB
        ).program
    simulator = make_simulator(_JIT_WORKER_PROGRAM, backend="jit")
    simulator.write_global("x", row)
    simulator.run()
    return simulator.read_global("y")


def _batch_campaign(jobs):
    """The lockstep-lanes headline: BATCH_INSTANCES copies of one FIR
    program with per-instance inputs, as one ``batch_map`` call against
    the per-instance jit sweep it replaces.  Outputs are asserted
    bit-identical before anything is timed."""
    taps, samples = BATCH_FIR
    compiled = compile_module(Fir(taps, samples).build(), strategy=Strategy.CB)
    rng = random.Random(1234)
    rows = [
        [rng.uniform(-1.0, 1.0) for _ in range(taps + samples - 1)]
        for _ in range(BATCH_INSTANCES)
    ]
    tasks = [(compiled.program, {"x": row}, ("y",)) for row in rows]

    batched = batch_map(tasks, lanes=BATCH_INSTANCES)
    scalar = batch_map(tasks, backend="jit")
    for lane, (b, s) in enumerate(zip(batched, scalar)):
        assert b.error is None and s.error is None, lane
        assert b.outputs == s.outputs, "lane %d diverged from jit" % lane
        assert b.result.cycles == s.result.cycles, lane

    batch_s = _best_wall_clock(lambda: batch_map(tasks, lanes=BATCH_INSTANCES))
    jit_serial_s = _best_wall_clock(lambda: batch_map(tasks, backend="jit"))
    section = {
        "workload": "fir_%d_%d" % BATCH_FIR,
        "instances": BATCH_INSTANCES,
        "lanes": BATCH_INSTANCES,
        "bit_identical_to_jit": True,
        "batch_s": round(batch_s, 4),
        "jit_serial_s": round(jit_serial_s, 4),
        "jobs_resolved": jobs,
        "jobs_meaningful": jobs > 1,
    }
    if jobs > 1:
        jit_jobs_s = _best_wall_clock(
            lambda: supervised_map(
                _jit_campaign_task, [(row,) for row in rows], jobs=jobs,
                retries=0,
            )
        )
        section["jit_jobs_s"] = round(jit_jobs_s, 4)
        reference = min(jit_serial_s, jit_jobs_s)
    else:
        # With one resolved core a "parallel" jit leg would just rerun
        # the serial sweep plus process overhead; label the row instead
        # of reporting a misleading number.
        section["jit_jobs_s"] = None
        section["jit_jobs_note"] = (
            "skipped: only one core resolved, so the --jobs leg would "
            "duplicate jit_serial_s plus process overhead"
        )
        reference = jit_serial_s
    section["batch_speedup"] = round(reference / batch_s, 3)
    return section


def collect():
    """Run every measurement and return the report dict."""
    table3(subset={"histogram"})  # warm imports and workload tables
    jobs = resolve_jobs(0)
    interp_serial = _best_wall_clock(lambda: table3())
    fast_serial = _best_wall_clock(lambda: table3(backend="fast"))
    jit_serial = _best_wall_clock(lambda: table3(backend="jit"))

    candidates = {
        "fast_serial": fast_serial,
        "jit_serial": jit_serial,
    }
    if jobs > 1:
        candidates["jit_jobs"] = _best_wall_clock(
            lambda: table3(backend="jit", jobs=jobs)
        )
    best_config = min(candidates, key=candidates.get)
    report = {
        "table3": {
            "interp_serial_s": round(interp_serial, 4),
            "fast_serial_s": round(fast_serial, 4),
            "jit_serial_s": round(jit_serial, 4),
            "jobs_requested": 0,
            "jobs_resolved": jobs,
            "jobs_meaningful": jobs > 1,
            "cores": default_jobs(),
            "speedup_fast_serial": round(interp_serial / fast_serial, 3),
            "speedup_jit_serial": round(interp_serial / jit_serial, 3),
            "best_config": best_config,
            "speedup": round(interp_serial / candidates[best_config], 3),
        },
        "simulator": {},
    }
    if jobs > 1:
        report["table3"]["jit_jobs_s"] = round(candidates["jit_jobs"], 4)
    else:
        # One core resolved: a --jobs run degenerates to the serial
        # sweep, so a jit_jobs_s number here would only mislead.
        report["table3"]["jit_jobs_s"] = None
        report["table3"]["jit_jobs_note"] = (
            "skipped: only one core resolved, so the --jobs leg would "
            "duplicate jit_serial_s plus process overhead"
        )
    for backend in BACKENDS:
        cycles, elapsed = _simulator_throughput(backend)
        report["simulator"][backend] = {
            "workload": THROUGHPUT_KERNEL,
            "cycles": cycles,
            "wall_clock_s": round(elapsed, 4),
            "cycles_per_s": round(cycles / elapsed),
        }
    per_s = {b: report["simulator"][b]["cycles_per_s"] for b in BACKENDS}
    report["simulator"]["speedup"] = round(per_s["fast"] / per_s["interp"], 3)
    report["simulator"]["speedup_jit"] = round(per_s["jit"] / per_s["fast"], 3)
    report["batch"] = _batch_campaign(jobs)
    report["fault_injection"] = _fault_off_overhead()
    return report


def _normalized_throughputs(report):
    """Backend -> throughput relative to the interpreter in the same
    report (hardware-neutral, so reports from different machines and
    runs compare meaningfully)."""
    simulator = report.get("simulator", {})
    interp = simulator.get("interp", {}).get("cycles_per_s")
    if not interp:
        return {}
    return {
        backend: entry["cycles_per_s"] / interp
        for backend, entry in simulator.items()
        if isinstance(entry, dict) and entry.get("cycles_per_s")
    }


def assert_no_regression(baseline, report, tolerance=REGRESSION_TOLERANCE):
    """No backend may lose more than *tolerance* of its interp-normalized
    throughput against the committed baseline (new backends are exempt —
    they have no baseline yet)."""
    before = _normalized_throughputs(baseline)
    after = _normalized_throughputs(report)
    for backend, old in before.items():
        new = after.get(backend)
        assert new is not None, "backend %r disappeared from the report" % backend
        assert new >= old * (1.0 - tolerance), (
            "backend %r regressed: %.2fx interp, was %.2fx (tolerance %d%%)"
            % (backend, new, old, round(tolerance * 100))
        )


def main():
    report = collect()
    OUTPUT.write_text(json.dumps(report, indent=2) + "\n")
    print(json.dumps(report, indent=2))
    print("wrote %s" % OUTPUT)
    return report


def test_simspeed_trajectory():
    """Regenerate the JSON and hold the PR's headline claims: the jit
    backend is at least 2.5x the threaded-code backend on the largest
    FIR kernel, the best Table-3 configuration still beats the seed
    serial interpreter comfortably (1.8x leaves headroom for wall-clock
    noise on a compile-bound sweep), and no backend regressed more than
    10% against the committed numbers."""
    baseline = json.loads(OUTPUT.read_text()) if OUTPUT.exists() else None
    report = main()
    assert report["table3"]["speedup"] >= 1.8
    assert report["simulator"]["speedup"] >= 2.0
    assert report["simulator"]["speedup_jit"] >= 2.5
    # The lockstep backend's campaign claim: one 64-lane batch_map call
    # beats running the same sweep through the best available jit
    # configuration (process-parallel where cores exist, serial where
    # --jobs would resolve to a single core) by at least 5x — and the
    # lanes are bit-identical to the per-instance jit runs they replace.
    assert report["batch"]["bit_identical_to_jit"]
    assert report["batch"]["batch_speedup"] >= 5.0
    assert report["batch"]["jobs_meaningful"] == (
        report["batch"]["jobs_resolved"] > 1
    )
    # Fault injection must be free when no plan is armed (a disarmed
    # plan installs no hook, so anything past noise is a regression).
    assert report["fault_injection"]["disarmed_hook_is_none"]
    assert report["fault_injection"]["overhead_percent"] < 2.0
    if baseline is not None:
        assert_no_regression(baseline, report)


if __name__ == "__main__":
    main()
