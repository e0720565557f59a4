"""Command-line driver:  python -m repro <command> ...

Commands
--------
list
    List every workload in the suite (paper Tables 1 and 2).
run WORKLOAD [--strategy S] [--pipeline] [--dump] [--stats]
    Compile one workload under one configuration, simulate, verify, and
    report cycles (optionally the disassembly and unit utilization).
compare WORKLOAD [--strategies S1,S2,...]
    Run one workload under several configurations side by side.
figure7 / figure8 / table3
    Regenerate the corresponding paper artifact.
report [--workload W --strategy S --baseline B --top N --json PATH]
    Without --workload: the full reproduced evaluation as markdown.
    With --workload: the observability report for one configuration —
    per-pass compile timings, hot pcs, bank histograms, and the
    bank-conflict table (markdown + embedded JSON; --json also writes
    the JSON document to a file, "-" for stdout).  It times a fresh
    compile in one process, so --cache-dir and --jobs are refused.
fuzz [--runs N] [--seed S] [--jobs J] [--journal PATH] [--timeout SEC]
    Differential fuzzing: random programs through every allocation
    strategy, every simulator backend, and both max-cut heuristics
    (greedy and exact); failures
    are shrunk and archived under tests/fuzz_corpus/.  With
    --journal/--timeout the seeds run supervised and the campaign is
    resumable.
faults [--runs N] [--seed S] [--jobs J] [--journal PATH] ...
    Resilience campaign: seeded fault plans (bit flips, register
    corruption, stuck banks, delivery jitter) injected into the
    workloads under SINGLE_BANK/CB/CB_DUP; emits the markdown
    resilience report (fault-masking and dup-detection rates), with
    checkpoint/resume via --journal.
partition-gap [--workload W ...] [--backend B] [--jobs J] [--json PATH]
    Gap-to-optimal evaluation: every registry workload cut by the
    greedy and the exact max-cut, reporting final interference cost,
    the greedy-vs-exact cost ratio, and the realized cycles/PCR.
serve [--host H] [--port P] [--workers N] [--cache-dir DIR]
      [--journal PATH] [--scrub-cache] ...
    Async compile-and-simulate service: JSON job submissions over a
    socket, bounded-queue admission control, compatible jobs coalesced
    onto the lockstep batch backend, results streamed back (see
    docs/serving.md for the protocol).  With --journal the service is
    crash-safe: accepted jobs are write-ahead logged, restarts recover
    unfinished work, and resubmissions deduplicate; per-compile-key
    circuit breakers and deadline propagation ride along.
chaos [--seed S] [--cycles N] [--jobs-per-cycle K] [--budget SEC] ...
    Deterministic chaos campaign against a live serve subprocess:
    seeded kill/restart cycles, artifact-store sabotage, oversized and
    stalled submissions — asserting no accepted job is lost, no job
    runs twice, and replays stay bit-identical (docs/serving.md).

Every command cuts the interference graph with the paper's greedy
heuristic.  The exact max-cut changes no cycle count the evaluation
reports, so it is a measuring instrument only: partition-gap and the
fuzz oracle run it, and no command offers it as an option.  The
evaluation commands (run, compare, figure7, figure8, table3, report)
and serve also accept ``--cache-dir DIR``: a persistent on-disk
artifact store (:mod:`repro.serve.store`) that compiles read through,
so repeated invocations skip recompilation; fuzz, faults, graph, and
partition-gap bypass it by design (random or doubly-cut content would
only churn the store).
"""

import argparse
import sys

from repro.compiler import CompileOptions, compile_module
from repro.partition.strategies import PAPER_LABELS, Strategy
from repro.sim import BACKENDS, make_simulator
from repro.sim.statistics import utilization


def _jobs(args):
    """Resolve --jobs: None = serial, 0 = all cores, N = exactly N
    workers — an explicit request is honoured even past the detected
    core count, with the decision surfaced instead of silently clamped."""
    from repro.evaluation.parallel import default_jobs, resolve_jobs

    resolved = resolve_jobs(getattr(args, "jobs", None))
    cores = default_jobs()
    if resolved is not None and resolved > cores:
        print(
            "note: --jobs %d exceeds the %d detected core(s); honouring "
            "the explicit request" % (resolved, cores),
            file=sys.stderr,
        )
    return resolved


def _strategy(name):
    try:
        return Strategy[name.upper()]
    except KeyError:
        choices = ", ".join(s.name for s in Strategy)
        raise SystemExit("unknown strategy %r (choose from: %s)" % (name, choices))


def _workload(name):
    from repro.workloads.registry import all_workloads

    table = all_workloads()
    if name not in table:
        raise SystemExit(
            "unknown workload %r (run `python -m repro list`)" % name
        )
    return table[name]


def _cli_cache(args):
    """Resolve --cache-dir to a persistent compile cache (None without)."""
    cache_dir = getattr(args, "cache_dir", None)
    if cache_dir is None:
        return None
    from repro.serve.store import process_compile_cache

    return process_compile_cache(cache_dir)


def _run_one(workload, strategy, software_pipelining=False, backend="interp",
             cache=None):
    from repro.evaluation.runner import compile_workload

    options = CompileOptions(
        strategy=strategy, software_pipelining=software_pipelining
    )
    compiled = compile_workload(workload, options, cache)
    simulator = make_simulator(compiled.program, backend=backend)
    result = simulator.run()
    workload.verify(simulator)
    return compiled, simulator, result


def cmd_list(_args):
    from repro.workloads.registry import APPLICATIONS, KERNELS

    print("kernels (paper Table 1):")
    for name in KERNELS:
        print("  %s" % name)
    print("applications (paper Table 2):")
    for name in APPLICATIONS:
        print("  %s" % name)
    return 0


def cmd_run(args):
    workload = _workload(args.workload)
    strategy = _strategy(args.strategy)
    compiled, simulator, result = _run_one(
        workload, strategy, args.pipeline, backend=args.backend,
        cache=_cli_cache(args),
    )
    print(
        "%s under %s: %d cycles (%d ops, %.2f ops/cycle), verified OK"
        % (
            workload.name,
            PAPER_LABELS[strategy],
            result.cycles,
            result.operations,
            result.parallelism,
        )
    )
    if compiled.allocation.graph is not None:
        print(compiled.allocation.graph.describe())
        print("banks:", compiled.allocation.bank_summary(compiled.program.module))
    if compiled.allocation.duplicated:
        print("duplicated:", [s.name for s in compiled.allocation.duplicated])
    if args.stats:
        print(utilization(compiled.program, result).describe())
    if args.dump:
        print(compiled.program.dump())
    if args.asm:
        from repro.machine.asm import format_asm

        print(format_asm(compiled.program))
    return 0


def cmd_compare(args):
    workload = _workload(args.workload)
    names = args.strategies.split(",")
    strategies = [_strategy(n) for n in names]
    if Strategy.SINGLE_BANK not in strategies:
        strategies.insert(0, Strategy.SINGLE_BANK)
    baseline = None
    cache = _cli_cache(args)
    print("%-14s %10s %8s" % ("configuration", "cycles", "gain"))
    for strategy in strategies:
        _compiled, _sim, result = _run_one(
            workload, strategy, args.pipeline, backend=args.backend,
            cache=cache,
        )
        if baseline is None:
            baseline = result.cycles
        gain = 100.0 * (baseline / result.cycles - 1.0)
        print(
            "%-14s %10d %+7.1f%%"
            % (PAPER_LABELS[strategy], result.cycles, gain)
        )
    return 0


def cmd_figure7(args):
    from repro.evaluation import figure7, render_figure7

    print(render_figure7(figure7(
        jobs=_jobs(args), backend=args.backend, cache_dir=args.cache_dir,
    )))
    return 0


def cmd_figure8(args):
    from repro.evaluation import figure8, render_figure8

    print(render_figure8(figure8(
        jobs=_jobs(args), backend=args.backend, cache_dir=args.cache_dir,
    )))
    return 0


def cmd_table3(args):
    from repro.evaluation import render_table3, table3

    print(render_table3(table3(
        jobs=_jobs(args), backend=args.backend, cache_dir=args.cache_dir,
    )))
    return 0


def cmd_report(args):
    if args.workload is not None:
        return _cmd_observability_report(args)
    from repro.evaluation import figure7, figure8, table3
    from repro.evaluation.reporting import render_markdown

    jobs, backend, cache_dir = _jobs(args), args.backend, args.cache_dir
    print(
        render_markdown(
            figure7(jobs=jobs, backend=backend, cache_dir=cache_dir),
            figure8(jobs=jobs, backend=backend, cache_dir=cache_dir),
            table3(jobs=jobs, backend=backend, cache_dir=cache_dir),
        )
    )
    return 0


def _cmd_observability_report(args):
    """`report --workload W`: the per-configuration observability report."""
    import json

    from repro.evaluation.reporting import render_observability
    from repro.obs.report import build_report

    workload = _workload(args.workload)
    report = build_report(
        workload,
        strategy=_strategy(args.strategy),
        baseline=_strategy(args.baseline),
        backend=args.backend,
        top=args.top,
    )
    print(render_observability(report))
    if args.json:
        document = json.dumps(report, indent=2, sort_keys=True)
        if args.json == "-":
            print(document)
        else:
            with open(args.json, "w") as handle:
                handle.write(document + "\n")
    return 0


def cmd_fuzz(args):
    from repro.fuzz.campaign import fuzz_campaign

    backends = None
    if args.backend is not None:
        # the reference interpreter plus the backend under test
        backends = tuple(dict.fromkeys(("interp", args.backend)))
    failures = fuzz_campaign(
        args.runs,
        seed=args.seed,
        jobs=_jobs(args),
        max_statements=args.max_statements,
        shrink=not args.no_shrink,
        corpus_dir=args.corpus,
        log=print,
        journal=args.journal,
        timeout=args.timeout,
        backends=backends,
    )
    return 1 if failures else 0


def cmd_faults(args):
    import json

    from repro.faults.campaign import fault_campaign
    from repro.faults.report import render_resilience
    from repro.obs.core import Recorder

    workloads = args.workloads.split(",") if args.workloads else None
    strategies = None
    if args.strategies:
        strategies = [_strategy(name).name for name in args.strategies.split(",")]
    try:
        report = fault_campaign(
            args.runs,
            seed=args.seed,
            jobs=_jobs(args),
            workloads=workloads,
            strategies=strategies,
            backend=args.backend,
            journal=args.journal,
            timeout=args.timeout,
            retries=args.retries,
            log=print,
            observe=Recorder(),
        )
    except ValueError as error:
        raise SystemExit(str(error))
    print(render_resilience(report))
    if args.json:
        document = json.dumps(report, indent=2, sort_keys=True)
        if args.json == "-":
            print(document)
        else:
            with open(args.json, "w") as handle:
                handle.write(document + "\n")
    return 0


def cmd_graph(args):
    workload = _workload(args.workload)
    compiled = compile_module(workload.build(), strategy=Strategy.CB)
    allocation = compiled.allocation
    print(allocation.graph.to_dot(allocation.partition))
    return 0


def cmd_serve(args):
    from repro.evaluation.parallel import resolve_jobs
    from repro.serve.service import run_service

    return run_service(
        host=args.host,
        port=args.port,
        workers=resolve_jobs(args.workers),
        cache_dir=args.cache_dir,
        queue_limit=args.queue_limit,
        batch_window=args.batch_window,
        lanes=args.lanes,
        timeout=args.timeout,
        retries=args.retries,
        journal=args.journal,
        dedup_window=args.dedup_window,
        breaker_threshold=args.breaker_threshold,
        breaker_cooldown=args.breaker_cooldown,
        scrub_cache=args.scrub_cache,
    )


def cmd_chaos(args):
    import json
    import tempfile

    from repro.chaos import ChaosPlan, generate_plan, render_chaos, run_chaos

    if args.plan:
        with open(args.plan) as handle:
            plan = ChaosPlan.from_json(handle.read())
    else:
        plan = generate_plan(
            args.seed, cycles=args.cycles, jobs_per_cycle=args.jobs_per_cycle
        )
    work_dir = args.work_dir or tempfile.mkdtemp(prefix="repro-chaos-")
    report = run_chaos(
        plan,
        work_dir,
        workers=args.workers,
        recovery_budget_s=args.budget,
        log=print,
    )
    print(render_chaos(report))
    if args.json:
        document = json.dumps(report, indent=2, sort_keys=True)
        if args.json == "-":
            print(document)
        else:
            with open(args.json, "w") as handle:
                handle.write(document + "\n")
    return 0 if report["ok"] else 1


def cmd_partition_gap(args):
    import json

    from repro.evaluation.partition_gap import partition_gap
    from repro.evaluation.reporting import render_partition_gap

    workloads = tuple(args.workload) if args.workload else None
    try:
        report = partition_gap(
            jobs=_jobs(args), backend=args.backend, workloads=workloads,
        )
    except ValueError as error:
        raise SystemExit(str(error))
    print(render_partition_gap(report))
    if args.json:
        document = json.dumps(report, indent=2, sort_keys=True)
        if args.json == "-":
            print(document)
        else:
            with open(args.json, "w") as handle:
                handle.write(document + "\n")
    return 0


def build_parser():
    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description="Dual data-memory bank compiler reproduction (ASPLOS 1996)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_backend(command):
        command.add_argument(
            "--backend",
            default="interp",
            choices=sorted(BACKENDS),
            help="simulator backend: reference interpreter, "
            "loop-specializing codegen, or batched lockstep lanes",
        )

    def nonnegative_int(text):
        value = int(text)
        if value < 0:
            raise argparse.ArgumentTypeError("must be >= 0, got %d" % value)
        return value

    def add_jobs(command):
        command.add_argument(
            "--jobs",
            type=nonnegative_int,
            default=None,
            metavar="N",
            help="fan evaluations out over exactly N worker processes "
            "(0 = all cores; explicit counts are honoured as given)",
        )

    def add_cache_dir(command):
        command.add_argument(
            "--cache-dir",
            default=None,
            metavar="DIR",
            help="persistent compiled-program artifact store: compiles "
            "read through DIR, so identical builds across invocations "
            "skip the pipeline (layout and eviction in docs/serving.md)",
        )

    sub.add_parser("list", help="list all workloads").set_defaults(func=cmd_list)

    run = sub.add_parser("run", help="compile+simulate one workload")
    run.add_argument("workload")
    run.add_argument("--strategy", default="CB")
    run.add_argument("--pipeline", action="store_true", help="software pipelining")
    run.add_argument("--dump", action="store_true", help="print the VLIW schedule")
    run.add_argument("--asm", action="store_true", help="DSP-style assembly listing")
    run.add_argument("--stats", action="store_true", help="unit utilization")
    add_backend(run)
    add_cache_dir(run)
    run.set_defaults(func=cmd_run)

    compare = sub.add_parser("compare", help="compare configurations")
    compare.add_argument("workload")
    compare.add_argument(
        "--strategies", default="CB,CB_DUP,IDEAL", help="comma-separated names"
    )
    compare.add_argument("--pipeline", action="store_true")
    add_backend(compare)
    add_cache_dir(compare)
    compare.set_defaults(func=cmd_compare)

    for name, func in (
        ("figure7", cmd_figure7),
        ("figure8", cmd_figure8),
        ("table3", cmd_table3),
    ):
        artifact = sub.add_parser(name, help="regenerate paper %s" % name)
        add_backend(artifact)
        add_jobs(artifact)
        add_cache_dir(artifact)
        artifact.set_defaults(func=func)

    report = sub.add_parser(
        "report",
        help="full evaluation as markdown; with --workload, the "
        "observability report (compile timings, hot pcs, conflicts)",
    )
    report.add_argument(
        "--workload", default=None, metavar="W",
        help="emit the per-configuration observability report instead",
    )
    report.add_argument(
        "--strategy", default="CB",
        help="configuration the observability report studies",
    )
    report.add_argument(
        "--baseline", default="SINGLE_BANK",
        help="configuration the observability report compares against",
    )
    report.add_argument(
        "--top", type=nonnegative_int, default=10, metavar="N",
        help="hot pcs to list per configuration (default 10)",
    )
    report.add_argument(
        "--json", default=None, metavar="PATH",
        help="also write the JSON document to PATH ('-' for stdout)",
    )
    add_backend(report)
    add_jobs(report)
    add_cache_dir(report)
    report.set_defaults(func=cmd_report)

    fuzz = sub.add_parser(
        "fuzz",
        help="differential fuzzing: strategies x backends on random programs",
    )
    fuzz.add_argument(
        "--runs", type=nonnegative_int, default=100, metavar="N",
        help="number of seeded oracle runs (default 100)",
    )
    fuzz.add_argument(
        "--seed", type=int, default=0, metavar="S",
        help="first seed; run i uses seed S+i (default 0)",
    )
    fuzz.add_argument(
        "--max-statements", type=nonnegative_int, default=6, metavar="K",
        help="top-level statement budget per generated program (default 6)",
    )
    fuzz.add_argument(
        "--corpus", default="tests/fuzz_corpus", metavar="DIR",
        help="directory for shrunk failing recipes and their regressions",
    )
    fuzz.add_argument(
        "--no-shrink", action="store_true",
        help="archive failures without delta-debugging them first",
    )
    fuzz.add_argument(
        "--journal", default=None, metavar="PATH",
        help="checkpoint completed seeds to PATH; rerunning with the "
        "same arguments resumes where the campaign stopped",
    )
    fuzz.add_argument(
        "--backend", default=None, choices=sorted(BACKENDS),
        help="restrict the oracle's backend-identity stage to the "
        "reference interpreter plus this backend (default: all "
        "registered backends)",
    )
    fuzz.add_argument(
        "--timeout", type=float, default=None, metavar="SEC",
        help="per-seed wall-clock budget; overrunning workers are "
        "terminated and the seed retried (supervised runner)",
    )
    add_jobs(fuzz)
    fuzz.set_defaults(func=cmd_fuzz)

    faults = sub.add_parser(
        "faults",
        help="fault-injection resilience campaign: masking/detection "
        "rates per allocation strategy",
    )
    faults.add_argument(
        "--runs", type=nonnegative_int, default=25, metavar="N",
        help="fault plans per (workload, strategy) pair (default 25)",
    )
    faults.add_argument(
        "--seed", type=int, default=0, metavar="S",
        help="first fault-plan seed; run i uses seed S+i (default 0)",
    )
    faults.add_argument(
        "--workloads", default=None, metavar="W1,W2,...",
        help="comma-separated workload names (default: the campaign "
        "trio including the Fig-6 autocorrelation)",
    )
    faults.add_argument(
        "--strategies", default=None, metavar="S1,S2,...",
        help="comma-separated strategy names (default: SINGLE_BANK,CB,CB_DUP)",
    )
    faults.add_argument(
        "--journal", default=None, metavar="PATH",
        help="checkpoint completed runs to PATH; rerunning with the "
        "same arguments resumes and converges to the same report",
    )
    faults.add_argument(
        "--timeout", type=float, default=None, metavar="SEC",
        help="per-run wall-clock budget enforced by the supervisor",
    )
    faults.add_argument(
        "--retries", type=nonnegative_int, default=2, metavar="K",
        help="retry budget per run for timeouts and worker deaths "
        "(default 2)",
    )
    faults.add_argument(
        "--json", default=None, metavar="PATH",
        help="also write the JSON report to PATH ('-' for stdout)",
    )
    add_backend(faults)
    add_jobs(faults)
    faults.set_defaults(func=cmd_faults)

    graph = sub.add_parser(
        "graph", help="interference graph of a workload in DOT format"
    )
    graph.add_argument("workload")
    graph.set_defaults(func=cmd_graph)

    gap = sub.add_parser(
        "partition-gap",
        help="gap-to-optimal study: every workload cut by greedy and "
        "by exact max-cut, with greedy-vs-exact cost ratios",
    )
    gap.add_argument(
        "--workload", action="append", default=None, metavar="W",
        help="restrict the study to workload W (repeatable; "
        "default: the whole registry)",
    )
    gap.add_argument(
        "--json", default=None, metavar="PATH",
        help="also write the JSON report to PATH ('-' for stdout)",
    )
    add_backend(gap)
    add_jobs(gap)
    gap.set_defaults(func=cmd_partition_gap)

    serve = sub.add_parser(
        "serve",
        help="async compile-and-simulate service over a JSON-lines socket",
    )
    serve.add_argument(
        "--host", default="127.0.0.1",
        help="interface to bind (default 127.0.0.1)",
    )
    serve.add_argument(
        "--port", type=nonnegative_int, default=7421, metavar="P",
        help="port to bind; 0 picks an ephemeral port, printed on "
        "startup (default 7421)",
    )
    serve.add_argument(
        "--workers", type=nonnegative_int, default=None, metavar="N",
        help="supervised worker processes for job execution (0 = all "
        "cores; default: serial in-process execution, lowest latency)",
    )
    serve.add_argument(
        "--queue-limit", type=nonnegative_int, default=256, metavar="N",
        help="bounded job queue depth; submissions past it are "
        "rejected immediately instead of buffered (default 256)",
    )
    serve.add_argument(
        "--batch-window", type=nonnegative_int, default=32, metavar="N",
        help="max queued jobs drained per dispatch round, the "
        "coalescing opportunity window (default 32)",
    )
    serve.add_argument(
        "--lanes", type=nonnegative_int, default=64, metavar="N",
        help="max lockstep lanes per batched simulation (default 64)",
    )
    serve.add_argument(
        "--timeout", type=float, default=None, metavar="SEC",
        help="per-group wall-clock budget enforced by the supervisor "
        "(requires --workers)",
    )
    serve.add_argument(
        "--retries", type=nonnegative_int, default=2, metavar="K",
        help="retry budget per group for timeouts and worker deaths "
        "(default 2)",
    )
    serve.add_argument(
        "--journal", default=None, metavar="PATH",
        help="write-ahead job log: accepted jobs are journaled before "
        "they are acknowledged, terminals on completion; a restart "
        "re-executes unfinished jobs and replays completed ones on "
        "resubmission (idempotency keyed on id + payload)",
    )
    serve.add_argument(
        "--dedup-window", type=nonnegative_int, default=1024, metavar="N",
        help="completed terminals kept in memory for idempotent "
        "resubmission replay (default 1024)",
    )
    serve.add_argument(
        "--breaker-threshold", type=nonnegative_int, default=3, metavar="N",
        help="consecutive compile failures per compile key that open "
        "its circuit breaker; 0 disables the breaker (default 3)",
    )
    serve.add_argument(
        "--breaker-cooldown", type=float, default=5.0, metavar="SEC",
        help="base seconds an open breaker fails fast before admitting "
        "a half-open probe (jittered per key; default 5.0)",
    )
    serve.add_argument(
        "--scrub-cache", action="store_true",
        help="verify every artifact-store entry before serving, "
        "purging corrupt objects up front instead of at first read",
    )
    add_cache_dir(serve)
    serve.set_defaults(func=cmd_serve)

    chaos = sub.add_parser(
        "chaos",
        help="chaos campaign against a live serve process: seeded "
        "kill/restart cycles, store sabotage, and protocol abuse, "
        "with crash-safety invariants checked",
    )
    chaos.add_argument(
        "--seed", type=int, default=0, metavar="S",
        help="chaos plan seed (default 0); same seed, same campaign",
    )
    chaos.add_argument(
        "--cycles", type=nonnegative_int, default=3, metavar="N",
        help="kill/restart cycles to run (default 3)",
    )
    chaos.add_argument(
        "--jobs-per-cycle", type=nonnegative_int, default=4, metavar="K",
        help="fresh job submissions per cycle (default 4)",
    )
    chaos.add_argument(
        "--workers", type=nonnegative_int, default=None, metavar="N",
        help="run the service under test with N supervised workers "
        "(enables worker-kill events; default: serial)",
    )
    chaos.add_argument(
        "--budget", type=float, default=30.0, metavar="SEC",
        help="recovery budget: worst restart-to-full-recovery time "
        "allowed before the campaign fails (default 30.0)",
    )
    chaos.add_argument(
        "--plan", default=None, metavar="PATH",
        help="replay a serialized chaos plan from PATH instead of "
        "generating one from --seed",
    )
    chaos.add_argument(
        "--work-dir", default=None, metavar="DIR",
        help="directory for the journal and caches (default: a fresh "
        "temporary directory)",
    )
    chaos.add_argument(
        "--json", default=None, metavar="PATH",
        help="also write the JSON report to PATH ('-' for stdout)",
    )
    chaos.set_defaults(func=cmd_chaos)
    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command == "report" and args.workload is not None:
        # The observability report times one fresh, instrumented compile
        # in this process: a store hit would leave its compile table empty.
        for flag, value in (("--cache-dir", args.cache_dir),
                            ("--jobs", args.jobs)):
            if value is not None:
                parser.error("report --workload does not take %s" % flag)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
