"""serve-open: a ``repro serve`` subprocess under an open loop.

Set-up starts ``repro serve --port 0 --journal ... --cache-dir <fresh>``,
sends one job per registry program so the artifact store holds them,
and restarts the service on that store (a deployed service restarting
with its store).  The load generator then sends a seeded Poisson
schedule of jobs on one connection at a fixed rate, whatever the
service does: repeated registry programs under several strategies
(these coalesce and read the store), per-instance ``writes`` jobs,
distinct fuzz recipes (cold compiles) and a ``CB_PROFILE`` job.

Latency runs from each job's *scheduled* send time to its terminal
event, so a stalled service is charged for the jobs queued behind the
stall; the generator records how late it sent.  Every result's cycles
and state digest are checked against ``expected/serve_open.json``.
Exactly two processes run: the service and this generator.
"""

import json
import os
import random
import selectors
import signal
import socket
import subprocess
import sys
import time

import pools
from stats import (MIN_COVERAGE, Tally, layer_coverage, median, percentile,
                   serve_outcome)

#: arrival rate in jobs per second, frozen well below the burst
#: throughput measured when the benchmark was defined (see DESIGN.md)
RATE = 40.0
#: set-up repetitions timed for ``setup_s``
SETUP_REPEATS = 5
#: seconds to wait for the service to print its address
START_TIMEOUT_S = 60.0
#: seconds after the last scheduled send to wait for outstanding jobs
DRAIN_S = 60.0
#: a run whose generator sent later than this at p99 is invalid
MAX_LAG_P99_MS = 100.0
HOST = "127.0.0.1"
#: latency percentiles are taken per window of this many seconds of
#: schedule, then the median over windows is reported
WINDOW_S = 4.0
#: windows with fewer jobs (a short tail) are left out
MIN_WINDOW_JOBS = 50


class Server:
    """One ``repro serve`` subprocess on a store and journal of its own."""

    def __init__(self, ctx, store, journal):
        self.ctx = ctx
        self.store = store
        self.journal = journal
        self.process = None
        self.port = None

    def start(self):
        os.makedirs(os.path.dirname(self.journal), exist_ok=True)
        self._log = open(self.journal + ".log", "w")
        self.process = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--host", HOST,
             "--port", "0", "--journal", self.journal,
             "--cache-dir", self.store],
            cwd=self.ctx.root, env=self.ctx.env, stdout=subprocess.PIPE,
            stderr=self._log, text=True,
        )
        deadline = time.monotonic() + START_TIMEOUT_S
        while time.monotonic() < deadline:
            line = self.process.stdout.readline()
            if not line:
                break
            if line.startswith("serving on "):
                self.port = int(line.rsplit(":", 1)[1])
                return self
        self.stop()
        raise RuntimeError("repro serve did not report its address")

    def peak_rss_mb(self):
        """The service's peak resident set (``VmHWM``) in MiB."""
        with open("/proc/%d/status" % self.process.pid) as status:
            for line in status:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        raise RuntimeError("no VmHWM for the service process")

    def cpu_s(self):
        """CPU seconds (user + system) the service process has used."""
        with open("/proc/%d/stat" % self.process.pid) as stat:
            # fields after the parenthesised command name; utime and
            # stime are fields 14 and 15 of the whole line
            fields = stat.read().rsplit(")", 1)[1].split()
        return (int(fields[11]) + int(fields[12])) / os.sysconf("SC_CLK_TCK")

    def stats(self):
        from repro.serve.client import ServeClient

        with ServeClient(HOST, self.port) as client:
            return client.stats()

    def stop(self):
        if self.process is None:
            return
        if self.process.poll() is None:
            self.process.send_signal(signal.SIGINT)
            try:
                self.process.communicate(timeout=30)
            except subprocess.TimeoutExpired:
                self.process.kill()
                self.process.communicate()
        self.process = None
        self._log.close()


def _start_warm(ctx, tag):
    """Fresh store, warmed with every registry program, then a restart
    on it; returns the running restarted service."""
    base = os.path.join(ctx.workdir, tag)
    store = os.path.join(base, "store")
    warm = Server(ctx, store, os.path.join(base, "warm.jsonl")).start()
    try:
        jobs = [dict(job, id="warm-%d" % i)
                for i, job in enumerate(pools.registry_jobs())]
        from repro.serve.client import ServeClient

        with ServeClient(HOST, warm.port) as client:
            events = client.run_jobs(jobs)
        if any(event.get("event") != "result" for event in events):
            raise RuntimeError("warming the store failed: %r" % events)
    finally:
        warm.stop()
    return Server(ctx, store, os.path.join(base, "journal.jsonl")).start()


def setup(ctx):
    times = []
    server = None
    for repeat in range(SETUP_REPEATS):
        if server is not None:
            server.stop()
        start = time.perf_counter()
        server = _start_warm(ctx, "setup%d" % repeat)
        times.append(time.perf_counter() - start)
    return median(times), server


# ----------------------------------------------------------------------
# open-loop load generator
# ----------------------------------------------------------------------
def schedule(seed, rate, seconds):
    """Seeded Poisson arrivals: ``[(due seconds, pool key)]``.

    The schedule holds exactly ``rate * seconds`` jobs, so every seed
    carries the same amount of each kind of work; the seed decides when
    each arrives, which registry program, backend and input it names,
    and the order of the cold recipes."""
    rng = random.Random("serve:%d:%r" % (seed, rate))
    registry = ["registry:%s:%s" % (job["workload"], job["strategy"])
                for job in pools.registry_jobs()]
    times = []
    due = 0.0
    for _ in range(int(round(rate * seconds))):
        due += rng.expovariate(rate)
        times.append(due)
    # exact mix proportions, seeded order: runs differ in which jobs
    # arrive when, not in how much of each kind they carry
    total = sum(weight for _kind, weight in pools.SERVE_MIX)
    kinds = [kind for kind, weight in pools.SERVE_MIX
             for _ in range(round(weight * len(times) / total))]
    kinds = (kinds + ["registry"] * len(times))[:len(times)]
    rng.shuffle(kinds)
    # the same cold recipes on every seed, in a seeded order: recipes
    # differ widely in compile cost, and a seeded draw of them made the
    # service's work differ from seed to seed
    recipes = list(range(kinds.count("recipe")))
    rng.shuffle(recipes)
    arrivals = []
    cold = 0
    for due, kind in zip(times, kinds):
        if kind == "registry":
            key = rng.choice(registry)
        elif kind == "backend":
            key = "backend:%s" % rng.choice(pools.SERVE_BACKENDS)
        elif kind == "writes":
            key = "writes:%d" % rng.randrange(pools.WRITES_POOL)
        elif kind == "recipe":
            key = "recipe:%d" % recipes[cold]
            cold += 1
        else:
            key = "profile"
        arrivals.append((due, key))
    return arrivals


class Job:
    """Client-side timestamps (perf_counter seconds) of one job."""

    __slots__ = ("key", "due", "sent", "accepted", "terminal", "event")

    def __init__(self, key, due):
        self.key = key
        self.due = due
        self.sent = self.accepted = self.terminal = self.event = None


def drive(port, arrivals, pool, tag):
    """Send *arrivals* on one connection on schedule; returns the jobs
    and the absolute start time their ``due`` offsets count from."""
    payloads = []
    jobs = []
    for index, (due, key) in enumerate(arrivals):
        job = dict(pool[key], id="%s-%d" % (tag, index),
                   deadline_ms=pools.DEADLINE_MS)
        payloads.append((json.dumps(job, sort_keys=True) + "\n").encode())
        jobs.append(Job(key, due))
    by_id = {"%s-%d" % (tag, i): job for i, job in enumerate(jobs)}
    sock = socket.create_connection((HOST, port))
    sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
    selector = selectors.DefaultSelector()
    selector.register(sock, selectors.EVENT_READ)
    buffered = b""
    done = 0
    sent = 0
    origin = time.perf_counter() + 0.05
    for job in jobs:
        job.due += origin
    give_up = origin + (arrivals[-1][0] if arrivals else 0.0) + DRAIN_S
    try:
        while done < len(jobs):
            now = time.perf_counter()
            while sent < len(jobs) and jobs[sent].due <= now:
                sock.sendall(payloads[sent])
                now = jobs[sent].sent = time.perf_counter()
                sent += 1
            if now > give_up:
                break
            wait = (jobs[sent].due if sent < len(jobs) else give_up) - now
            if not selector.select(max(wait, 0.0)):
                continue
            data = sock.recv(1 << 16)
            stamp = time.perf_counter()
            if not data:
                break
            buffered += data
            *lines, buffered = buffered.split(b"\n")
            for line in lines:
                event = json.loads(line)
                job = by_id.get(event.get("id"))
                if job is None or job.terminal is not None:
                    continue
                if event.get("event") == "accepted":
                    job.accepted = stamp
                else:
                    job.terminal = stamp
                    job.event = event
                    done += 1
    finally:
        selector.close()
        sock.close()
    return jobs, origin


def _phase(server, seed, seconds, pool, expected, tally, tag, traced=False):
    """One open-loop phase on *server*; returns its summary."""
    arrivals = schedule(seed, RATE, seconds)
    before = server.stats() if traced else None
    jobs, origin = drive(server.port, arrivals, pool, tag)
    after = server.stats() if traced else None
    latencies, cycles, lags = [], 0, []
    windows = {}
    admit, complete = [], []
    end = origin
    for job in jobs:
        outcome = serve_outcome(job.event, expected[job.key])
        if outcome == "ok":
            tally.ok()
            cycles += job.event["cycles"]
        else:
            tally.fail(outcome)
        if job.sent is not None:
            lags.append(job.sent - job.due)
        if job.terminal is None:
            continue
        end = max(end, job.terminal)
        latencies.append(job.terminal - job.due)
        windows.setdefault(int((job.due - origin) // WINDOW_S), []).append(
            job.terminal - job.due)
        if job.accepted is not None:
            admit.append(job.accepted - job.sent)
            complete.append(job.terminal - job.accepted)
    makespan = end - origin
    # per-window percentiles, median over windows: a transient host
    # stall moves one window, not the reported figure
    full = [w for w in windows.values() if len(w) >= MIN_WINDOW_JOBS]
    return {
        "p50": median([percentile(w, 50) for w in full or [latencies]]),
        "p90": median([percentile(w, 90) for w in full or [latencies]]),
        "jobs": jobs, "latencies": latencies, "cycles": cycles,
        "lags": lags, "admit": admit, "complete": complete,
        "makespan": makespan, "before": before, "after": after,
    }


def _valid(summary, notes):
    lag_p99_ms = 1000.0 * percentile(summary["lags"], 99)
    notes["lag_p99_ms"] = round(lag_p99_ms, 3)
    if lag_p99_ms > MAX_LAG_P99_MS:
        notes["valid"] = False
        notes["invalid"] = "load generator fell behind its schedule"
    return lag_p99_ms


def measure(ctx, seed, seconds):
    expected = pools.load_expected("serve_open")
    pool = pools.serve_pool()
    setup_s, server = setup(ctx)
    tally = Tally()
    try:
        cpu_before = server.cpu_s()
        summary = _phase(server, seed, seconds, pool, expected, tally, "m")
        service_s = server.cpu_s() - cpu_before
        peak = server.peak_rss_mb()
    finally:
        server.stop()
    notes = {"jobs": len(summary["jobs"]), "rate": RATE,
             "makespan_s": round(summary["makespan"], 3),
             "held_s": round(sum(summary["complete"]), 3)}
    _valid(summary, notes)
    # the schedule fixes the makespan; the CPU seconds the service spent
    # on the schedule's jobs are what its speed decides
    return tally, {
        "setup_s": setup_s,
        "peak_rss_mb": peak,
        "wall_s": service_s,
        "cycles_per_s": summary["cycles"] / service_s,
        "p50_ms": 1000.0 * summary["p50"],
        "p90_ms": 1000.0 * summary["p90"],
    }, notes


def _delta(summary, name):
    return summary["after"].get(name, 0) - summary["before"].get(name, 0)


def trace(ctx, seed, seconds):
    """Half the time untraced, half traced, each on a freshly set-up
    service running the same seeded schedule."""
    expected = pools.load_expected("serve_open")
    pool = pools.serve_pool()
    tally = Tally()
    halves = {}
    for traced in (False, True):
        server = _start_warm(ctx, "trace%d" % traced)
        try:
            halves[traced] = _phase(server, seed, seconds / 2.0, pool,
                                    expected, tally, "t%d" % traced,
                                    traced=traced)
        finally:
            server.stop()
    plain, summary = halves[False], halves[True]
    notes = {"jobs": len(summary["jobs"]), "rate": RATE}
    lag_p99_ms = _valid(summary, notes)
    groups = _delta(summary, "serve.groups")
    coalesced = _delta(summary, "serve.coalesced")
    hits = _delta(summary, "serve.store_hits")
    misses = _delta(summary, "serve.store_misses")
    tasks = _delta(summary, "supervised.tasks")
    compile_s = _delta(summary, "serve.compile_s")
    sim_s = _delta(summary, "serve.sim_s")
    jobs = [job for job in summary["jobs"] if job.terminal is not None]
    layers = {
        "loadgen.lag_s": sum(job.sent - job.due for job in jobs),
        "serve.admit_s": sum((job.accepted or job.terminal) - job.sent
                             for job in jobs),
        "serve.complete_s": sum(job.terminal - job.accepted
                                for job in jobs if job.accepted),
    }
    total_latency = sum(summary["latencies"])
    coverage, unattributed = layer_coverage(layers, total_latency)
    p50, plain_p50 = summary["p50"], plain["p50"]
    metrics = {
        "serve.admit_ms": 1000.0 * percentile(summary["admit"], 50),
        "serve.complete_ms": 1000.0 * percentile(summary["complete"], 50),
        "serve.dispatches": _delta(summary, "serve.dispatches"),
        "serve.groups": groups,
        "serve.coalesce_ratio": (coalesced / (groups + coalesced)
                                 if groups + coalesced else 0.0),
        "serve.store_hit_ratio": hits / (hits + misses) if hits + misses
        else 0.0,
        "serve.compile_s": compile_s,
        "serve.sim_s": sim_s,
        "serve.busy_share": (compile_s + sim_s) / summary["makespan"],
        "supervised.payload_bytes_per_task": (
            _delta(summary, "supervised.payload_bytes") / tasks
            if tasks else 0.0),
        "serve.rejected": _delta(summary, "serve.rejected"),
        "serve.errors": _delta(summary, "serve.errors"),
        "serve.deadline_exceeded": _delta(summary, "serve.deadline_exceeded"),
        "loadgen.lag_p99_ms": lag_p99_ms,
        "trace.wall_s": summary["makespan"],
        "trace.unattributed_s": unattributed,
        "trace.coverage_pct": 100.0 * coverage,
        "trace.overhead_pct": 100.0 * (p50 - plain_p50) / plain_p50,
    }
    notes["coverage_ok"] = coverage >= MIN_COVERAGE
    return tally, metrics, notes
