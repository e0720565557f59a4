"""The chaos harness: drive a live ``repro serve`` process through a
seeded :class:`~repro.chaos.plan.ChaosPlan` and check the crash-safety
invariants.

One :func:`run_chaos` call is one campaign:

1. For each plan cycle: start the service (``--journal``/
   ``--cache-dir``), wait for **recovery** — every job accepted in any
   earlier cycle must land a completed journal record *without being
   resubmitted* (the service re-executes unfinished work from the
   write-ahead log on its own); resubmit all prior jobs and require
   each replayed terminal to match its reference; fire the cycle's
   auxiliary events (oversized lines, stalled half-submissions,
   best-effort worker kills); submit the cycle's fresh jobs; and, on
   the plan's ``kill`` event, SIGKILL the service the moment every
   submission is acknowledged — terminals still in flight.  Store
   sabotage events (``corrupt``/``truncate``) run while the service is
   down.
2. A final **settle** pass restarts the service (with
   ``--scrub-cache``, so induced store corruption is purged up front),
   waits for full recovery, resubmits every job in the plan, and
   checks every terminal against the references one more time.

Invariants asserted (the report's ``invariants`` block):

* **no accepted job lost** — every job ever acknowledged ``accepted``
  has a completed journal record after recovery, with no client help;
* **no job executed twice** — the raw journal holds at most one
  completed record per job key across every kill/restart cycle
  (resubmissions deduplicate, racing resubmissions merge);
* **bit-identical replays** — every terminal (fresh, recovered, or
  replayed) matches a direct :func:`~repro.serve.jobs.execute_job`
  reference: same digest, cycles, and outputs for results, same
  kind/category for errors;
* **bounded recovery** — the worst observed restart-to-full-recovery
  time stays under ``recovery_budget_s``.

References are computed in-process against a separate cache directory,
so the comparison never shares state with the service under test.
"""

import json
import os
import re
import signal
import socket
import subprocess
import sys
import time
from pathlib import Path

from repro.evaluation.parallel import Journal
from repro.serve import protocol
from repro.serve.client import ServeClient
from repro.serve.jobs import execute_job
from repro.serve.protocol import validate_job
from repro.serve.service import job_key

#: how long to wait for the service banner before declaring a failed start
_START_TIMEOUT_S = 60.0


# ---------------------------------------------------------------------
# Service process management
# ---------------------------------------------------------------------
def _service_env():
    """The child's environment: the running interpreter's ``repro``
    package made importable, whatever else the caller had."""
    import repro

    src_root = Path(repro.__file__).resolve().parents[1]
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(src_root), env.get("PYTHONPATH")])
    )
    return env


def _start_service(cache_dir, journal_path, workers=None, scrub=False,
                   python=None):
    """Launch ``repro serve`` as a subprocess; returns
    ``(process, host, port)`` once the banner announces the bound
    address."""
    command = [
        python or sys.executable, "-u", "-m", "repro", "serve",
        "--port", "0",
        "--cache-dir", str(cache_dir),
        "--journal", str(journal_path),
    ]
    if workers:
        command += ["--workers", str(workers)]
    if scrub:
        command += ["--scrub-cache"]
    process = subprocess.Popen(
        command, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
        text=True, env=_service_env(),
    )
    preamble = []
    deadline = time.monotonic() + _START_TIMEOUT_S
    while time.monotonic() < deadline:
        line = process.stdout.readline()
        if not line:
            break
        preamble.append(line.strip())
        match = re.search(r"serving on ([\d.]+):(\d+)", line)
        if match:
            return process, match.group(1), int(match.group(2))
    process.kill()
    process.wait()
    raise RuntimeError(
        "service failed to start; output so far: %r" % (preamble,)
    )


def _kill_worker(service_pid):
    """Best-effort SIGKILL of one supervised worker child of the
    service (no-op when the service runs serial or the child already
    exited); returns the killed pid or None."""
    children_path = "/proc/%d/task/%d/children" % (service_pid, service_pid)
    try:
        with open(children_path) as handle:
            children = [int(pid) for pid in handle.read().split()]
    except (OSError, ValueError):
        return None
    for pid in children:
        try:
            os.kill(pid, signal.SIGKILL)
            return pid
        except OSError:
            continue
    return None


# ---------------------------------------------------------------------
# Protocol probes
# ---------------------------------------------------------------------
def _oversize_probe(host, port):
    """Send one line just past the 4 MiB cap; returns the service's
    response event (a typed ``protocol`` error if the service held)."""
    with socket.create_connection((host, port), timeout=30.0) as sock:
        payload = b" " * (protocol.MAX_LINE_BYTES + 64) + b"\n"
        sock.sendall(payload)
        line = sock.makefile("rb").readline()
    if not line:
        return None
    try:
        return json.loads(line)
    except ValueError:
        return None


def _stall_probe(host, port, nbytes):
    """Open a connection and send *nbytes* of a job line that never
    finishes — a stalled client.  The socket is returned open; the
    caller abandons it with the cycle (the service must treat the
    fragment as a truncated line, never as a crash)."""
    sock = socket.create_connection((host, port), timeout=30.0)
    fragment = (b'{"kind": "run", "workload": "' + b"x" * nbytes)
    sock.sendall(fragment[: max(8, nbytes)])
    return sock


# ---------------------------------------------------------------------
# Submission legs
# ---------------------------------------------------------------------
def _submit_until_accepted(host, port, jobs):
    """Pipeline *jobs* and read only as far as every submission's
    acknowledgement — the pre-kill leg.  Returns ``(client, accepted
    ids, early terminal events)`` with the connection left open so the
    kill lands mid-conversation."""
    client = ServeClient(host, port)
    ids = [job["id"] for job in jobs]
    pending = set(ids)
    accepted = []
    terminals = {}
    for job in jobs:
        client.send(dict(job))
    while pending:
        event = client.read_event()
        if event is None:
            break
        job_id = event.get("id")
        if job_id not in set(ids):
            continue
        kind = event.get("event")
        if kind == "accepted":
            accepted.append(job_id)
            pending.discard(job_id)
        elif kind == "rejected":
            terminals[job_id] = event
            pending.discard(job_id)
        else:
            terminals[job_id] = event
    return client, accepted, terminals


def _await_journal_coverage(journal_path, keys, budget_s):
    """Poll the journal (fresh parse each time — it is flushed per
    record) until every key in *keys* has a completed record; returns
    ``(covered, elapsed_s, completed)``."""
    keys = set(keys)
    started = time.monotonic()
    while True:
        completed = (
            Journal(str(journal_path)).completed
            if os.path.exists(journal_path) else {}
        )
        if keys <= set(completed):
            return True, time.monotonic() - started, completed
        if time.monotonic() - started > budget_s:
            return False, time.monotonic() - started, completed
        time.sleep(0.05)


# ---------------------------------------------------------------------
# Store sabotage
# ---------------------------------------------------------------------
def _store_objects(cache_dir):
    root = Path(cache_dir) / "objects"
    if not root.exists():
        return []
    return sorted(path for path in root.rglob("*") if path.is_file())


def _corrupt_object(cache_dir, pick):
    """Flip one byte in the middle of store object ``pick % count``;
    returns the victim path or None when the store is empty."""
    objects = _store_objects(cache_dir)
    if not objects:
        return None
    victim = objects[pick % len(objects)]
    data = bytearray(victim.read_bytes())
    if not data:
        return None
    data[len(data) // 2] ^= 0xFF
    victim.write_bytes(bytes(data))
    return victim


def _truncate_object(cache_dir, pick):
    """Truncate store object ``pick % count`` to half its length — a
    torn write; returns the victim path or None."""
    objects = _store_objects(cache_dir)
    if not objects:
        return None
    victim = objects[pick % len(objects)]
    data = victim.read_bytes()
    victim.write_bytes(data[: len(data) // 2])
    return victim


# ---------------------------------------------------------------------
# Reference comparison
# ---------------------------------------------------------------------
def _reference(job, cache_dir):
    """The direct-execution result this job's terminal must match."""
    return execute_job(validate_job(dict(job)), cache_dir=cache_dir)


def _matches(reference, event):
    """Does a service terminal *event* agree with its *reference*?"""
    if event is None:
        return False
    if reference["ok"]:
        return (
            event.get("event") == "result"
            and event.get("digest") == reference["digest"]
            and event.get("cycles") == reference["cycles"]
            and event.get("outputs") == reference["outputs"]
        )
    fault = reference["fault"]
    return (
        event.get("event") == "error"
        and event.get("kind") == fault["kind"]
        and event.get("category") == fault["category"]
    )


def _completed_counts(journal_path, keys):
    """Completed-record count per key from the *raw* journal lines —
    the duplicate-execution ledger (the parsed ``Journal.completed``
    dict collapses duplicates, so the invariant reads the file)."""
    counts = dict.fromkeys(keys, 0)
    if not os.path.exists(journal_path):
        return counts
    with open(journal_path, "r", encoding="utf-8") as handle:
        for line in handle:
            line = line.strip()
            if not line:
                continue
            try:
                entry = json.loads(line)
            except ValueError:
                continue
            if not isinstance(entry, dict) or entry.get("started"):
                continue
            key = entry.get("key")
            if key in counts:
                counts[key] += 1
    return counts


# ---------------------------------------------------------------------
# The campaign
# ---------------------------------------------------------------------
def run_chaos(plan, work_dir, workers=None, recovery_budget_s=30.0,
              log=None, python=None):
    """Run one chaos campaign (module docstring) and return its report
    dict — JSON-able throughout, ``report["ok"]`` is the verdict."""
    say = log if log is not None else (lambda _message: None)
    work = Path(work_dir)
    work.mkdir(parents=True, exist_ok=True)
    journal_path = work / "journal.jsonl"
    cache_dir = work / "cache"
    reference_dir = work / "reference-cache"

    all_jobs = plan.jobs()
    keys = {
        job["id"]: job_key(validate_job(dict(job))) for job in all_jobs
    }
    say("chaos: computing %d reference results" % len(all_jobs))
    references = {
        job["id"]: _reference(job, str(reference_dir)) for job in all_jobs
    }

    accepted_ever = {}  # id -> journal key, in acceptance order
    lost = set()
    mismatched = set()
    cycles_report = []
    recovery_worst = 0.0
    kills = 0
    protocol_errors_survived = 0
    deduped_replays = 0
    corruptions = []

    def replay(host, port, jobs):
        """Resubmit *jobs* and check every terminal against its
        reference; returns the connection's final stats snapshot."""
        nonlocal deduped_replays
        with ServeClient(host, port) as client:
            events = client.run_jobs([dict(job) for job in jobs])
            stats = client.stats()
        for job, event in zip(jobs, events):
            if not _matches(references[job["id"]], event):
                mismatched.add(job["id"])
        deduped_replays += stats.get("serve.deduped", 0)
        return stats

    for index, cycle in enumerate(plan.cycles):
        events = cycle["events"]
        process, host, port = _start_service(
            cache_dir, journal_path, workers=workers, python=python,
        )
        say("chaos: cycle %d up on %s:%d" % (index, host, port))
        # -- recovery: earlier accepted jobs must complete unprompted --
        recovery_s = 0.0
        if accepted_ever:
            covered, recovery_s, completed = _await_journal_coverage(
                journal_path, accepted_ever.values(), recovery_budget_s,
            )
            recovery_worst = max(recovery_worst, recovery_s)
            if not covered:
                for job_id, key in accepted_ever.items():
                    if key not in completed:
                        lost.add(job_id)
        # -- idempotent replay of everything submitted so far ----------
        prior = [
            job
            for earlier in plan.cycles[:index]
            for job in earlier["jobs"]
        ]
        if prior:
            replay(host, port, prior)
        # -- auxiliary chaos while the service is up -------------------
        stalled = []
        for event in events:
            if event[0] == "oversize":
                response = _oversize_probe(host, port)
                if (isinstance(response, dict)
                        and response.get("category") == "protocol"):
                    protocol_errors_survived += 1
            elif event[0] == "stall":
                stalled.append(_stall_probe(host, port, event[1]))
        # -- this cycle's fresh submissions ----------------------------
        client, accepted, _early = _submit_until_accepted(
            host, port, cycle["jobs"]
        )
        for job_id in accepted:
            accepted_ever[job_id] = keys[job_id]
        if any(event[0] == "workerkill" for event in events):
            _kill_worker(process.pid)
        # -- the kill --------------------------------------------------
        if any(event[0] == "kill" for event in events):
            kills += 1
            process.kill()
            process.wait()
            say("chaos: cycle %d killed with %d submission(s) accepted"
                % (index, len(accepted)))
        else:
            # a kill-free cycle drains normally before shutdown
            replay(host, port, cycle["jobs"])
            process.terminate()
            process.wait()
        client.close()
        for sock in stalled:
            try:
                sock.close()
            except OSError:
                pass
        # -- store sabotage while the service is down ------------------
        for event in events:
            if event[0] == "corrupt":
                victim = _corrupt_object(cache_dir, event[1])
            elif event[0] == "truncate":
                victim = _truncate_object(cache_dir, event[1])
            else:
                continue
            if victim is not None:
                corruptions.append(
                    {"kind": event[0], "object": victim.name}
                )
        cycles_report.append({
            "jobs": len(cycle["jobs"]),
            "accepted": len(accepted),
            "recovery_s": round(recovery_s, 3),
            "events": [list(event) for event in events],
        })

    # -- settle: recover everything, then replay the whole plan --------
    process, host, port = _start_service(
        cache_dir, journal_path, workers=workers, scrub=True, python=python,
    )
    say("chaos: settle pass up on %s:%d" % (host, port))
    covered, settle_s, completed = _await_journal_coverage(
        journal_path, accepted_ever.values(), recovery_budget_s,
    )
    recovery_worst = max(recovery_worst, settle_s)
    if not covered:
        for job_id, key in accepted_ever.items():
            if key not in completed:
                lost.add(job_id)
    final_stats = replay(host, port, all_jobs)
    process.terminate()
    process.wait()

    counts = _completed_counts(journal_path, set(accepted_ever.values()))
    duplicates = sum(count - 1 for count in counts.values() if count > 1)

    invariants = {
        "accepted": len(accepted_ever),
        "lost": len(lost),
        "lost_ids": sorted(lost),
        "duplicate_executions": duplicates,
        "replay_mismatches": len(mismatched),
        "mismatched_ids": sorted(mismatched),
        "kills": kills,
        "recovery_worst_s": round(recovery_worst, 3),
        "recovery_budget_s": recovery_budget_s,
        "protocol_errors_survived": protocol_errors_survived,
        "deduped_replays": deduped_replays,
        "store_corruptions": len(corruptions),
    }
    ok = (
        not lost
        and duplicates == 0
        and not mismatched
        and recovery_worst <= recovery_budget_s
    )
    return {
        "plan": plan.to_dict(),
        "workers": workers,
        "cycles": cycles_report,
        "corruptions": corruptions,
        "final_counters": {
            key: value
            for key, value in sorted(final_stats.items())
            if key.startswith("serve.") or key in
            ("queue_depth", "inflight")
        },
        "invariants": invariants,
        "ok": ok,
    }


def render_chaos(report):
    """The campaign verdict as human-readable lines (the CLI's
    output)."""
    invariants = report["invariants"]
    lines = [
        "chaos campaign: %d cycle(s), %d kill(s), %d job(s) accepted"
        % (len(report["cycles"]), invariants["kills"],
           invariants["accepted"]),
        "  accepted jobs lost ............ %d" % invariants["lost"],
        "  duplicate executions .......... %d"
        % invariants["duplicate_executions"],
        "  replay mismatches ............. %d"
        % invariants["replay_mismatches"],
        "  worst recovery ................ %.3fs (budget %.1fs)"
        % (invariants["recovery_worst_s"], invariants["recovery_budget_s"]),
        "  protocol errors survived ...... %d"
        % invariants["protocol_errors_survived"],
        "  deduplicated replays .......... %d"
        % invariants["deduped_replays"],
        "  store objects sabotaged ....... %d"
        % invariants["store_corruptions"],
        "verdict: %s" % ("OK" if report["ok"] else "FAILED"),
    ]
    if invariants["lost_ids"]:
        lines.append("  lost: %s" % ", ".join(invariants["lost_ids"]))
    if invariants["mismatched_ids"]:
        lines.append(
            "  mismatched: %s" % ", ".join(invariants["mismatched_ids"])
        )
    return "\n".join(lines)
