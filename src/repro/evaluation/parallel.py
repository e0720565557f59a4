"""Parallel evaluation: fan (workload, strategy) pairs across processes.

The figure/table regenerations are embarrassingly parallel at the
(workload, configuration) granularity — every pair is an independent
compile + simulate + verify pipeline.  This module fans those pairs out
over worker processes with :func:`supervised_map`:

* tasks are shipped as (workload name, strategy name, backend) triples —
  workloads rebuild deterministically from the registry, so nothing
  heavyweight crosses the process boundary going in, and only a plain
  :class:`~repro.evaluation.runner.Measurement` comes back;
* every worker process keeps a content-keyed compiled-program cache
  (:func:`repro.evaluation.runner.module_fingerprint`-keyed), so the
  baseline compile a profile-driven configuration needs is shared with
  the baseline measurement whenever both land in the same worker;
* ``jobs=None`` (or ``<= 1``) runs the exact same code path serially in
  the calling process — results are bit-identical either way, because
  every pipeline stage is deterministic.

:func:`supervised_map` is the one process pool: per-task timeouts,
bounded retry with exponential backoff for timeouts and worker deaths,
dead-worker replacement, and checkpoint/resume through a
:class:`Journal`.  Whenever the pool is in use every task runs in a
worker, so a hung or exiting task never takes the supervisor with it.
Worker failures are re-raised
*cleanly* in the parent: simulator faults come back as the structured
:mod:`repro.sim.errors` taxonomy (category, pc, backend, seed attached;
the raw worker traceback on ``remote_traceback``, not vomited to the
console), and a ``KeyboardInterrupt`` anywhere terminates the whole
pool instead of orphaning workers.  Quick sweeps (figure/table
regeneration, the gap study) call it with ``retries=0``, so any failure
fails the run.

The worker protocol is **hash-first**: task tuples carry names, seeds,
and content digests — never built modules or compiled programs — and
workers rehydrate through the deterministic registry/generator plus
the content-addressed :mod:`repro.serve.store` tier.  The supervisor
pickles each task exactly once, so per-task pipe payload bytes are
measured for free (the ``supervised.payload_bytes`` counter on the
caller's recorder).
"""

import json
import os
import pickle
import time
import weakref
from collections import deque

from repro.compiler import CompileOptions
from repro.evaluation.runner import (
    WorkloadEvaluation,
    _run_once,
    evaluate_workload,
)
from repro.obs.core import NULL_RECORDER
from repro.partition.strategies import Strategy
from repro.sim.errors import describe_fault, from_description

#: per-process content-keyed compiled-program cache (worker side)
_PROCESS_CACHE = {}

def _send_task(connection, index, fn, arguments, observe=NULL_RECORDER):
    """Ship one task, pickling exactly once so its payload is measured.

    ``Connection.send_bytes(pickle.dumps(obj))`` is wire-compatible
    with ``Connection.recv()`` on the worker side.
    """
    payload = pickle.dumps((index, fn, arguments))
    observe.counter("supervised.payload_bytes", len(payload))
    connection.send_bytes(payload)


def default_jobs():
    """Worker count when the caller asks for "all cores"."""
    return os.cpu_count() or 1


def resolve_jobs(jobs):
    """Resolve a user-facing ``--jobs`` value to a worker count.

    ``None`` stays serial, ``0`` means "all cores", and an explicit
    count is honoured exactly — a user who types ``--jobs 4`` gets four
    workers even on a smaller machine (the pipelines are CPU-bound, so
    that oversubscribes; the decision is theirs, and the CLI notes it
    on stderr).
    """
    if jobs is None:
        return None
    if jobs < 0:
        raise ValueError("jobs must be >= 0, got %d" % jobs)
    return default_jobs() if jobs == 0 else jobs


# ----------------------------------------------------------------------
# Task failures (parent-side view of what went wrong in a worker)
# ----------------------------------------------------------------------
class TaskError(RuntimeError):
    """A mapped task failed; carries the worker-side context.

    ``remote_traceback`` holds the formatted worker traceback (for
    logs, not for the console), ``task_key`` the journal key of the
    failing task, ``attempts`` how many tries were spent.  Simulator
    faults are *not* wrapped in this — they re-raise as the structured
    :mod:`repro.sim.errors` taxonomy instead.
    """

    def __init__(self, message, task_key=None, attempts=1,
                 remote_traceback=None):
        super().__init__(message)
        self.task_key = task_key
        self.attempts = attempts
        self.remote_traceback = remote_traceback


class TaskTimeout(TaskError):
    """A supervised task exceeded its per-task timeout on every allowed
    attempt (the worker was terminated each time)."""


class WorkerDied(TaskError):
    """A worker process died (killed, crashed hard) while running a task,
    and the retry budget ran out."""


class TaskFailure:
    """Terminal failure of one supervised task, returned **in-slot**.

    With ``supervised_map(..., on_error="return")`` a task that
    exhausts its budget no longer aborts the whole map: its result slot
    holds one of these instead, and every other task's result survives.
    ``kind`` is the failure class (``TaskTimeout``, ``WorkerDied``, or
    the original exception type), ``attempts`` how many tries were
    spent, ``task_key`` the journal key of the failing task, and
    ``category`` the :mod:`repro.sim.errors` taxonomy when the failure
    came from the simulator (None otherwise).  Failures are *not*
    recorded in the journal as completed, so a resumed run retries
    them.
    """

    __slots__ = ("kind", "message", "category", "attempts", "task_key",
                 "remote_traceback")

    def __init__(self, kind, message, attempts=1, task_key=None,
                 category=None, remote_traceback=None):
        self.kind = kind
        self.message = message
        self.attempts = attempts
        self.task_key = task_key
        self.category = category
        self.remote_traceback = remote_traceback

    def describe(self):
        """JSON-able dict form (the :func:`repro.sim.errors.describe_fault`
        shape, plus ``attempts``)."""
        description = {
            "kind": self.kind,
            "message": self.message,
            "category": self.category,
            "attempts": self.attempts,
        }
        if self.task_key is not None:
            description["task_key"] = self.task_key
        return description

    def __repr__(self):
        return "<TaskFailure %s after %d attempt(s): %s>" % (
            self.kind, self.attempts, self.message,
        )


def _task_failure(description, task_key, attempts):
    """The in-slot :class:`TaskFailure` of an exhausted task, built from
    its failure *description* (the
    :func:`repro.sim.errors.describe_fault` shape; supervisor-side
    failures supply just ``kind`` and ``message``) — the one constructor
    both legs of :func:`supervised_map` use."""
    return TaskFailure(
        kind=description["kind"],
        message=description["message"],
        attempts=attempts,
        task_key=task_key,
        category=description.get("category"),
        remote_traceback=description.get("traceback"),
    )


def _raise_remote(description, task_key=None, attempts=1):
    """Re-raise a worker failure described by
    :func:`repro.sim.errors.describe_fault` as a clean parent-side
    exception: the structured sim taxonomy when the failure came from
    the simulator, :class:`TaskError` otherwise."""
    if description.get("kind") == "KeyboardInterrupt":
        raise KeyboardInterrupt()
    if description.get("category") is not None:
        raise from_description(description)
    error = TaskError(
        "%s: %s" % (description.get("kind"), description.get("message")),
        task_key=task_key,
        attempts=attempts,
        remote_traceback=description.get("traceback"),
    )
    raise error


# ----------------------------------------------------------------------
# Batched fan-out (lockstep lanes instead of processes)
# ----------------------------------------------------------------------
#: program -> its fingerprint; a compiled program is never mutated (the
#: simulators' per-program codegen cache assumes the same)
_FINGERPRINTS = weakref.WeakKeyDictionary()


def program_fingerprint(program):
    """Content hash of a compiled program: the formatted instruction
    stream plus function entries — what determines whether two tasks can
    share one lockstep batch.  Deterministic compiles of the same module
    under the same strategy fingerprint identically, so campaign tasks
    group even when each built its program independently.  Computed
    once per program object."""
    fingerprint = _FINGERPRINTS.get(program)
    if fingerprint is None:
        import hashlib

        digest = hashlib.sha256()
        for instruction in program.instructions:
            digest.update(repr(instruction).encode())
        digest.update(repr(sorted(program.function_entries.items())).encode())
        fingerprint = _FINGERPRINTS[program] = digest.hexdigest()
    return fingerprint


class BatchTaskResult:
    """Outcome of one :func:`batch_map` task.

    ``result`` is the :class:`~repro.sim.simulator.SimulationResult`
    and ``outputs`` maps each requested global to its final value(s);
    on a simulated fault both are None and ``error`` holds the
    exception the scalar backend would have raised.
    """

    __slots__ = ("result", "outputs", "error")

    def __init__(self, result=None, outputs=None, error=None):
        self.result = result
        self.outputs = outputs
        self.error = error


def batch_map(tasks, lanes=64, backend="batch", observe=NULL_RECORDER):
    """Run simulation *tasks*, batching compatible ones into lockstep lanes.

    The lane-level sibling of :func:`supervised_map` (process pool):
    instead of paying one process and one simulator per instance, tasks
    whose compiled programs share a content fingerprint execute together
    on the :class:`~repro.sim.batchsim.BatchSimulator`, up to *lanes*
    instances per lockstep slab.  Each task is a
    ``(program, writes, reads)`` triple:

    * ``program`` — a compiled machine program (tasks group by
      :func:`program_fingerprint`, so identical programs batch no matter
      how many times they were compiled);
    * ``writes`` — ``{global name: value or values}`` applied to that
      instance before the run (its per-instance inputs);
    * ``reads`` — iterable of global names to read back after the run.

    Results come back in task order as :class:`BatchTaskResult`.  With a
    scalar *backend* name (``interp``/``jit``) the same tasks
    run one simulator per instance instead — bit-identical by the batch
    backend's contract, which is what the speedup benchmark and the
    differential tests compare against.

    A slab stays in lockstep only while its lanes agree; one that
    diverges reruns per lane on scalar ``jit``
    (:meth:`~repro.sim.batchsim.BatchSimulator.run_batch`).  *observe*
    counts ``batch.groups``, ``batch.slabs``, ``batch.instances`` and
    ``batch.fallbacks`` (slabs that left lockstep).
    """
    from repro.sim import make_simulator

    tasks = [(program, dict(writes or {}), tuple(reads))
             for program, writes, reads in tasks]
    results = [None] * len(tasks)
    if backend != "batch":
        for index, (program, writes, reads) in enumerate(tasks):
            simulator = make_simulator(program, backend=backend)
            for name, values in writes.items():
                simulator.write_global(name, values)
            try:
                result = simulator.run()
            except Exception as error:  # parity with LaneOutcome.error
                results[index] = BatchTaskResult(error=error)
                continue
            outputs = {name: simulator.read_global(name) for name in reads}
            results[index] = BatchTaskResult(result, outputs)
        return results

    from repro.sim.batchsim import BatchSimulator

    groups = {}
    for index, (program, _writes, _reads) in enumerate(tasks):
        fingerprint = program_fingerprint(program)
        groups.setdefault(fingerprint, (program, []))[1].append(index)
    observe.counter("batch.groups", len(groups))
    for program, members in groups.values():
        for start in range(0, len(members), lanes):
            slab = members[start : start + lanes]
            observe.counter("batch.slabs")
            observe.counter("batch.instances", len(slab))
            simulator = BatchSimulator(program, lanes=len(slab))
            for lane, index in enumerate(slab):
                for name, values in tasks[index][1].items():
                    simulator.write_global_lane(lane, name, values)
            outcomes = simulator.run_batch()
            observe.counter("batch.fallbacks", int(simulator.fell_back))
            for lane, outcome in enumerate(outcomes):
                index = slab[lane]
                reads = tasks[index][2]
                if outcome.error is not None:
                    results[index] = BatchTaskResult(error=outcome.error)
                else:
                    outputs = {
                        name: outcome.state.read_global(name)
                        for name in reads
                    }
                    results[index] = BatchTaskResult(outcome.result, outputs)
    return results


# ----------------------------------------------------------------------
# Checkpoint journal
# ----------------------------------------------------------------------
class Journal:
    """Append-only JSON-lines checkpoint journal for resumable runs.

    One line per completed task: ``{"key": <canonical args>, "result":
    <JSON result>}``, flushed on every record so an interrupt (SIGINT, a
    killed worker, a power cut mid-write) loses at most the line being
    written — a truncated or corrupt trailing line is skipped on load.
    Task results must therefore be JSON-serializable; tuples come back
    as lists on resume.

    :func:`supervised_map` additionally checkpoints tasks *in flight*:
    ``{"key": ..., "attempt": N, "started": true}`` is appended when
    attempt N is dispatched.  On load, the highest started attempt of
    every task without a completed record lands in ``started`` — how a
    resumed run knows an interrupted attempt already consumed retry
    budget, charging it exactly once instead of zero times (an
    infinite crash/resume loop) or twice.

    Consumed by :func:`supervised_map` (and through it the fault and
    fuzz campaigns) and by the service's write-ahead log
    (:class:`repro.serve.service.SimService`).
    """

    def __init__(self, path):
        self.path = path
        #: canonical key -> recorded result, as loaded plus appended
        self.completed = {}
        #: canonical key -> highest attempt checkpointed as in flight
        self.started = {}
        self._handle = None
        if path and os.path.exists(path):
            with open(path, "r", encoding="utf-8") as handle:
                for line in handle:
                    line = line.strip()
                    if not line:
                        continue
                    try:
                        entry = json.loads(line)
                    except ValueError:
                        continue  # torn write from a killed process
                    if not (isinstance(entry, dict) and "key" in entry):
                        continue
                    if entry.get("started"):
                        attempt = int(entry.get("attempt", 1))
                        if attempt > self.started.get(entry["key"], 0):
                            self.started[entry["key"]] = attempt
                    else:
                        self.completed[entry["key"]] = entry.get("result")
                        # the completion supersedes any in-flight
                        # checkpoints this task left behind
                        self.started.pop(entry["key"], None)

    @staticmethod
    def key_for(arguments):
        """Canonical JSON key for one task's argument tuple (stable
        across runs and processes, so resumed runs match)."""
        return json.dumps(list(arguments), sort_keys=True, default=repr)

    def __contains__(self, key):
        return key in self.completed

    def __len__(self):
        return len(self.completed)

    def _append(self, entry):
        if self._handle is None:
            directory = os.path.dirname(self.path)
            if directory:
                os.makedirs(directory, exist_ok=True)
            self._handle = open(self.path, "a", encoding="utf-8")
            if self._handle.tell():
                # Heal a torn trailing line (a write killed mid-record)
                # so the next record does not concatenate onto it.
                with open(self.path, "rb") as probe:
                    probe.seek(-1, os.SEEK_END)
                    if probe.read(1) != b"\n":
                        self._handle.write("\n")
        self._handle.write(json.dumps(entry, sort_keys=True) + "\n")
        self._handle.flush()

    def record(self, key, result):
        """Append one completed entry and flush it to disk immediately
        (reopens the file if the journal was closed)."""
        self._append({"key": key, "result": result})
        self.completed[key] = result
        self.started.pop(key, None)

    def mark_started(self, key, attempt):
        """Checkpoint attempt *attempt* of task *key* as in flight, so
        a supervisor death mid-task charges the attempt exactly once on
        resume."""
        self._append({"key": key, "attempt": attempt, "started": True})
        if attempt > self.started.get(key, 0):
            self.started[key] = attempt

    def close(self):
        """Flush and close the underlying file (the journal stays usable;
        :meth:`record` reopens on demand)."""
        if self._handle is not None:
            self._handle.close()
            self._handle = None


# ----------------------------------------------------------------------
# Supervised fan-out
# ----------------------------------------------------------------------
class _Worker:
    """One supervised worker process plus its duplex pipe and the task
    it is currently running (``(index, attempt, started_at)`` or None)."""

    __slots__ = ("process", "connection", "task")


def _supervised_worker(connection):
    """Worker loop: receive ``(index, fn, arguments)``, send back
    ``(index, "ok", result)`` or ``(index, "error", description)``.
    Exits on EOF or an explicit ``None`` sentinel."""
    while True:
        try:
            item = connection.recv()
        except (EOFError, OSError):
            return
        if item is None:
            return
        index, fn, arguments = item
        try:
            result = fn(*arguments)
        except BaseException as exc:  # noqa: BLE001 — shipped to the parent
            try:
                connection.send((index, "error", describe_fault(exc)))
            except (OSError, ValueError):
                return
            if isinstance(exc, SystemExit):
                return
        else:
            try:
                connection.send((index, "ok", result))
            except (OSError, ValueError):
                return


def _shutdown_workers(workers):
    """Terminate every worker process and close its pipe — the
    KeyboardInterrupt/abort path that guarantees no orphans survive the
    supervisor."""
    for worker in workers:
        try:
            worker.connection.close()
        except OSError:
            pass
        if worker.process.is_alive():
            worker.process.terminate()
    for worker in workers:
        worker.process.join(timeout=5)
    workers.clear()


def _pop_eligible(queue, now):
    """Pop the first queue entry whose backoff delay has elapsed (the
    queue holds ``(index, attempt, eligible_at)``), or None."""
    for _ in range(len(queue)):
        entry = queue.popleft()
        if entry[2] <= now:
            return entry
        queue.append(entry)
    return None


def _run_serial(fn, arguments, pending, results, journal, observe, initial,
                on_error):
    """Serial leg of :func:`supervised_map`: each task runs once,
    in-process — no timeouts (nothing to terminate in-process) and no
    retries (an exception raised by *fn* never retries).

    ``initial`` maps task index -> the attempt to checkpoint (resumed
    tasks whose prior attempt was checkpointed in flight start past 1)."""
    for index in pending:
        attempt = initial.get(index, 1)
        if journal is not None:
            journal.mark_started(Journal.key_for(arguments[index]), attempt)
        try:
            result = fn(*arguments[index])
        except Exception as exc:
            if on_error != "return":
                raise
            # terminal failures stay out of the journal: a resumed run
            # should retry them, not replay them as completed
            results[index] = _task_failure(
                describe_fault(exc), Journal.key_for(arguments[index]), attempt
            )
            observe.counter("supervised.failed")
            continue
        results[index] = result
        if journal is not None:
            journal.record(Journal.key_for(arguments[index]), result)


def _run_supervised_pool(fn, arguments, pending, results, jobs, timeouts,
                         retries, backoff, journal, emit, observe, initial,
                         on_error):
    """Pool leg of :func:`supervised_map` (see its docstring for the
    contract).  Own Process/Pipe supervisor rather than an executor:
    per-task deadlines require terminating individual workers, which an
    executor cannot do.  ``timeouts`` is a per-task list (entries may be
    None for "no deadline")."""
    import multiprocessing

    context = multiprocessing.get_context()
    queue = deque((index, initial.get(index, 1), 0.0) for index in pending)
    remaining = len(pending)
    workers = []

    def spawn():
        parent_end, child_end = context.Pipe()
        process = context.Process(
            target=_supervised_worker, args=(child_end,), daemon=True
        )
        process.start()
        child_end.close()
        worker = _Worker()
        worker.process = process
        worker.connection = parent_end
        worker.task = None
        workers.append(worker)

    def retire(worker):
        if worker in workers:
            workers.remove(worker)
        try:
            worker.connection.close()
        except OSError:
            pass
        if worker.process.is_alive():
            worker.process.terminate()
        worker.process.join(timeout=5)

    def record_result(index, result):
        nonlocal remaining
        results[index] = result
        remaining -= 1
        observe.counter("supervised.completed")
        if journal is not None:
            journal.record(Journal.key_for(arguments[index]), result)

    def record_failure(index, attempt, description):
        # terminal failure returned in-slot (on_error="return"); *not*
        # journaled as completed, so a resumed run retries the task
        nonlocal remaining
        results[index] = _task_failure(
            description, Journal.key_for(arguments[index]), attempt
        )
        remaining -= 1
        observe.counter("supervised.failed")

    def lose_attempt(index, attempt, error_cls, reason):
        # a timeout or a worker death: retried while the budget lasts
        if attempt <= retries:
            delay = backoff * (2 ** (attempt - 1))
            observe.counter("supervised.retries")
            emit(
                "task %d %s; retry %d/%d in %.2gs"
                % (index, reason, attempt, retries, delay)
            )
            queue.append((index, attempt + 1, time.monotonic() + delay))
            return
        message = "task %d %s; %d attempt(s) spent" % (index, reason, attempt)
        if on_error == "return":
            record_failure(
                index, attempt, {"kind": error_cls.__name__, "message": message}
            )
            return
        raise error_cls(
            message, task_key=Journal.key_for(arguments[index]),
            attempts=attempt,
        )

    from multiprocessing.connection import wait as connection_wait

    for _ in range(min(jobs, remaining)):
        spawn()
    try:
        while remaining:
            now = time.monotonic()
            # Reap idle workers that died between tasks, then dispatch.
            for worker in [
                w for w in list(workers)
                if w.task is None and not w.process.is_alive()
            ]:
                retire(worker)
            idle = [w for w in workers if w.task is None]
            while idle and queue:
                entry = _pop_eligible(queue, now)
                if entry is None:
                    break
                index, attempt, _eligible = entry
                worker = idle.pop()
                if journal is not None:
                    journal.mark_started(
                        Journal.key_for(arguments[index]), attempt
                    )
                try:
                    _send_task(
                        worker.connection, index, fn, arguments[index],
                        observe=observe,
                    )
                except (OSError, BrokenPipeError):
                    retire(worker)
                    queue.append((index, attempt, now))
                    continue
                worker.task = (index, attempt, time.monotonic())
            busy = [w for w in workers if w.task is not None]
            # Replace terminated workers while work remains.
            while len(workers) < min(jobs, len(busy) + len(queue)):
                spawn()
            if not busy:
                if queue:
                    next_eligible = min(entry[2] for entry in queue)
                    time.sleep(
                        min(max(next_eligible - time.monotonic(), 0.01), 0.5)
                    )
                    continue
                time.sleep(0.01)
                continue
            wait_for = 0.5
            deadlines = [
                w.task[2] + timeouts[w.task[0]]
                for w in busy
                if timeouts[w.task[0]] is not None
            ]
            if deadlines:
                wait_for = min(wait_for, min(deadlines) - time.monotonic())
            if queue:
                next_eligible = min(entry[2] for entry in queue)
                wait_for = min(wait_for, next_eligible - time.monotonic())
            ready = connection_wait(
                [w.connection for w in busy], max(wait_for, 0.01)
            )
            by_connection = {w.connection: w for w in workers}
            for connection in ready:
                worker = by_connection.get(connection)
                if worker is None:
                    continue
                task = worker.task
                try:
                    message = connection.recv()
                except (EOFError, OSError):
                    observe.counter("supervised.worker_deaths")
                    retire(worker)
                    if task is not None:
                        lose_attempt(task[0], task[1], WorkerDied,
                                     "worker died")
                    continue
                worker.task = None
                index, status, payload = message
                if status == "ok":
                    record_result(index, payload)
                    continue
                if payload.get("kind") == "KeyboardInterrupt":
                    raise KeyboardInterrupt()
                # an exception raised by fn never retries
                attempt = task[1] if task is not None else 1
                if on_error != "return":
                    _raise_remote(
                        payload, task_key=Journal.key_for(arguments[index]),
                        attempts=attempt,
                    )
                record_failure(index, attempt, payload)
            now = time.monotonic()
            for worker in list(workers):
                if worker.task is None:
                    continue
                index, attempt, started = worker.task
                limit = timeouts[index]
                if limit is not None and now - started > limit:
                    observe.counter("supervised.timeouts")
                    worker.task = None
                    retire(worker)
                    lose_attempt(
                        index, attempt, TaskTimeout,
                        "timed out after %.2gs" % limit,
                    )
    finally:
        _shutdown_workers(workers)


def supervised_map(fn, argument_tuples, jobs=None, timeout=None, retries=2,
                   backoff=0.25, journal=None, log=None, observe=NULL_RECORDER,
                   on_error="raise"):
    """Map a picklable top-level *fn* over argument tuples, supervising
    every task to completion.

    The one process pool: behind ``repro faults``, the fuzzer, the
    serving dispatcher, and (with ``retries=0``) the figure/table
    regenerations and the gap study.  Semantics:

    * ``jobs`` in (None, 0, 1) runs serially in-process, as does a
      single pending task without a timeout; otherwise *jobs*
      supervised worker processes are spawned, each running one task at
      a time over a duplex pipe, and every task runs in a worker;
    * ``timeout`` (seconds, pool mode only) bounds each task attempt;
      an overrunning worker is **terminated** and the task retried.  A
      scalar applies to every task; a sequence supplies one deadline
      per task (entries may be None for "no deadline") — how the
      service propagates per-job ``deadline_ms`` values into one
      coalesced dispatch;
    * a worker that dies mid-task (killed, segfault, ``os._exit``) is
      replaced and its task retried — timeouts and deaths are the only
      failures that retry, consuming the ``retries`` budget with
      exponential ``backoff`` (``backoff * 2**(attempt-1)`` seconds);
      an exception *raised by fn* never retries, on either leg
      (structured sim taxonomy / :class:`TaskError` from a worker, the
      original exception in-process);
    * ``on_error`` controls what an *exhausted* task does to the rest
      of the map: ``"raise"`` (default) aborts the whole run with the
      task's exception; ``"return"`` places a :class:`TaskFailure` in
      that task's result slot and keeps going, so one poisoned task in
      a coalesced service batch cannot sink its groupmates.  Failures
      are never journaled as completed;
    * ``journal`` (a path or :class:`Journal`) records every completed
      task; on a rerun, journaled tasks are skipped and their recorded
      results returned — so an interrupted campaign resumes where it
      stopped.  Results must be JSON-serializable (tuples come back as
      lists);
    * ``KeyboardInterrupt`` — in the parent or raised by a task —
      terminates every worker, flushes the journal, and re-raises.

    Returns results in input order, whichever leg ran them.
    """
    if on_error not in ("raise", "return"):
        raise ValueError(
            "on_error must be 'raise' or 'return', got %r" % (on_error,)
        )
    arguments = [tuple(a) for a in argument_tuples]
    if timeout is None or isinstance(timeout, (int, float)):
        timeouts = [timeout] * len(arguments)
    else:
        timeouts = list(timeout)
        if len(timeouts) != len(arguments):
            raise ValueError(
                "timeout sequence length %d != task count %d"
                % (len(timeouts), len(arguments))
            )
    if isinstance(journal, str):
        journal = Journal(journal)
    emit = log if log is not None else (lambda message: None)
    results = [None] * len(arguments)
    pending = []
    initial = {}
    for index, task_arguments in enumerate(arguments):
        key = Journal.key_for(task_arguments)
        if journal is not None and key in journal.completed:
            results[index] = journal.completed[key]
            observe.counter("supervised.resumed")
            continue
        pending.append(index)
        if journal is not None and key in journal.started:
            # the attempt interrupted by the supervisor's death already
            # consumed one unit of retry budget — charge it once, not
            # zero times (unbounded crash loops) or twice.
            initial[index] = journal.started[key] + 1
            observe.counter("supervised.resumed_inflight")
    observe.counter("supervised.tasks", len(pending))
    if not pending:
        return results
    try:
        if not jobs or jobs == 1 or (
            len(pending) == 1 and timeouts[pending[0]] is None
        ):
            _run_serial(
                fn, arguments, pending, results, journal, observe, initial,
                on_error,
            )
        else:
            _run_supervised_pool(
                fn, arguments, pending, results, jobs, timeouts, retries,
                backoff, journal, emit, observe, initial, on_error,
            )
    finally:
        if journal is not None:
            journal.close()
    return results


def _worker_cache(cache_dir):
    """The compile cache a worker (or the serial leg) reads through:
    the plain per-process dict without a *cache_dir*, the persistent
    artifact-store tier (:func:`repro.serve.store.process_compile_cache`,
    fronted by the same per-process dict) with one."""
    if cache_dir is None:
        return _PROCESS_CACHE
    from repro.serve.store import process_compile_cache

    return process_compile_cache(cache_dir, memory=_PROCESS_CACHE)


def _measure_pair(name, strategy_name, backend, verify, cache_dir=None):
    """Worker entry point: one (workload, strategy) measurement."""
    from repro.workloads.registry import get_workload

    options = CompileOptions(strategy=Strategy[strategy_name])
    measurement, _compiled, _result = _run_once(
        get_workload(name), options, verify=verify, backend=backend,
        cache=_worker_cache(cache_dir),
    )
    return name, measurement


def evaluate_workloads(table, names, strategies, jobs=None, backend="interp",
                       verify=True, cache_dir=None):
    """Evaluate *names* (keys of *table*) under *strategies* in parallel.

    Returns ``{name: WorkloadEvaluation}`` in *names* order.  With
    ``jobs`` in (None, 0, 1) the evaluations run serially in-process,
    and without a ``cache_dir`` every compile goes straight to the
    compiler: no (module, strategy) pair repeats within one call, so an
    in-memory cache could never hit and fingerprinting each module for
    it would be pure overhead.  With ``jobs > 1`` the (workload,
    strategy) pairs fan out across a process pool.
    ``cache_dir`` routes every compile through the persistent artifact
    store at that path (:mod:`repro.serve.store`) — serial and worker
    legs alike — so repeated evaluations skip recompilation entirely;
    results stay bit-identical because cache hits return the same
    deterministic compile.
    """
    if jobs is not None and jobs < 0:
        raise ValueError("jobs must be >= 0, got %d" % jobs)
    if not jobs or jobs == 1:
        cache = None if cache_dir is None else _worker_cache(cache_dir)
        return {
            name: evaluate_workload(
                table[name], strategies, verify=verify, backend=backend,
                cache=cache,
            )
            for name in names
        }

    wanted = [s for s in strategies if s is not Strategy.SINGLE_BANK]
    tasks = []
    for name in names:
        tasks.append(
            (name, Strategy.SINGLE_BANK.name, backend, verify, cache_dir)
        )
        for strategy in wanted:
            tasks.append((name, strategy.name, backend, verify, cache_dir))

    collected = {name: {} for name in names}
    for name, measurement in supervised_map(_measure_pair, tasks, jobs=jobs,
                                            retries=0):
        collected[name][measurement.strategy] = measurement

    return {
        name: WorkloadEvaluation(
            table[name].name, table[name].category, collected[name]
        )
        for name in names
    }
