"""The asyncio compile-and-simulate service behind ``repro serve``.

Architecture (one process, one event loop)::

    client --- JSON lines ---> handler --+--> bounded asyncio.Queue
    client <-- accepted/rejected --------+         |
                 |                                 v  (drain <= batch_window)
          write-ahead journal            dispatcher -- coalesce by compile key
                 |                                 |
          (replay/recover on restart)   run_in_executor(supervised_map)
                                                   |
                                  execute_group: artifact store -> batch_map

* **Admission control** — the job queue is bounded (``queue_limit``); a
  submission that finds it full is shed with a ``rejected`` event
  carrying a ``retry_after_s`` hint instead of buffering without bound
  (``serve.shed.queue``).  Well-formed jobs get an ``accepted`` event
  carrying their id.
* **Durability** — with ``journal`` set, every accepted job is
  write-ahead logged (the :class:`~repro.evaluation.parallel.Journal`
  append-only JSON-lines format, torn-line healing included) *before*
  its ``accepted`` event is sent, and its terminal event is journaled
  when it completes.  A restarted service re-validates and re-executes
  unfinished jobs (``serve.recovered``) and replays completed ones:
  resubmitting a job with the same client-supplied ``id`` and payload
  after a dropped connection never double-runs — the stored terminal
  event is replayed (``serve.deduped``, bounded by ``dedup_window``),
  and a resubmission that races an in-flight execution merges onto it
  (``serve.merged``).
* **Deadlines & cancellation** — a job's ``deadline_ms`` flows through
  dispatch into :func:`~repro.evaluation.parallel.supervised_map` as a
  per-group timeout (pool mode terminates the overrunning worker);
  expired jobs report ``deadline_exceeded`` instead of burning a
  worker.  A client disconnect cancels its queued-but-undispatched
  jobs (``serve.cancelled``).
* **Coalescing** — the dispatcher drains up to ``batch_window`` queued
  jobs at a time and groups them by compile key; each group compiles
  once (through the persistent artifact store when ``cache_dir`` is
  set) and groups of two or more execute as lanes of one lockstep
  ``batch`` simulation.
* **Supervision** — groups run through ``supervised_map`` with
  ``on_error="return"``: a group that exhausts its budget surfaces as
  a per-group :class:`~repro.evaluation.parallel.TaskFailure` carrying
  its attempt count, so error events name exactly the jobs in the
  failed group instead of sharing one exception across the round.
* **Streaming** — each client connection receives its own jobs' events
  as they complete; unrelated jobs never block each other's responses
  beyond their shared dispatch round.

Counters land on the service :class:`~repro.obs.core.Recorder`
(``serve.accepted``, ``serve.rejected``, ``serve.results``,
``serve.errors``, ``serve.groups``, ``serve.coalesced``,
``serve.deduped``, ``serve.merged``, ``serve.recovered``,
``serve.cancelled``, ``serve.deadline_exceeded``, ``serve.shed.*`` …)
and are served to clients via the ``stats`` request.  See
``docs/serving.md``.
"""

import asyncio
import json
import uuid
from collections import OrderedDict, deque

from repro.evaluation.parallel import Journal, TaskFailure
from repro.obs.core import NULL_RECORDER, Recorder
from repro.serve import protocol
from repro.serve.jobs import execute_group, job_compile_key
from repro.sim import codegen_stats


def job_key(job):
    """Canonical journal/idempotency key of one validated job dict.

    The full job (including its ``id`` and ``deadline_ms``) is
    canonicalized, so a client resubmitting the same id with the same
    payload deduplicates, while the same id with a different payload is
    a distinct job (an id is only an idempotency key for the exact
    submission it first named)."""
    return Journal.key_for([job])


def _execute_groups(groups, cache_dir, workers, lanes, timeouts, retries,
                    observe=NULL_RECORDER):
    """Blocking leg of one dispatch round (runs in the executor thread):
    every group through one :func:`supervised_map` call.  Per-task
    pickled bytes land on *observe* as ``supervised.payload_bytes``.

    ``timeouts`` supplies one deadline per group (None entries run
    unbounded); ``on_error="return"`` keeps one exhausted group from
    sinking the whole round — its slot holds a
    :class:`~repro.evaluation.parallel.TaskFailure` instead.
    """
    from repro.evaluation.parallel import supervised_map

    return supervised_map(
        execute_group,
        [(group, cache_dir, lanes) for group in groups],
        jobs=workers,
        timeout=timeouts,
        retries=retries,
        observe=observe,
        on_error="return",
    )


class _Entry:
    """One accepted job awaiting its terminal event.

    ``writers`` holds every connection owed the terminal event (one
    normally; more when resubmissions merged onto an in-flight
    execution; none for journal-recovered jobs).  ``deadline`` is an
    absolute loop-clock deadline or None; ``cancelled`` marks a job
    whose every client disconnected before dispatch."""

    __slots__ = ("job", "key", "writers", "deadline", "cancelled",
                 "dispatched")

    def __init__(self, job, key, writer=None, deadline=None):
        self.job = job
        self.key = key
        self.writers = [] if writer is None else [writer]
        self.deadline = deadline
        self.cancelled = False
        self.dispatched = False


class SimService:
    """One ``repro serve`` instance: socket front-end, bounded queue,
    durable write-ahead journal, coalescing dispatcher, supervised
    execution (module docstring has the architecture)."""

    def __init__(self, host="127.0.0.1", port=0, workers=None,
                 cache_dir=None, queue_limit=256, batch_window=32,
                 lanes=64, timeout=None, retries=2, observe=None,
                 journal=None, dedup_window=1024):
        self.host = host
        self.port = port
        self.workers = workers
        self.cache_dir = cache_dir
        self.queue_limit = queue_limit
        self.batch_window = batch_window
        self.lanes = lanes
        self.timeout = timeout
        self.retries = retries
        self.observe = observe if observe is not None else Recorder()
        self.dedup_window = dedup_window
        if isinstance(journal, str):
            self.journal_path = journal
            self._journal = None
        else:
            self._journal = journal
            self.journal_path = getattr(journal, "path", None)
        self._queue = None
        self._server = None
        self._dispatcher = None
        self._sequence = 0
        #: unique per-process tag so service-assigned ids never collide
        #: with journaled ids from an earlier incarnation
        self._run_tag = uuid.uuid4().hex[:8]
        #: journal key -> in-flight _Entry (accepted, no terminal yet)
        self._inflight = {}
        #: journal key -> terminal event, the bounded idempotency window
        self._completed = OrderedDict()
        #: journal-recovered entries, drained before the main queue
        self._recovery = deque()
        self._last_round_s = 0.05
        #: test hook: a paused dispatcher leaves jobs in the queue so
        #: admission control is deterministically observable
        self.paused = False

    # -- lifecycle -----------------------------------------------------
    async def start(self):
        """Bind the socket and start the dispatcher; returns (host, port)
        actually bound (``port=0`` picks an ephemeral port).

        With a journal, recovery happens here: completed records seed
        the idempotency window, and accepted-but-unfinished jobs are
        queued for re-execution ahead of fresh traffic."""
        self._queue = asyncio.Queue(maxsize=self.queue_limit)
        if self._journal is None and self.journal_path is not None:
            self._journal = Journal(self.journal_path)
        if self._journal is not None:
            for key, event in self._journal.completed.items():
                if isinstance(event, dict):
                    self._remember(key, event)
            for key in sorted(self._journal.started):
                job = self._job_from_key(key)
                if job is None:
                    continue
                try:
                    job = protocol.validate_job(job)
                except protocol.JobError as error:
                    self.observe.counter("serve.protocol_errors")
                    await self._finish(
                        _Entry(job, key),
                        protocol.error_event(job.get("id"), error),
                    )
                    continue
                entry = _Entry(job, key)
                self._inflight[key] = entry
                self._recovery.append(entry)
                self.observe.counter("serve.recovered")
        self._server = await asyncio.start_server(
            self._handle_client, self.host, self.port,
            limit=protocol.MAX_LINE_BYTES,
        )
        self.host, self.port = self._server.sockets[0].getsockname()[:2]
        self._dispatcher = asyncio.ensure_future(self._dispatch_loop())
        return self.host, self.port

    async def serve_forever(self):
        """Run until cancelled (the CLI entry point's main await)."""
        async with self._server:
            await self._server.serve_forever()

    async def stop(self):
        """Tear the server and dispatcher down (idempotent)."""
        if self._dispatcher is not None:
            self._dispatcher.cancel()
            try:
                await self._dispatcher
            except asyncio.CancelledError:
                pass
            self._dispatcher = None
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None
        if self._journal is not None:
            self._journal.close()

    @staticmethod
    def _job_from_key(key):
        """Recover the job dict a journal key canonicalizes (None when
        the key is foreign — a corrupt line already healed past)."""
        try:
            jobs = json.loads(key)
        except ValueError:
            return None
        if isinstance(jobs, list) and jobs and isinstance(jobs[0], dict):
            return jobs[0]
        return None

    def _remember(self, key, event):
        """Admit one terminal event to the idempotency window.

        Deadline terminals are excluded: they are relative to *this*
        submission's timing, so a resubmission deserves a fresh run.
        Cancellations likewise."""
        if event.get("event") == "cancelled":
            return
        if event.get("category") == "deadline":
            return
        self._completed[key] = event
        self._completed.move_to_end(key)
        while len(self._completed) > self.dedup_window:
            self._completed.popitem(last=False)

    # -- client side ---------------------------------------------------
    async def _handle_client(self, reader, writer):
        self.observe.counter("serve.connections")
        entries = []
        try:
            while True:
                try:
                    line = await reader.readuntil(b"\n")
                except asyncio.IncompleteReadError as error:
                    if error.partial:
                        # the connection dropped mid-line: the fragment
                        # is not a job, and must never crash the service
                        self.observe.counter("serve.protocol_errors")
                        self.observe.counter("serve.truncated_lines")
                        await self._send(writer, protocol.error_event(
                            None, protocol.JobError(
                                "truncated request line "
                                "(connection dropped mid-line)"
                            )
                        ))
                    break
                except asyncio.LimitOverrunError as error:
                    self.observe.counter("serve.protocol_errors")
                    self.observe.counter("serve.oversized_lines")
                    await self._send(writer, protocol.error_event(
                        None, protocol.JobError(
                            "request line exceeds %d bytes"
                            % protocol.MAX_LINE_BYTES
                        )
                    ))
                    if await self._drain_oversized(reader, error) is None:
                        break
                    continue
                except (ConnectionResetError, OSError):
                    break
                if not line:
                    break
                await self._handle_line(line, writer, entries)
        finally:
            # a disconnect cancels this client's queued-but-undispatched
            # jobs (unless another submission merged onto them)
            for entry in entries:
                if writer in entry.writers:
                    entry.writers.remove(writer)
                if not entry.writers and not entry.dispatched:
                    entry.cancelled = True
            try:
                writer.close()
                await writer.wait_closed()
            except (ConnectionResetError, OSError):
                pass

    @staticmethod
    async def _drain_oversized(reader, error):
        """Consume the rest of an oversized line through its newline so
        the next request parses cleanly; returns the dropped byte count,
        or None when the connection closed mid-line."""
        dropped = 0
        consumed = error.consumed
        while True:
            chunk = await reader.read(consumed or 1)
            if not chunk:
                return None
            dropped += len(chunk)
            try:
                tail = await reader.readuntil(b"\n")
            except asyncio.IncompleteReadError:
                return None
            except asyncio.LimitOverrunError as again:
                consumed = again.consumed
                continue
            except (ConnectionResetError, OSError):
                return None
            return dropped + len(tail)

    async def _handle_line(self, line, writer, entries):
        request = None
        try:
            request = protocol.decode(line)
            if request.get("kind") == "stats":
                await self._send(writer, self._stats_event())
                return
            job = protocol.validate_job(request)
        except protocol.JobError as error:
            self.observe.counter("serve.protocol_errors")
            job_id = request.get("id") if isinstance(request, dict) else None
            await self._send(writer, protocol.error_event(job_id, error))
            return
        deadline = None
        if "deadline_ms" in job:
            deadline = (
                asyncio.get_event_loop().time() + job["deadline_ms"] / 1000.0
            )
        if "id" not in job:
            self._sequence += 1
            job["id"] = "job-%s-%d" % (self._run_tag, self._sequence)
        key = job_key(job)
        stored = self._completed.get(key)
        if stored is not None:
            # idempotent resubmission: replay the journaled terminal
            self.observe.counter("serve.deduped")
            await self._send(
                writer, {"event": "accepted", "id": job["id"],
                         "deduplicated": True},
            )
            await self._send(writer, dict(stored, replayed=True))
            return
        entry = self._inflight.get(key)
        if entry is not None:
            # resubmission racing the original execution: merge onto it
            # instead of running the job twice
            self.observe.counter("serve.merged")
            if writer not in entry.writers:
                entry.writers.append(writer)
                entries.append(entry)
            await self._send(
                writer, {"event": "accepted", "id": job["id"], "merged": True},
            )
            return
        entry = _Entry(job, key, writer=writer, deadline=deadline)
        try:
            self._queue.put_nowait(entry)
        except asyncio.QueueFull:
            self.observe.counter("serve.rejected")
            self.observe.counter("serve.shed.queue")
            await self._send(writer, {
                "event": "rejected",
                "id": job["id"],
                "reason": "queue full",
                "queued": self._queue.qsize(),
                "limit": self.queue_limit,
                "retry_after_s": self._retry_after_hint(),
            })
            return
        self._inflight[key] = entry
        entries.append(entry)
        if self._journal is not None:
            # write-ahead: the job is durable before the client is told
            # it was accepted, so an accepted job survives a crash
            self._journal.mark_started(key, 1)
        self.observe.counter("serve.accepted")
        await self._send(writer, {"event": "accepted", "id": job["id"]})

    def _retry_after_hint(self):
        """Seconds until shed traffic plausibly fits: queue depth in
        dispatch rounds times the last round's wall clock."""
        rounds = max(self._queue.qsize(), 1) / max(self.batch_window, 1)
        return round(rounds * max(self._last_round_s, 0.05), 3)

    async def _send(self, writer, event):
        if event is None or writer is None:
            return
        try:
            writer.write(protocol.encode(event))
        except (ConnectionResetError, OSError):
            return
        # A stalled client (full socket buffer, never reading) must not
        # wedge the dispatcher behind its drain.  asyncio.wait — unlike
        # 3.11's wait_for — never swallows a cancellation that races
        # the drain's completion, so stop() can always cancel the
        # dispatcher out of this await.
        drain = asyncio.ensure_future(writer.drain())
        try:
            done, _pending = await asyncio.wait({drain}, timeout=5.0)
        except asyncio.CancelledError:
            drain.cancel()
            raise
        if not done:
            drain.cancel()
            self.observe.counter("serve.stalled_clients")
            return
        try:
            drain.result()
        except (ConnectionResetError, OSError):
            pass  # client went away; results are recomputable by design

    def _stats_event(self):
        counters = dict(self.observe.counters)
        counters["queue_depth"] = self._queue.qsize() if self._queue else 0
        counters["inflight"] = len(self._inflight)
        counters.update(codegen_stats())
        return {"event": "stats", "counters": counters}

    # -- terminal delivery ---------------------------------------------
    async def _finish(self, entry, event):
        """Deliver *entry*'s terminal event: journal it, admit it to
        the idempotency window, and stream it to every attached client."""
        self._inflight.pop(entry.key, None)
        if self._journal is not None:
            self._journal.record(entry.key, event)
        self._remember(entry.key, event)
        for writer in entry.writers:
            await self._send(writer, event)

    async def _finish_failure(self, entry, failure, now):
        """Terminal event for one member of a group whose supervision
        budget ran out — per-job id and attempt counts attached, so the
        client can tell which group poisoned the batch."""
        if (entry.deadline is not None and now >= entry.deadline
                and failure.kind == "TaskTimeout"):
            self.observe.counter("serve.deadline_exceeded")
            self.observe.counter("serve.errors")
            await self._finish(entry, protocol.deadline_event(
                entry.job["id"],
                "deadline_ms expired during execution; the running group "
                "was terminated",
                attempts=failure.attempts,
            ))
            return
        event = {
            "event": "error",
            "id": entry.job["id"],
            "kind": failure.kind,
            "message": failure.message,
            "category": failure.category or "internal",
            "attempts": failure.attempts,
        }
        self.observe.counter("serve.errors")
        await self._finish(entry, event)

    # -- dispatcher ----------------------------------------------------
    def _group_timeout(self, members, now):
        """The supervision deadline for one group: the configured
        per-group ``timeout``, tightened to the *most patient* member's
        remaining ``deadline_ms`` when every member carries one (so a
        short-deadline job never terminates a deadline-free
        groupmate's shared work)."""
        limit = self.timeout
        deadlines = [e.deadline for e in members if e.deadline is not None]
        if deadlines and len(deadlines) == len(members):
            remaining = max(deadlines) - now
            limit = remaining if limit is None else min(limit, remaining)
        if limit is not None:
            limit = max(limit, 0.001)
        return limit

    async def _dispatch_loop(self):
        loop = asyncio.get_event_loop()
        while True:
            if self.paused:
                await asyncio.sleep(0.01)
                continue
            batch = []
            while self._recovery and len(batch) < self.batch_window:
                batch.append(self._recovery.popleft())
            if not batch:
                batch.append(await self._queue.get())
            while len(batch) < self.batch_window:
                try:
                    batch.append(self._queue.get_nowait())
                except asyncio.QueueEmpty:
                    break
            now = loop.time()
            live = []
            for entry in batch:
                entry.dispatched = True
                if entry.cancelled and not entry.writers:
                    self.observe.counter("serve.cancelled")
                    await self._finish(entry, {
                        "event": "cancelled", "id": entry.job["id"],
                    })
                    continue
                if entry.deadline is not None and now >= entry.deadline:
                    self.observe.counter("serve.deadline_exceeded")
                    self.observe.counter("serve.errors")
                    await self._finish(entry, protocol.deadline_event(
                        entry.job["id"],
                        "deadline_ms expired before dispatch",
                    ))
                    continue
                live.append(entry)
            if not live:
                continue
            groups = {}
            for entry in live:
                groups.setdefault(job_compile_key(entry.job), []).append(entry)
            ordered = list(groups.values())
            self.observe.counter("serve.dispatches")
            self.observe.counter("serve.groups", len(ordered))
            self.observe.counter(
                "serve.coalesced",
                sum(len(members) - 1 for members in ordered),
            )
            timeouts = [
                self._group_timeout(members, now) for members in ordered
            ]
            round_started = loop.time()
            try:
                results = await loop.run_in_executor(
                    None,
                    _execute_groups,
                    [[e.job for e in members] for members in ordered],
                    self.cache_dir,
                    self.workers,
                    self.lanes,
                    timeouts,
                    self.retries,
                    self.observe,
                )
            except asyncio.CancelledError:
                raise
            except Exception as error:
                # An infrastructure bug in the dispatch machinery itself
                # (supervision failures come back in-slot): every job in
                # the round gets a terminal error event.
                self.observe.counter("serve.dispatch_failures")
                for members in ordered:
                    for entry in members:
                        self.observe.counter("serve.errors")
                        await self._finish(
                            entry,
                            protocol.error_event(entry.job["id"], error),
                        )
                continue
            self._last_round_s = max(loop.time() - round_started, 0.001)
            now = loop.time()
            for members, group_results in zip(ordered, results):
                if isinstance(group_results, TaskFailure):
                    for entry in members:
                        await self._finish_failure(entry, group_results, now)
                    continue
                group_obs = (
                    (group_results[0].get("obs") or {}) if group_results
                    else {}
                )
                self.observe.absorb({
                    "serve.compile_s": group_obs.get("compile_s") or 0.0,
                    "serve.sim_s": group_obs.get("sim_s") or 0.0,
                })
                if group_obs.get("cache") == "store":
                    self.observe.counter("serve.store_hits")
                elif group_obs.get("cache") == "compile":
                    self.observe.counter("serve.store_misses")
                for entry, result in zip(members, group_results):
                    if entry.deadline is not None and now >= entry.deadline:
                        self.observe.counter("serve.deadline_exceeded")
                        self.observe.counter("serve.errors")
                        await self._finish(entry, protocol.deadline_event(
                            entry.job["id"],
                            "deadline_ms expired before the result landed",
                        ))
                        continue
                    event = dict(result)
                    event["event"] = (
                        "result" if result.get("ok") else "error"
                    )
                    if not result.get("ok"):
                        fault = event.pop("fault", {})
                        event = protocol.error_event_from_description(
                            entry.job["id"], fault
                        )
                        event["obs"] = result.get("obs")
                        self.observe.counter("serve.errors")
                    else:
                        self.observe.counter("serve.results")
                    await self._finish(entry, event)


def run_service(host="127.0.0.1", port=0, workers=None, cache_dir=None,
                queue_limit=256, batch_window=32, lanes=64, timeout=None,
                retries=2, log=print, journal=None, dedup_window=1024,
                scrub_cache=False):
    """Blocking CLI entry point: start a :class:`SimService` and serve
    until interrupted.  Prints the bound address (flushed, so wrappers
    and tests can parse the ephemeral port) before blocking.

    ``scrub_cache`` verifies every artifact-store entry up front
    (:meth:`~repro.serve.store.ArtifactStore.scrub`), purging corrupt
    objects before the first request instead of lazily at first read.
    """
    if scrub_cache and cache_dir:
        from repro.serve.store import process_compile_cache

        report = process_compile_cache(cache_dir).store.scrub()
        log(
            "scrubbed artifact store: %(checked)d checked, "
            "%(corrupt)d corrupt purged (%(purged_bytes)d bytes)" % report
        )
    service = SimService(
        host=host, port=port, workers=workers, cache_dir=cache_dir,
        queue_limit=queue_limit, batch_window=batch_window, lanes=lanes,
        timeout=timeout, retries=retries, journal=journal,
        dedup_window=dedup_window,
    )

    async def _main():
        bound_host, bound_port = await service.start()
        log("serving on %s:%d" % (bound_host, bound_port))
        if cache_dir:
            log("artifact store: %s" % cache_dir)
        if journal:
            log("journal: %s" % journal)
        try:
            await service.serve_forever()
        except asyncio.CancelledError:
            pass
        finally:
            await service.stop()

    try:
        asyncio.run(_main())
    except KeyboardInterrupt:
        log("interrupted; shutting down")
        counters = json.dumps(
            dict(service.observe.counters), sort_keys=True
        )
        log("final counters: %s" % counters)
    return 0
