"""Crash-safety and overload behavior of the serve path: the durable
write-ahead journal (recovery, idempotent replay, in-flight merge),
deadline propagation, client-disconnect cancellation, and protocol
abuse (oversized and truncated lines) that must degrade to typed
errors, never crashes."""

import asyncio
import os
import re
import socket
import subprocess
import sys
import time

import pytest

from repro.evaluation.parallel import Journal
from repro.serve import protocol
from repro.serve.client import ServeClient
from repro.serve.jobs import execute_job
from repro.serve.service import SimService, _Entry, job_key

JOB_A = {"kind": "run", "workload": "fir_32_1", "id": "r-0"}
JOB_B = {"kind": "run", "workload": "mult_4_4", "id": "r-1"}


def _direct(job, cache_dir=None):
    return execute_job(protocol.validate_job(dict(job)), cache_dir=cache_dir)


def _key(job):
    return job_key(protocol.validate_job(dict(job)))


def _with_service(test_body, **service_kwargs):
    """Run *test_body(service, host, port)* in a worker thread against a
    live in-process service; returns its result."""

    async def main():
        service = SimService(**service_kwargs)
        host, port = await service.start()
        loop = asyncio.get_event_loop()
        try:
            return await loop.run_in_executor(
                None, test_body, service, host, port
            )
        finally:
            await service.stop()

    return asyncio.run(main())


def _journal_completed(path):
    journal = Journal(str(path))
    try:
        return dict(journal.completed)
    finally:
        journal.close()


def _wait_for(predicate, budget_s=20.0, message="condition"):
    deadline = time.time() + budget_s
    while time.time() < deadline:
        if predicate():
            return
        time.sleep(0.02)
    raise AssertionError("timed out waiting for %s" % message)


# ---------------------------------------------------------------------
# Durable journal: recovery, replay, merge
# ---------------------------------------------------------------------
def test_restart_reexecutes_accepted_but_unfinished_jobs(tmp_path):
    journal_path = str(tmp_path / "journal.jsonl")
    keys = [_key(JOB_A), _key(JOB_B)]

    def submit_and_crash(service, host, port):
        service.paused = True  # accepted jobs never dispatch: a "crash"
        with ServeClient(host, port) as client:
            for job in (JOB_A, JOB_B):
                client.send(job)
            return [client.read_event() for _ in range(2)]

    accepted = _with_service(
        submit_and_crash, cache_dir=str(tmp_path / "cache"),
        journal=journal_path,
    )
    assert [e["event"] for e in accepted] == ["accepted", "accepted"]
    # the write-ahead log has both jobs started, neither completed
    journal = Journal(journal_path)
    assert set(journal.started) == set(keys)
    assert not journal.completed
    journal.close()

    def recover_and_resubmit(service, host, port):
        _wait_for(
            lambda: set(keys) <= set(_journal_completed(journal_path)),
            message="journal recovery",
        )
        with ServeClient(host, port) as client:
            client.send(JOB_A)
            admission = client.read_event()
            terminal = client.read_event()
            stats = client.stats()
        return admission, terminal, stats

    admission, terminal, stats = _with_service(
        recover_and_resubmit, cache_dir=str(tmp_path / "cache"),
        journal=journal_path,
    )
    # recovery happened with no client attached...
    assert stats["serve.recovered"] == 2
    # ...and the resubmission replays the journaled terminal instead of
    # running the job a second time
    assert admission == {"event": "accepted", "id": "r-0",
                         "deduplicated": True}
    assert terminal["replayed"] is True
    assert terminal["event"] == "result"
    reference = _direct(JOB_A, cache_dir=str(tmp_path / "ref"))
    assert terminal["digest"] == reference["digest"]
    assert stats["serve.deduped"] == 1


def test_recovery_revalidates_journaled_jobs(tmp_path):
    """A job an older service journaled as started is normalized through
    the protocol on recovery: ``backend: "fast"`` (the wire alias of the
    retired backend) runs on jit, and a job that no longer validates —
    an unknown backend, or the retired ``partitioner`` or ``tenant``
    field — ends in the structured protocol error, never an internal
    one."""
    journal_path = str(tmp_path / "journal.jsonl")
    defaults = {"strategy": "CB", "writes": {}, "reads": []}
    fast = dict(defaults, kind="run", workload="fir_32_1", backend="fast",
                id="old-fast")
    stale = dict(defaults, kind="run", workload="fir_32_1",
                 backend="turbo", id="old-stale")
    partitioned = dict(defaults, kind="run", workload="fir_32_1",
                       backend="interp", partitioner="greedy",
                       id="old-partitioned")
    tenanted = dict(defaults, kind="run", workload="fir_32_1",
                    backend="interp", tenant="alpha", id="old-tenant")
    keys = {job["id"]: Journal.key_for([job])
            for job in (fast, stale, partitioned, tenanted)}
    journal = Journal(journal_path)
    for key in keys.values():
        journal.mark_started(key, 1)
    journal.close()

    def recover(service, host, port):
        _wait_for(
            lambda: set(keys.values()) <= set(_journal_completed(journal_path)),
            message="journal recovery",
        )
        with ServeClient(host, port) as client:
            return client.stats()

    stats = _with_service(recover, journal=journal_path)
    assert stats["serve.recovered"] == 1
    assert stats["serve.protocol_errors"] == 3
    completed = _journal_completed(journal_path)
    result = completed[keys["old-fast"]]
    assert result["event"] == "result"
    assert result["obs"]["backend_executed"] == "jit"
    reference = _direct({"kind": "run", "workload": "fir_32_1",
                         "backend": "jit", "id": "old-fast"})
    assert result["digest"] == reference["digest"]
    error = completed[keys["old-stale"]]
    assert error["event"] == "error"
    assert error["category"] == "protocol"
    assert error["field"] == "backend"
    assert error["id"] == "old-stale"
    error = completed[keys["old-partitioned"]]
    assert error["event"] == "error"
    assert error["category"] == "protocol"
    assert error["field"] == "partitioner"
    assert error["id"] == "old-partitioned"
    error = completed[keys["old-tenant"]]
    assert error["event"] == "error"
    assert error["category"] == "protocol"
    assert error["field"] == "tenant"
    assert error["message"].startswith("unknown field(s) tenant")
    assert error["id"] == "old-tenant"


def test_resubmission_within_one_session_replays_bit_identically(tmp_path):
    def body(_service, host, port):
        with ServeClient(host, port) as client:
            first = client.run_jobs([JOB_A])[0]
            client.send(JOB_A)
            admission = client.read_event()
            replay = client.read_event()
            stats = client.stats()
        return first, admission, replay, stats

    first, admission, replay, stats = _with_service(
        body, cache_dir=str(tmp_path / "cache"),
        journal=str(tmp_path / "journal.jsonl"),
    )
    assert first["event"] == "result"
    assert admission["deduplicated"] is True
    assert replay["replayed"] is True
    assert replay["digest"] == first["digest"]
    assert replay["outputs"] == first["outputs"]
    assert stats["serve.deduped"] == 1
    # the replay never re-journaled: still exactly one completed record
    raw = Journal(str(tmp_path / "journal.jsonl"))
    assert len(raw.completed) == 1
    raw.close()


def test_same_id_different_payload_is_a_distinct_job(tmp_path):
    other = dict(JOB_A, strategy="CB_DUP")

    def body(_service, host, port):
        with ServeClient(host, port) as client:
            first = client.run_jobs([JOB_A])[0]
            second = client.run_jobs([other])[0]
            stats = client.stats()
        return first, second, stats

    first, second, stats = _with_service(body, cache_dir=str(tmp_path))
    assert first["event"] == second["event"] == "result"
    assert stats.get("serve.deduped", 0) == 0
    assert stats["serve.accepted"] == 2


def test_resubmission_racing_inflight_merges_instead_of_rerunning(tmp_path):
    def body(service, host, port):
        service.paused = True
        with ServeClient(host, port) as first, \
                ServeClient(host, port) as second:
            first.send(JOB_A)
            original = first.read_event()
            second.send(JOB_A)
            merged = second.read_event()
            service.paused = False
            terminals = (first.read_event(), second.read_event())
            stats = first.stats()
        return original, merged, terminals, stats

    original, merged, terminals, stats = _with_service(
        body, cache_dir=str(tmp_path)
    )
    assert original == {"event": "accepted", "id": "r-0"}
    assert merged == {"event": "accepted", "id": "r-0", "merged": True}
    # one execution, two deliveries
    assert terminals[0]["event"] == terminals[1]["event"] == "result"
    assert terminals[0]["digest"] == terminals[1]["digest"]
    assert stats["serve.merged"] == 1
    assert stats["serve.accepted"] == 1
    assert stats["serve.results"] == 1


# ---------------------------------------------------------------------
# Cancellation and deadlines
# ---------------------------------------------------------------------
def test_disconnect_cancels_undispatched_jobs(tmp_path):
    journal_path = str(tmp_path / "journal.jsonl")

    def body(service, host, port):
        service.paused = True
        client = ServeClient(host, port)
        client.send(JOB_A)
        assert client.read_event()["event"] == "accepted"
        client.close()  # disconnect with the job still queued
        _wait_for(
            lambda: any(e.cancelled for e in list(service._queue._queue)),
            message="handler teardown",
        )
        service.paused = False
        _wait_for(
            lambda: service.observe.counters.get("serve.cancelled") == 1,
            message="cancellation",
        )
        # a cancelled terminal is journaled but never deduplicated:
        # the client that resubmits after reconnecting gets a real run
        with ServeClient(host, port) as again:
            again.send(JOB_A)
            admission = again.read_event()
            terminal = again.read_event()
        return admission, terminal

    admission, terminal = _with_service(
        body, cache_dir=str(tmp_path / "cache"), journal=journal_path
    )
    assert admission == {"event": "accepted", "id": "r-0"}
    assert terminal["event"] == "result"
    assert "replayed" not in terminal


def test_deadline_expires_before_dispatch(tmp_path):
    job = dict(JOB_A, deadline_ms=40)

    def body(service, host, port):
        service.paused = True
        with ServeClient(host, port) as client:
            client.send(job)
            admission = client.read_event()
            time.sleep(0.3)  # let the budget lapse while queued
            service.paused = False
            terminal = client.read_event()
            stats = client.stats()
        return admission, terminal, stats

    admission, terminal, stats = _with_service(body, cache_dir=str(tmp_path))
    assert admission["event"] == "accepted"
    assert terminal["event"] == "error"
    assert terminal["kind"] == "DeadlineExceeded"
    assert terminal["category"] == "deadline"
    assert "before dispatch" in terminal["message"]
    assert stats["serve.deadline_exceeded"] == 1
    assert stats.get("serve.results", 0) == 0


def test_group_timeout_tightens_only_when_every_member_has_a_deadline():
    service = SimService(timeout=5.0)
    now = 100.0
    deadlined = _Entry({"id": "a"}, "ka", deadline=now + 2.0)
    patient = _Entry({"id": "b"}, "kb", deadline=now + 9.0)
    free = _Entry({"id": "c"}, "kc")
    # all members deadlined: the most patient member bounds the group
    assert service._group_timeout([deadlined, patient], now) == 5.0
    assert service._group_timeout([deadlined], now) == 2.0
    # a deadline-free member keeps the configured budget: a short
    # deadline must never terminate a deadline-free groupmate's work
    assert service._group_timeout([deadlined, free], now) == 5.0
    # no configured timeout either: unbounded
    assert SimService()._group_timeout([free], now) is None
    assert SimService()._group_timeout([deadlined], now) == 2.0
    # an already-lapsed deadline clamps to a tiny positive budget
    lapsed = _Entry({"id": "d"}, "kd", deadline=now - 1.0)
    assert SimService()._group_timeout([lapsed], now) == 0.001


def test_transient_terminals_are_never_remembered():
    service = SimService(dedup_window=2)
    service._remember("k1", {"event": "cancelled", "id": "x"})
    service._remember("k2", protocol.deadline_event("x", "late"))
    assert not service._completed
    # real terminals are, and the window is bounded LRU
    for index in range(3):
        service._remember("r%d" % index, {"event": "result", "id": "x"})
    assert list(service._completed) == ["r1", "r2"]


# ---------------------------------------------------------------------
# Protocol abuse: oversized and truncated lines, unknown fields
# ---------------------------------------------------------------------
def test_oversized_line_gets_typed_error_and_connection_survives(tmp_path):
    def body(_service, host, port):
        with ServeClient(host, port) as client:
            client._socket.sendall(
                b" " * (protocol.MAX_LINE_BYTES + 64) + b"\n"
            )
            oversized = client.read_event()
            # the same connection still serves real work afterwards
            result = client.run_jobs([JOB_A])[0]
            stats = client.stats()
        return oversized, result, stats

    oversized, result, stats = _with_service(body, cache_dir=str(tmp_path))
    assert oversized["event"] == "error"
    assert oversized["category"] == "protocol"
    assert str(protocol.MAX_LINE_BYTES) in oversized["message"]
    assert result["event"] == "result"
    assert stats["serve.oversized_lines"] == 1
    assert stats["serve.protocol_errors"] == 1


def test_truncated_final_line_gets_typed_error(tmp_path):
    def body(service, host, port):
        client = ServeClient(host, port)
        try:
            client._socket.sendall(b'{"kind": "run", "workl')
            client._socket.shutdown(socket.SHUT_WR)
            event = client.read_event()
        finally:
            client.close()
        _wait_for(
            lambda: service.observe.counters.get(
                "serve.truncated_lines") == 1,
            message="truncation counter",
        )
        with ServeClient(host, port) as again:
            return event, again.stats()

    event, stats = _with_service(body, cache_dir=str(tmp_path))
    assert event["event"] == "error"
    assert event["category"] == "protocol"
    assert "truncated" in event["message"]
    assert stats["serve.truncated_lines"] == 1


def test_unknown_top_level_field_is_rejected_not_dropped(tmp_path):
    def body(_service, host, port):
        with ServeClient(host, port) as client:
            client.send(dict(JOB_A, retriez=3))
            rejected = client.read_event()
            result = client.run_jobs([JOB_B])[0]
        return rejected, result

    rejected, result = _with_service(body, cache_dir=str(tmp_path))
    assert rejected["event"] == "error"
    assert rejected["category"] == "protocol"
    assert rejected["field"] == "retriez"
    assert rejected["id"] == "r-0"
    assert result["event"] == "result"


# ---------------------------------------------------------------------
# Client conveniences and gauges
# ---------------------------------------------------------------------
def test_try_run_jobs_clean_path_reports_no_disconnect(tmp_path):
    def body(_service, host, port):
        with ServeClient(host, port) as client:
            return client.try_run_jobs([JOB_A, JOB_B])

    outcome = _with_service(body, cache_dir=str(tmp_path))
    assert outcome["disconnected"] is False
    assert outcome["accepted"] == ["r-0", "r-1"]
    assert [e["event"] for e in outcome["events"]] == ["result", "result"]


def test_stats_carry_resilience_gauges(tmp_path):
    def body(_service, host, port):
        with ServeClient(host, port) as client:
            client.run_jobs([JOB_A])
            return client.stats()

    stats = _with_service(body, cache_dir=str(tmp_path))
    assert stats["inflight"] == 0
    assert stats["queue_depth"] == 0


# ---------------------------------------------------------------------
# CLI: --journal and --scrub-cache wiring
# ---------------------------------------------------------------------
def test_cli_serve_scrubs_and_journals_on_request(tmp_path):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, ["src", env.get("PYTHONPATH")])
    )
    process = subprocess.Popen(
        [sys.executable, "-m", "repro", "serve", "--port", "0",
         "--cache-dir", str(tmp_path / "cache"),
         "--journal", str(tmp_path / "journal.jsonl"),
         "--scrub-cache"],
        stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
        env=env, text=True, cwd=os.path.dirname(os.path.dirname(
            os.path.dirname(os.path.abspath(__file__)))),
    )
    try:
        lines, match = [], None
        while match is None:
            line = process.stdout.readline()
            assert line, "service exited early: %r" % lines
            lines.append(line)
            match = re.search(r"serving on ([\d.]+):(\d+)", line)
        assert any("scrubbed artifact store" in line for line in lines)
        with ServeClient(match.group(1), int(match.group(2))) as client:
            event = client.run_jobs([JOB_A])[0]
        assert event["event"] == "result"
    finally:
        process.terminate()
        process.wait(timeout=30)
    journal = Journal(str(tmp_path / "journal.jsonl"))
    assert journal.completed, "terminal event was not journaled"
    journal.close()
