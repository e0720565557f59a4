"""End-to-end service contract: results bit-identical to direct runs,
admission control under a full queue, coalescing onto the batch
backend, taxonomy-mapped errors, and the CLI entry point."""

import asyncio
import os
import re
import subprocess
import sys

from repro.serve.client import ServeClient
from repro.serve.jobs import execute_job, job_compile_key
from repro.serve.service import SimService
from repro.sim import codegen_stats


def _direct(job, cache_dir=None):
    """The reference result the service must be bit-identical to."""
    from repro.serve.protocol import validate_job

    return execute_job(validate_job(dict(job)), cache_dir=cache_dir)


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


# ---------------------------------------------------------------------
# Bit-identity: service results == direct runs
# ---------------------------------------------------------------------
def test_mixed_jobs_bit_identical_to_direct_runs(tmp_path):
    jobs = []
    for workload in ("fir_32_1", "iir_1_1", "mult_4_4"):
        for strategy in ("SINGLE_BANK", "CB", "CB_DUP"):
            jobs.append({
                "kind": "run", "workload": workload, "strategy": strategy,
            })
    jobs.append({"kind": "run", "workload": "fir_32_1", "backend": "fast"})
    jobs.append({"kind": "run", "workload": "fir_32_1", "backend": "jit"})
    jobs.append({"kind": "run", "workload": "fir_32_1",
                 "strategy": "CB_PROFILE"})
    jobs.append({"kind": "recipe", "recipe": {"seed": 5},
                 "strategy": "CB"})
    jobs.append({"kind": "run", "workload": "fir_32_1", "reads": ["y"]})

    def body(_service, host, port):
        with ServeClient(host, port) as client:
            return client.run_jobs(jobs)

    events = _with_service(body, cache_dir=str(tmp_path / "serve"))
    assert len(events) == len(jobs)
    for job, event in zip(jobs, events):
        reference = _direct(job, cache_dir=str(tmp_path / "direct"))
        assert event["event"] == "result", event
        assert event["cycles"] == reference["cycles"]
        assert event["digest"] == reference["digest"]
        assert event["outputs"] == reference["outputs"]
        assert event["latency_s"] >= 0
    # the retired `fast` name runs on jit (or on batch when coalesced)
    fast = next(e for j, e in zip(jobs, events) if j.get("backend") == "fast")
    jit = next(e for j, e in zip(jobs, events) if j.get("backend") == "jit")
    assert fast["obs"]["backend_executed"] == (
        "jit" if fast["obs"]["group"] == 1 else "batch"
    )
    assert fast["digest"] == jit["digest"]
    direct = _direct({"kind": "run", "workload": "fir_32_1", "backend": "fast"})
    assert direct["obs"]["backend_executed"] == "jit"


def test_writes_change_results_identically(tmp_path):
    job = {"kind": "run", "workload": "fir_32_1",
           "writes": {"x": [1.0] * 32}, "reads": ["y"]}

    def body(_service, host, port):
        with ServeClient(host, port) as client:
            return client.run_jobs([job])[0]

    event = _with_service(body, cache_dir=str(tmp_path))
    reference = _direct(job, cache_dir=str(tmp_path))
    assert event["digest"] == reference["digest"]
    assert event["outputs"]["y"] == reference["outputs"]["y"]


# ---------------------------------------------------------------------
# Coalescing
# ---------------------------------------------------------------------
def test_identical_jobs_share_one_compile_key():
    a = {"kind": "run", "workload": "fir_32_1", "strategy": "CB",
         "backend": "interp"}
    b = dict(a, backend="fast", writes={"x": [1.0]}, id="other")
    assert job_compile_key(a) == job_compile_key(b)
    assert job_compile_key(a) != job_compile_key(dict(a, strategy="CB_DUP"))


def test_compatible_jobs_coalesce_onto_batch_backend(tmp_path):
    jobs = [
        {"kind": "run", "workload": "fir_32_1", "backend": "interp"},
        {"kind": "run", "workload": "fir_32_1", "backend": "fast"},
        {"kind": "run", "workload": "fir_32_1", "backend": "jit"},
    ]

    def body(service, host, port):
        # hold the dispatcher so all three jobs land in one round
        service.paused = True
        with ServeClient(host, port) as client:
            for index, job in enumerate(jobs):
                client.send(dict(job, id="c-%d" % index))
            accepted = [client.read_event() for _ in jobs]
            service.paused = False
            events = {e["id"]: e for e in (client.read_event() for _ in jobs)}
            stats = client.stats()
        return accepted, events, stats

    accepted, events, stats = _with_service(body, cache_dir=str(tmp_path))
    assert all(e["event"] == "accepted" for e in accepted)
    reference = _direct(jobs[0], cache_dir=str(tmp_path))
    for event in events.values():
        assert event["event"] == "result"
        assert event["digest"] == reference["digest"]
        assert event["obs"]["backend_executed"] == "batch"
        assert event["obs"]["group"] == 3
    assert stats["serve.coalesced"] == 2
    assert stats["serve.groups"] == 1


# ---------------------------------------------------------------------
# Admission control
# ---------------------------------------------------------------------
def test_full_queue_rejects_instead_of_buffering(tmp_path):
    job = {"kind": "run", "workload": "fir_32_1"}

    def body(service, host, port):
        service.paused = True  # nothing drains: the queue must fill
        with ServeClient(host, port) as client:
            for index in range(4):
                client.send(dict(job, id="q-%d" % index))
            admissions = [client.read_event() for _ in range(4)]
            service.paused = False
            # the two accepted jobs still complete
            terminal = [client.read_event() for _ in range(2)]
        return admissions, terminal

    admissions, terminal = _with_service(
        body, cache_dir=str(tmp_path), queue_limit=2
    )
    kinds = [event["event"] for event in admissions]
    assert kinds == ["accepted", "accepted", "rejected", "rejected"]
    for event in admissions[2:]:
        assert event["limit"] == 2
        assert event["reason"] == "queue full"
    assert {e["event"] for e in terminal} == {"result"}


# ---------------------------------------------------------------------
# Errors
# ---------------------------------------------------------------------
def test_protocol_and_program_errors_are_categorized(tmp_path):
    def body(_service, host, port):
        with ServeClient(host, port) as client:
            events = client.run_jobs([
                {"kind": "run", "workload": "no_such_workload"},
                {"kind": "run", "workload": "fir_32_1", "backend": "gpu"},
                {"kind": "run", "workload": "fir_32_1", "reads": ["nope"]},
                {"kind": "run", "workload": "fir_32_1",
                 "writes": {"x": [0.0] * 99}},
                {"kind": "run", "workload": "fir_32_1",
                 "partitioner": "greedy"},
                {"kind": "run", "workload": "fir_32_1", "tenant": "alpha"},
            ])
            raw = client.send({"kind": "mystery"}) or client.read_event()
        return events, raw

    events, raw = _with_service(body, cache_dir=str(tmp_path))
    assert [e["event"] for e in events] == ["error"] * 6
    assert events[0]["category"] == "protocol"
    assert events[0]["field"] == "workload"
    assert events[1]["category"] == "protocol"
    assert events[2]["category"] == "program"
    assert events[2]["kind"] == "UnknownGlobal"
    assert events[3]["category"] == "program"
    assert events[3]["kind"] == "BadWrite"
    assert events[4]["category"] == "protocol"
    assert events[4]["field"] == "partitioner"
    assert events[5]["category"] == "protocol"
    assert events[5]["field"] == "tenant"
    assert raw["category"] == "protocol" and raw["field"] == "kind"


def test_one_bad_job_never_fails_its_groupmates(tmp_path):
    def body(service, host, port):
        service.paused = True
        with ServeClient(host, port) as client:
            client.send({"kind": "run", "workload": "fir_32_1", "id": "good"})
            client.send({"kind": "run", "workload": "fir_32_1", "id": "bad",
                         "writes": {"x": [0.0] * 99}})
            for _ in range(2):
                client.read_event()  # accepted
            service.paused = False
            return {e["id"]: e for e in (client.read_event() for _ in range(2))}

    events = _with_service(body, cache_dir=str(tmp_path))
    assert events["good"]["event"] == "result"
    assert events["bad"]["event"] == "error"
    assert events["bad"]["category"] == "program"


def test_a_compile_failure_faults_only_its_own_group(tmp_path):
    """A recipe that cannot compile errors at the compile stage without
    touching the healthy group dispatched in the same round, and each
    resubmission compiles and fails again: nothing fails it fast."""
    # parses, so it passes validation, but names no statement kind
    bad = {"kind": "recipe", "recipe": {"arrays": [4], "body": [["nope"]]}}
    good = {"kind": "run", "workload": "fir_32_1", "id": "good"}

    def body(service, host, port):
        service.paused = True
        with ServeClient(host, port) as client:
            client.send(dict(bad, id="bad-0"))
            client.send(good)
            for _ in range(2):
                client.read_event()  # accepted
            service.paused = False
            first = {
                e["id"]: e for e in (client.read_event() for _ in range(2))
            }
            again = [
                client.run_jobs([dict(bad, id="bad-%d" % index)])[0]
                for index in range(1, 4)
            ]
            return first, again, client.stats()

    first, again, stats = _with_service(body, cache_dir=str(tmp_path))
    assert first["good"]["event"] == "result"
    assert first["good"]["digest"] == _direct(good)["digest"]
    failed = first["bad-0"]
    assert failed["event"] == "error"
    assert failed["obs"]["stage"] == "compile"
    for event in again:
        assert event["event"] == "error"
        assert event["obs"]["stage"] == "compile"
        assert (event["kind"], event["category"], event["message"]) == (
            failed["kind"], failed["category"], failed["message"]
        )
    assert stats["serve.dispatches"] == 4
    assert stats["serve.groups"] == 5


# ---------------------------------------------------------------------
# Stats
# ---------------------------------------------------------------------
def test_stats_counters_reflect_traffic(tmp_path):
    def body(_service, host, port):
        with ServeClient(host, port) as client:
            client.run_jobs([
                {"kind": "run", "workload": "fir_32_1"},
                {"kind": "run", "workload": "bogus"},
            ])
            return client.stats()

    stats = _with_service(body, cache_dir=str(tmp_path))
    assert stats["serve.accepted"] == 1
    assert stats["serve.results"] == 1
    assert stats["serve.protocol_errors"] == 1
    assert stats["serve.connections"] == 1
    assert stats["queue_depth"] == 0


def test_stats_carry_the_code_memo_counters(tmp_path):
    """A jit job binds its code through this process's memo, so the
    memo counters in the stats reply move past their earlier reading."""
    before = codegen_stats()

    def body(_service, host, port):
        with ServeClient(host, port) as client:
            client.run_jobs([
                {"kind": "run", "workload": "fir_32_1", "backend": "jit"},
            ])
            return client.stats()

    stats = _with_service(body, cache_dir=str(tmp_path))
    lookups = stats["sim.codegen_hits"] + stats["sim.codegen_misses"]
    assert lookups > before["sim.codegen_hits"] + before["sim.codegen_misses"]
    assert 0 < stats["sim.codegen_entries"] <= stats["sim.codegen_misses"]


# ---------------------------------------------------------------------
# Supervised workers
# ---------------------------------------------------------------------
def test_worker_pool_results_match_serial(tmp_path):
    job = {"kind": "run", "workload": "fir_32_1", "strategy": "CB_DUP"}

    def body(_service, host, port):
        with ServeClient(host, port) as client:
            return client.run_jobs([job])[0]

    pooled = _with_service(body, cache_dir=str(tmp_path), workers=1)
    assert pooled["event"] == "result"
    assert pooled["digest"] == _direct(job, cache_dir=str(tmp_path))["digest"]


# ---------------------------------------------------------------------
# CLI
# ---------------------------------------------------------------------
def test_cli_serve_end_to_end(tmp_path):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, ["src", env.get("PYTHONPATH")])
    )
    process = subprocess.Popen(
        [sys.executable, "-m", "repro", "serve", "--port", "0",
         "--cache-dir", str(tmp_path)],
        stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
        env=env, text=True, cwd=os.path.dirname(os.path.dirname(
            os.path.dirname(os.path.abspath(__file__)))),
    )
    try:
        banner = process.stdout.readline()
        match = re.search(r"serving on ([\d.]+):(\d+)", banner)
        assert match, "no banner in %r" % banner
        with ServeClient(match.group(1), int(match.group(2))) as client:
            event = client.run_jobs(
                [{"kind": "run", "workload": "fir_32_1"}]
            )[0]
        assert event["event"] == "result"
        assert event["cycles"] == _direct(
            {"kind": "run", "workload": "fir_32_1"}
        )["cycles"]
    finally:
        process.terminate()
        process.wait(timeout=30)
