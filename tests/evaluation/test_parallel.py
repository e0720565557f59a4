"""The process-pool evaluation path must match the serial path exactly,
and the supervised runner must survive hostile workers: crashes, hangs,
hard exits, and KeyboardInterrupt — without orphaning processes."""

import json
import multiprocessing
import os
import time

import pytest

from repro.evaluation.parallel import (
    Journal,
    TaskError,
    TaskFailure,
    TaskTimeout,
    WorkerDied,
    default_jobs,
    evaluate_workloads,
    resolve_jobs,
    supervised_map,
)
from repro.obs.core import Recorder
from repro.partition.strategies import Strategy
from repro.sim.errors import MachineError
from repro.workloads.registry import KERNELS


# -- hostile worker functions (module level: picklable across the pipe) --
def _square(x):
    return x * x


def _fail(x):
    raise ValueError("boom %d" % x)


def _fail_once(path, x):
    if not os.path.exists(path):
        with open(path, "w") as handle:
            handle.write("1")
        raise ValueError("first attempt")
    return x


def _die(_x):
    os._exit(3)


def _die_until_flag(path, x):
    if not os.path.exists(path):
        with open(path, "w") as handle:
            handle.write("seen")
        os._exit(3)
    return x + 1


def _worker_only_exit(x):
    # dies in any supervised worker, succeeds in the parent process —
    # the shape that forces degradation to serial execution
    if multiprocessing.parent_process() is not None:
        os._exit(5)
    return x + 100


def _sleep_forever(_x):
    time.sleep(60)


def _machine_fault(_x):
    from repro.sim.simulator import SimulationError

    error = SimulationError("memory bank exploded")
    error.pc = 7
    error.cycle = 11
    error.backend = "jit"
    raise error


def _raise_interrupt(_x):
    raise KeyboardInterrupt()


def _mark_and_square(directory, x):
    with open(os.path.join(directory, "m%d" % x), "a") as handle:
        handle.write("x")
    return x * x


def _assert_no_orphans():
    deadline = time.monotonic() + 5
    while time.monotonic() < deadline:
        alive = [p for p in multiprocessing.active_children() if p.is_alive()]
        if not alive:
            return
        time.sleep(0.05)
    raise AssertionError("orphaned workers: %r" % (alive,))

STRATEGIES = (Strategy.CB, Strategy.CB_PROFILE, Strategy.IDEAL)


def test_resolve_jobs():
    assert resolve_jobs(None) is None
    assert resolve_jobs(0) == default_jobs()
    assert resolve_jobs(1) == 1
    # An explicit request is honoured exactly, even past the detected
    # core count — the user asked for it, the recorder logs it.
    assert resolve_jobs(10_000) == 10_000
    with pytest.raises(ValueError):
        resolve_jobs(-1)


def test_resolve_jobs_records_decision():
    recorder = Recorder()
    oversubscribed = default_jobs() + 3
    assert resolve_jobs(oversubscribed, observe=recorder) == oversubscribed
    assert recorder.counters["jobs.requested"] == oversubscribed
    assert recorder.counters["jobs.resolved"] == oversubscribed
    assert recorder.counters["jobs.cores"] == default_jobs()
    assert recorder.counters["jobs.oversubscribed"] == 3


def test_resolve_jobs_within_cores_records_no_oversubscription():
    recorder = Recorder()
    assert resolve_jobs(0, observe=recorder) == default_jobs()
    assert recorder.counters["jobs.requested"] == 0
    assert recorder.counters["jobs.resolved"] == default_jobs()
    assert "jobs.oversubscribed" not in recorder.counters


def test_negative_jobs_rejected():
    with pytest.raises(ValueError):
        evaluate_workloads(KERNELS, ["fir_32_1"], [Strategy.CB], jobs=-2)


def test_parallel_matches_serial_bit_for_bit():
    """Workers rebuild workloads from the registry and recompute profile
    counts independently; every pipeline stage is deterministic, so the
    fanned-out measurements must equal the serial ones — including the
    profile-driven configuration and the jit backend."""
    names = ["fir_32_1", "mult_4_4"]
    serial = evaluate_workloads(KERNELS, names, STRATEGIES)
    parallel = evaluate_workloads(
        KERNELS, names, STRATEGIES, jobs=2, backend="jit"
    )
    for name in names:
        for strategy in (Strategy.SINGLE_BANK,) + STRATEGIES:
            assert serial[name].cycles(strategy) == parallel[name].cycles(
                strategy
            ), (name, strategy)
            assert (
                serial[name].measurements[strategy].cost.total
                == parallel[name].measurements[strategy].cost.total
            )
            assert serial[name].gain_percent(strategy) == parallel[
                name
            ].gain_percent(strategy)


def test_serial_figure_without_store_never_fingerprints(monkeypatch):
    """A figure never repeats a (module, strategy) pair, so the serial
    path without a cache_dir compiles straight through: no module is
    fingerprinted for a cache that could not hit, and the gains equal a
    cached evaluation's."""
    from repro.evaluation import runner
    from repro.evaluation.figures import FIGURE7_STRATEGIES, figure7

    fingerprinted = []
    real = runner.module_fingerprint
    monkeypatch.setattr(
        runner, "module_fingerprint",
        lambda module: fingerprinted.append(module) or real(module),
    )
    subset = ["fir_32_1", "mult_4_4"]
    series = figure7(subset=subset)
    assert fingerprinted == []
    for name in subset:
        cached = runner.evaluate_workload(
            KERNELS[name], FIGURE7_STRATEGIES, cache={}
        )
        for strategy, label in zip(FIGURE7_STRATEGIES, series.labels):
            assert series.gains[label][name] == cached.gain_percent(strategy)
    assert fingerprinted  # the cached reference did go through the patch


# ----------------------------------------------------------------------
# supervised_map
# ----------------------------------------------------------------------
def test_supervised_matches_serial():
    tasks = [(i,) for i in range(6)]
    assert supervised_map(_square, tasks) == [i * i for i in range(6)]
    recorder = Recorder()
    assert supervised_map(_square, tasks, jobs=2, observe=recorder) == [
        i * i for i in range(6)
    ]
    # the tasks crossed worker pipes and their pickled size was counted
    assert recorder.counters["supervised.payload_bytes"] > 0
    _assert_no_orphans()


def test_dead_worker_is_replaced_and_task_retried(tmp_path):
    """A worker that hard-exits mid-task is replaced; the retried task
    succeeds on the second attempt (the flag file marks the first)."""
    flags = [str(tmp_path / ("flag%d" % i)) for i in range(2)]
    recorder = Recorder()
    results = supervised_map(
        _die_until_flag, [(flags[0], 1), (flags[1], 2)], jobs=2,
        retries=2, backoff=0.01, observe=recorder,
    )
    assert results == [2, 3]
    assert recorder.counters["supervised.retries"] >= 2
    _assert_no_orphans()


def test_worker_death_exhausts_retries():
    with pytest.raises(WorkerDied) as excinfo:
        supervised_map(
            _die, [(1,), (2,)], jobs=2, retries=0, backoff=0.01,
        )
    assert excinfo.value.attempts == 1
    assert excinfo.value.task_key is not None
    _assert_no_orphans()


def test_timeout_terminates_and_raises(tmp_path):
    """A hung task is terminated at its deadline on every attempt, the
    whole run stays bounded, and no worker survives."""
    started = time.monotonic()
    with pytest.raises(TaskTimeout) as excinfo:
        supervised_map(
            _sleep_forever, [(1,), (2,)], jobs=2,
            timeout=0.4, retries=1, backoff=0.01,
        )
    assert excinfo.value.attempts == 2
    assert time.monotonic() - started < 20
    _assert_no_orphans()


def test_single_task_with_timeout_is_still_supervised():
    """The serial shortcut must not swallow the timeout contract: one
    pending task with a timeout goes through the pool."""
    with pytest.raises(TaskTimeout):
        supervised_map(
            _sleep_forever, [(1,)], jobs=2, timeout=0.3, retries=0,
        )
    _assert_no_orphans()


def test_fn_exceptions_reraise_without_retry_by_default():
    """A plain worker exception reaches the caller as a TaskError
    carrying the original kind and message, worker traceback attached."""
    with pytest.raises(TaskError) as excinfo:
        supervised_map(_fail, [(1,), (2,)], jobs=2, retries=5, backoff=0.01)
    assert "ValueError: boom" in str(excinfo.value)
    assert "ValueError" in excinfo.value.remote_traceback
    assert excinfo.value.attempts == 1
    assert excinfo.value.task_key is not None
    _assert_no_orphans()


def test_fn_exceptions_retry_when_asked(tmp_path):
    flag = str(tmp_path / "flag")
    results = supervised_map(
        _fail_once, [(flag, 5)], retries=2, backoff=0.01, retry_errors=True,
    )
    assert results == [5]


def test_sim_faults_keep_taxonomy_through_supervisor():
    """Simulator faults cross the pool boundary as the structured
    taxonomy, pc/backend intact, worker traceback attached — not as a
    raw pickled traceback dump."""
    with pytest.raises(MachineError) as excinfo:
        supervised_map(_machine_fault, [(1,), (2,)], jobs=2)
    fault = excinfo.value
    assert fault.pc == 7
    assert fault.cycle == 11
    assert fault.backend == "jit"
    assert fault.remote_traceback and "SimulationError" in fault.remote_traceback
    _assert_no_orphans()


def test_worker_keyboard_interrupt_propagates_cleanly():
    with pytest.raises(KeyboardInterrupt):
        supervised_map(_raise_interrupt, [(1,), (2,)], jobs=2)
    _assert_no_orphans()


# ----------------------------------------------------------------------
# supervised_map(..., retries=0): the pool quick sweeps (evaluate_workloads,
# partition_gap) use in place of the removed parallel_map — the names
# keep the failure semantics that parallel_map used to guarantee
# ----------------------------------------------------------------------
def test_parallel_map_reraises_sim_faults_with_context():
    with pytest.raises(MachineError) as excinfo:
        supervised_map(_machine_fault, [(1,), (2,)], jobs=2, retries=0)
    fault = excinfo.value
    assert fault.pc == 7
    assert fault.cycle == 11
    assert fault.backend == "jit"
    assert fault.remote_traceback and "SimulationError" in fault.remote_traceback
    _assert_no_orphans()


def test_parallel_map_wraps_plain_exceptions():
    with pytest.raises(TaskError) as excinfo:
        supervised_map(_fail, [(1,), (2,)], jobs=2, retries=0)
    assert "boom" in str(excinfo.value)
    assert "ValueError" in excinfo.value.remote_traceback
    _assert_no_orphans()


def test_parallel_map_keyboard_interrupt_leaves_no_orphans():
    with pytest.raises(KeyboardInterrupt):
        supervised_map(_raise_interrupt, [(1,), (2,)], jobs=2, retries=0)
    _assert_no_orphans()


def test_degrades_to_serial_when_workers_keep_dying():
    """Every spawned worker dies instantly; after degrade_after
    consecutive failures the supervisor finishes the run in-process."""
    recorder = Recorder()
    results = supervised_map(
        _worker_only_exit, [(1,), (2,), (3,)], jobs=2,
        retries=10, backoff=0.01, degrade_after=2, observe=recorder,
    )
    assert results == [101, 102, 103]
    assert recorder.counters["supervised.degraded"] == 1
    _assert_no_orphans()


def test_journal_checkpoint_and_resume(tmp_path):
    """Completed tasks land in the journal; a rerun returns their
    recorded results without calling fn again (the marker files are
    written exactly once)."""
    journal = str(tmp_path / "journal.jsonl")
    marks = str(tmp_path)
    recorder = Recorder()
    first = supervised_map(
        _mark_and_square, [(marks, 1), (marks, 2)], journal=journal,
        observe=recorder,
    )
    assert first == [1, 4]
    assert recorder.counters["supervised.tasks"] == 2

    resumed_recorder = Recorder()
    resumed = supervised_map(
        _mark_and_square, [(marks, 1), (marks, 2), (marks, 3)],
        journal=journal, observe=resumed_recorder,
    )
    assert resumed == [1, 4, 9]
    assert resumed_recorder.counters["supervised.resumed"] == 2
    assert resumed_recorder.counters["supervised.tasks"] == 1
    with open(os.path.join(marks, "m1")) as handle:
        assert handle.read() == "x"  # not recalled on resume
    with open(os.path.join(marks, "m2")) as handle:
        assert handle.read() == "x"


def test_journal_tolerates_torn_trailing_line(tmp_path):
    path = str(tmp_path / "journal.jsonl")
    journal = Journal(path)
    journal.record(Journal.key_for((1,)), 10)
    journal.close()
    with open(path, "a", encoding="utf-8") as handle:
        handle.write('{"key": "torn')  # killed mid-write
    reloaded = Journal(path)
    assert len(reloaded) == 1
    assert reloaded.completed[Journal.key_for((1,))] == 10
    reloaded.record(Journal.key_for((2,)), 20)  # reopens after close
    reloaded.close()
    assert len(Journal(path)) == 2


def test_journal_keys_are_stable():
    assert Journal.key_for((1, "a")) == Journal.key_for((1, "a"))
    assert Journal.key_for((1, "a")) != Journal.key_for((1, "b"))


def _mark_and_fail(directory, x):
    with open(os.path.join(directory, "attempts%d" % x), "a") as handle:
        handle.write("x")
    raise ValueError("always fails %d" % x)


def _flag_and_sleep(directory, x):
    with open(os.path.join(directory, "flag%d" % x), "w") as handle:
        handle.write("up")
    parent = multiprocessing.parent_process()
    deadline = time.monotonic() + 20
    while time.monotonic() < deadline:
        if parent is not None and not parent.is_alive():
            os._exit(0)  # supervisor was killed; don't linger as an orphan
        time.sleep(0.05)


def _run_supervised_until_killed(journal_path, directory):
    # Entry point for the disposable supervisor process the kill test
    # SIGKILLs mid-task.
    supervised_map(
        _flag_and_sleep, [(directory, 5), (directory, 6)],
        jobs=2, journal=journal_path,
    )


def test_resumed_inflight_attempt_charged_exactly_once(tmp_path):
    """A task whose attempt 1 was checkpointed in flight (the supervisor
    died mid-task) resumes at attempt 2: with ``retries=2`` the resumed
    run invokes fn exactly twice (attempts 2 and 3).  Three invocations
    would mean the interrupted attempt was never charged — an unbounded
    crash/resume loop; one would mean it was charged twice."""
    journal_path = str(tmp_path / "journal.jsonl")
    arguments = (str(tmp_path), 7)
    journal = Journal(journal_path)
    journal.mark_started(Journal.key_for(arguments), 1)
    journal.close()

    recorder = Recorder()
    with pytest.raises(ValueError, match="always fails 7"):
        supervised_map(
            _mark_and_fail, [arguments], retries=2, retry_errors=True,
            backoff=0.01, journal=journal_path, observe=recorder,
        )
    with open(os.path.join(str(tmp_path), "attempts7")) as handle:
        assert handle.read() == "xx"
    assert recorder.counters["supervised.resumed_inflight"] == 1


def test_supervisor_kill_checkpoints_inflight_attempt(tmp_path):
    """Kill a real supervisor (SIGKILL — no atexit, no journal close)
    mid-task; the started checkpoint must already be on disk, and a
    resume against the same journal charges that attempt once."""
    journal_path = str(tmp_path / "journal.jsonl")
    directory = str(tmp_path)
    supervisor = multiprocessing.Process(
        target=_run_supervised_until_killed, args=(journal_path, directory)
    )
    supervisor.start()
    flag = os.path.join(directory, "flag5")
    deadline = time.monotonic() + 15
    while not os.path.exists(flag):
        assert time.monotonic() < deadline, "task 5 never dispatched"
        assert supervisor.is_alive(), "supervisor exited prematurely"
        time.sleep(0.05)
    # mark_started is flushed before the task is sent to the worker, so
    # the flag existing implies the checkpoint line already hit disk.
    supervisor.kill()
    supervisor.join(10)
    assert not supervisor.is_alive()

    key = Journal.key_for((directory, 5))
    reloaded = Journal(journal_path)
    assert reloaded.started.get(key) == 1
    assert key not in reloaded.completed

    with pytest.raises(ValueError, match="always fails 5"):
        supervised_map(
            _mark_and_fail, [(directory, 5)], retries=2, retry_errors=True,
            backoff=0.01, journal=journal_path,
        )
    with open(os.path.join(directory, "attempts5")) as handle:
        assert handle.read() == "xx"  # attempts 2 and 3, nothing more
    _assert_no_orphans()


def test_pool_leg_journals_started_then_completed(tmp_path):
    """The pool leg checkpoints every dispatch; once a task completes
    its started record is superseded, so a reload sees only results."""
    journal_path = str(tmp_path / "journal.jsonl")
    results = supervised_map(
        _square, [(2,), (3,), (4,)], jobs=2, journal=journal_path
    )
    assert results == [4, 9, 16]
    reloaded = Journal(journal_path)
    assert len(reloaded) == 3
    assert not reloaded.started
    with open(journal_path, encoding="utf-8") as handle:
        entries = [json.loads(line) for line in handle if line.strip()]
    assert sum(1 for entry in entries if entry.get("started")) == 3
    _assert_no_orphans()


# ----------------------------------------------------------------------
# on_error="return" and per-task timeouts (the serving dispatcher's leg)
# ----------------------------------------------------------------------
def _fail_odd(x):
    if x % 2:
        raise ValueError("odd boom %d" % x)
    return x * 10


def _sleep_if(x):
    if x:
        time.sleep(60)
    return "ok"


def test_on_error_return_keeps_failures_in_slot():
    """One exhausted task must not sink the map: its slot holds a
    TaskFailure carrying kind/attempts, the other slots their results."""
    for jobs in (None, 2):
        results = supervised_map(
            _fail_odd, [(1,), (2,), (3,)], jobs=jobs, retries=0,
            backoff=0.01, on_error="return",
        )
        assert isinstance(results[0], TaskFailure)
        assert results[0].kind == "ValueError"
        assert "odd boom 1" in results[0].message
        assert results[0].attempts == 1
        assert results[1] == 20
        assert isinstance(results[2], TaskFailure)
    _assert_no_orphans()


def test_on_error_return_failures_stay_out_of_journal(tmp_path):
    """A terminal failure is retryable by a resumed run: it must never
    be journaled as completed."""
    journal_path = str(tmp_path / "journal.jsonl")
    results = supervised_map(
        _fail_odd, [(1,), (2,)], jobs=2, retries=0, backoff=0.01,
        on_error="return", journal=journal_path,
    )
    assert isinstance(results[0], TaskFailure)
    reloaded = Journal(journal_path)
    assert Journal.key_for((1,)) not in reloaded.completed
    assert reloaded.completed[Journal.key_for((2,))] == 20
    _assert_no_orphans()


def test_on_error_validated():
    with pytest.raises(ValueError):
        supervised_map(_square, [(1,)], on_error="explode")


def test_per_task_timeout_sequence():
    """A timeout sequence binds each task separately: the hung task is
    terminated at its own deadline while its unbounded neighbour
    finishes untouched."""
    results = supervised_map(
        _sleep_if, [(1,), (0,)], jobs=2, timeout=[0.4, None],
        retries=0, backoff=0.01, on_error="return",
    )
    assert isinstance(results[0], TaskFailure)
    assert results[0].kind == "TaskTimeout"
    assert results[1] == "ok"
    _assert_no_orphans()


def test_timeout_sequence_length_validated():
    with pytest.raises(ValueError):
        supervised_map(_square, [(1,), (2,)], timeout=[0.5])


def test_task_failure_describe_round_trips():
    failure = supervised_map(
        _fail, [(1,)], jobs=2, retries=0, backoff=0.01, on_error="return",
    )[0]
    described = failure.describe()
    assert described["kind"] == "ValueError"
    assert described["attempts"] == 1
    assert "boom" in described["message"]
    _assert_no_orphans()


# ----------------------------------------------------------------------
# Persistent artifact store integration (--cache-dir)
# ----------------------------------------------------------------------
def test_evaluate_workloads_cache_dir_is_bit_identical(tmp_path):
    """Routing compiles through the on-disk store must not change any
    measurement: cold store, warm store, and no store all agree."""
    from repro.workloads.registry import all_workloads

    table = all_workloads()
    names = ["fir_32_1", "mult_4_4"]
    strategies = [Strategy.SINGLE_BANK, Strategy.CB]
    cache_dir = str(tmp_path / "store")

    plain = evaluate_workloads(table, names, strategies)
    cold = evaluate_workloads(table, names, strategies, cache_dir=cache_dir)
    warm = evaluate_workloads(table, names, strategies, cache_dir=cache_dir)
    fanned = evaluate_workloads(
        table, names, strategies, jobs=2, cache_dir=cache_dir
    )
    for name in names:
        for strategy in strategies:
            reference = plain[name].cycles(strategy)
            assert cold[name].cycles(strategy) == reference
            assert warm[name].cycles(strategy) == reference
            assert fanned[name].cycles(strategy) == reference

    import os

    assert os.listdir(os.path.join(cache_dir, "objects"))
