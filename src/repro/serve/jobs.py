"""Job execution for the serve path: compile through the artifact
store, simulate, summarize.

A **job** (validated by :func:`repro.serve.protocol.validate_job`)
names a program — a registry workload or a fuzz recipe — plus a
strategy, backend, optional per-instance global ``writes``
and a ``reads`` list.  This module turns jobs into results:

* :func:`job_compile_key` — the canonical coalescing key: jobs with
  equal keys compile to the *same* machine program, so the service
  groups them and runs the whole group through one
  :func:`~repro.evaluation.parallel.batch_map` call on the lockstep
  ``batch`` backend (bit-identical to per-job scalar runs by that
  backend's tested contract);
* :func:`execute_group` — the picklable worker entry point
  :func:`~repro.evaluation.parallel.supervised_map` dispatches: one
  compile (through the per-process
  :func:`~repro.serve.store.process_compile_cache`) plus one batched
  simulation per group, returning one JSON-able result dict per job;
* :func:`execute_job` — the single-job convenience the e2e tests and
  benchmarks use as the "direct CLI run" reference.

Results are bit-identical to direct runs because both paths share
every stage: the same deterministic compile (cached or not — cache
hits return the identical program), the same simulator contract across
backends, and the same digest over the same final-state projection.
"""

import hashlib
import json
import time

from repro.compiler import CompileOptions
from repro.evaluation.runner import compile_workload
from repro.partition.strategies import Strategy
from repro.serve.store import canonical_key, process_compile_cache

#: fields of a job that determine the compiled program (everything but
#: the backend, the per-instance inputs, and the response shaping)
_COMPILE_FIELDS = ("kind", "workload", "recipe", "strategy")


def job_compile_key(job):
    """Canonical string key of the compile a job needs.

    Jobs sharing this key — same program source and strategy — compile
    to one machine program and may execute as lanes of one lockstep
    batch, whatever backends they each asked for (all backends are
    bit-identical, a fuzz-oracle invariant).
    """
    return canonical_key(
        {field: job.get(field) for field in _COMPILE_FIELDS}
    )


class _JobSource:
    """Adapter giving a job the ``.build()`` shape
    :func:`~repro.evaluation.runner.compile_workload` expects."""

    def __init__(self, job):
        self._job = job

    def build(self):
        if self._job["kind"] == "run":
            from repro.workloads.registry import get_workload

            return get_workload(self._job["workload"]).build()
        from repro.fuzz.generator import Recipe, build_module, generate_recipe

        data = self._job["recipe"]
        if "body" in data:
            recipe = Recipe.from_dict(data)
        else:
            # generator spec: {"seed": S[, "max_statements": K]} asks for
            # the deterministic seeded recipe instead of shipping one
            recipe = generate_recipe(
                data["seed"], max_statements=data.get("max_statements", 6)
            )
        return build_module(recipe)


def compile_for_job(job, cache):
    """Compile the program a job names, reading through *cache*.

    :func:`~repro.evaluation.runner.compile_workload` runs the profile
    step of a profile-driven strategy exactly as every evaluation does.
    Returns ``(compiled, source)`` where *source* says where the final
    compile came from (``memory``/``store``/``compile``).
    """
    options = CompileOptions(strategy=Strategy[job["strategy"]])
    compiled = compile_workload(_JobSource(job), options, cache)
    return compiled, getattr(cache, "last_source", None)


def state_digest(outputs):
    """Deterministic SHA-256 over a ``{global: final value(s)}`` mapping
    — the bit-identity projection results are compared on."""
    return hashlib.sha256(
        json.dumps(outputs, sort_keys=True, default=repr).encode()
    ).hexdigest()


def _writes_problem(writes, sizes):
    """Why this ``writes`` mapping cannot be applied to the program
    (None when it can) — mirrors ``Simulator.write_global`` validation."""
    for name, values in writes.items():
        if name not in sizes:
            return "job writes unknown global %r; program has %s" % (
                name, ", ".join(sorted(sizes)),
            )
        if isinstance(values, (list, tuple)) and len(values) > sizes[name]:
            return "%d values for %s[%d]" % (len(values), name, sizes[name])
    return None


def _result_for(job, outcome, global_names, obs):
    """One terminal result/error dict for *job* from its
    :class:`~repro.evaluation.parallel.BatchTaskResult`."""
    from repro.sim.errors import categorize

    if outcome.error is not None:
        error = outcome.error
        fault = {
            "kind": type(error).__name__,
            "message": str(error),
            "category": categorize(error) or "internal",
        }
        for attribute in ("pc", "cycle", "backend", "seed"):
            value = getattr(error, attribute, None)
            if value is not None:
                fault[attribute] = value
        return {"id": job.get("id"), "ok": False, "fault": fault, "obs": obs}
    finals = {name: outcome.outputs[name] for name in global_names}
    unknown = [name for name in job["reads"] if name not in finals]
    if unknown:
        return {
            "id": job.get("id"),
            "ok": False,
            "fault": {
                "kind": "UnknownGlobal",
                "message": "job reads unknown global(s) %s; program has %s"
                % (", ".join(unknown), ", ".join(global_names)),
                "category": "program",
            },
            "obs": obs,
        }
    return {
        "id": job.get("id"),
        "ok": True,
        "cycles": outcome.result.cycles,
        "operations": outcome.result.operations,
        "digest": state_digest(finals),
        "outputs": {name: finals[name] for name in job["reads"]},
        "obs": obs,
    }


def execute_group(jobs, cache_dir=None, lanes=64):
    """Run a group of jobs sharing one :func:`job_compile_key`.

    The worker entry point behind the service (top-level and picklable
    so :func:`~repro.evaluation.parallel.supervised_map` can dispatch it
    to its supervised pool).  One compile through the per-process
    artifact-store cache, then one :func:`~repro.evaluation.parallel.batch_map`
    call: groups of two or more coalesce onto the lockstep ``batch``
    backend regardless of each job's requested backend (bit-identical
    by contract); singletons run on exactly the backend they asked for.

    Per-job simulator faults come back as ``ok: false`` result dicts
    (the error taxonomy rides in ``fault``) — they never raise, so one
    faulting lane cannot take down its group-mates.  Returns results in
    job order, JSON-able throughout.
    """
    from repro.evaluation.parallel import batch_map

    from repro.sim.errors import categorize

    cache = process_compile_cache(cache_dir)
    compile_start = time.perf_counter()
    try:
        compiled, cache_source = compile_for_job(jobs[0], cache)
    except Exception as error:
        # A compile failure is shared by the whole group (they asked for
        # the same program) but must not poison unrelated groups in the
        # same dispatch round: fault every member and return normally.
        fault = {
            "kind": type(error).__name__,
            "message": str(error),
            "category": categorize(error) or "internal",
        }
        return [
            {"id": job.get("id"), "ok": False, "fault": dict(fault),
             "obs": {"group": len(jobs), "stage": "compile"}}
            for job in jobs
        ]
    compile_s = time.perf_counter() - compile_start
    sizes = {
        symbol.name: symbol.size
        for symbol in compiled.program.module.globals
    }
    global_names = sorted(sizes)
    reads = tuple(global_names)
    # Bad per-instance inputs fault their own job, never the group:
    # batch_map raises on a malformed write before any lane runs, so
    # validate each job's writes up front and only batch the clean ones.
    results = [None] * len(jobs)
    runnable = []
    for index, job in enumerate(jobs):
        problem = _writes_problem(job.get("writes") or {}, sizes)
        if problem is not None:
            results[index] = {
                "id": job.get("id"),
                "ok": False,
                "fault": {
                    "kind": "BadWrite",
                    "message": problem,
                    "category": "program",
                },
                "obs": None,
            }
        else:
            runnable.append(index)
    tasks = [
        (compiled.program, jobs[index].get("writes") or {}, reads)
        for index in runnable
    ]
    backend = "batch" if len(jobs) > 1 else jobs[0]["backend"]
    sim_start = time.perf_counter()
    outcomes = batch_map(tasks, lanes=lanes, backend=backend) if tasks else []
    sim_s = time.perf_counter() - sim_start
    obs = {
        "group": len(jobs),
        "backend_executed": backend,
        "cache": cache_source,
        "compile_s": round(compile_s, 6),
        "sim_s": round(sim_s, 6),
    }
    for index, outcome in zip(runnable, outcomes):
        results[index] = _result_for(jobs[index], outcome, global_names, obs)
    for result in results:
        if result["obs"] is None:
            result["obs"] = obs
    return results


def execute_job(job, cache=None, cache_dir=None):
    """Run one job directly (no queue, no pool) and return its result
    dict — the reference the service's responses must be bit-identical
    to.  *cache* is any compile cache (dict or
    :class:`~repro.serve.store.CompileCache`); *cache_dir* instead
    routes through the per-process store cache like the service does.
    """
    if cache is not None:
        from repro.evaluation.parallel import batch_map

        compile_start = time.perf_counter()
        compiled, cache_source = compile_for_job(job, cache)
        compile_s = time.perf_counter() - compile_start
        global_names = sorted(
            symbol.name for symbol in compiled.program.module.globals
        )
        outcome = batch_map(
            [(compiled.program, job.get("writes") or {}, tuple(global_names))],
            backend=job["backend"],
        )[0]
        obs = {
            "group": 1,
            "backend_executed": job["backend"],
            "cache": cache_source,
            "compile_s": round(compile_s, 6),
            "sim_s": None,
        }
        return _result_for(job, outcome, global_names, obs)
    return execute_group([job], cache_dir=cache_dir)[0]
