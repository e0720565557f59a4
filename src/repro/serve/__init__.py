"""Serving layer: persistent artifact store + async compile-and-simulate
service.

The scaling layer on top of the evaluation stack — the pieces that turn
"a library that can compile and simulate" into "a service that can keep
doing it under load":

* :mod:`repro.serve.store` — the content-addressed on-disk
  :class:`~repro.serve.store.ArtifactStore` (atomic writes, digest
  re-check on read, LRU size-capped eviction) and the
  :class:`~repro.serve.store.CompileCache` tier every compiling path
  reads through when a ``--cache-dir`` is given;
* :mod:`repro.serve.protocol` — the JSON-lines job schema, response
  events, and the error-taxonomy mapping from :mod:`repro.sim.errors`;
* :mod:`repro.serve.jobs` — job execution: compile through the store,
  coalesce compatible jobs onto the lockstep ``batch`` backend,
  summarize results (bit-identical to direct runs);
* :mod:`repro.serve.service` — the asyncio
  :class:`~repro.serve.service.SimService` behind ``repro serve``:
  bounded queue with admission control, coalescing dispatcher,
  supervised worker execution, streamed results;
* :mod:`repro.serve.client` — the synchronous reference
  :class:`~repro.serve.client.ServeClient`.

``docs/serving.md`` documents the protocol, the store layout, and the
operational knobs.
"""

from repro.serve.client import ServeClient
from repro.serve.jobs import execute_job, job_compile_key
from repro.serve.service import SimService, run_service
from repro.serve.store import (
    ArtifactStore,
    CompileCache,
    compile_key,
    process_compile_cache,
)

__all__ = [
    "ArtifactStore",
    "CompileCache",
    "ServeClient",
    "SimService",
    "compile_key",
    "execute_job",
    "job_compile_key",
    "process_compile_cache",
    "run_service",
]
