"""The ``repro serve`` wire protocol: JSON-lines jobs and responses.

One TCP connection carries newline-delimited JSON in both directions.
Every request line is a **job** (or the ``stats`` control request); the
service answers each job with an ``accepted`` or ``rejected`` event
immediately, then streams exactly one terminal ``result`` or ``error``
event when the job finishes.  Events for different jobs interleave
freely — clients correlate on ``id``.

Job schema (``kind`` selects the payload)::

    {"kind": "run",    "workload": "fir_32_1",
     "strategy": "CB", "backend": "interp",
     "writes": {"x": [..]}, "reads": ["out"], "id": "optional"}
    {"kind": "recipe", "recipe": {...fuzz recipe dict...},
     "strategy": "CB", ...}
    {"kind": "stats"}

A ``recipe`` is either a full fuzz recipe (it has a ``body``) or a
generator spec ``{"seed": N[, "max_statements": K]}`` with integer ``N``
and ``K`` in ``1..MAX_GENERATED_STATEMENTS``.

Error taxonomy — the ``category`` field of ``error`` events maps
one-to-one from :mod:`repro.sim.errors`:

* ``program`` / ``machine`` / ``internal`` — the structured simulator
  taxonomy, with ``pc``/``cycle``/``backend`` carried through;
* ``protocol`` — the request itself was malformed (unparseable JSON,
  unknown kind/strategy/backend, an unknown top-level
  field, a line over :data:`MAX_LINE_BYTES`, a truncated final line,
  bad field types); the offending field is named in ``message``;
* ``deadline`` — the job carried a ``deadline_ms`` budget that expired
  before (or during) execution (kind ``DeadlineExceeded``).

Admission control is a distinct ``rejected`` event (not an error): the
job was well-formed but the bounded queue is full — resubmit after the
event's ``retry_after_s`` hint.

See ``docs/serving.md`` for the full schema and worked transcripts.
"""

import json

from repro.partition.strategies import Strategy
from repro.sim.errors import categorize
from repro.sim import BACKENDS

PROTOCOL_VERSION = 1

#: request kinds that enqueue work (``stats`` is answered inline)
JOB_KINDS = ("run", "recipe")

#: hard per-line budget — a submission larger than this is rejected
#: before parsing (protects the service from unbounded buffering)
MAX_LINE_BYTES = 4 * 1024 * 1024

#: largest ``max_statements`` a generator spec may ask for: build and
#: compile work grows faster than the statement count, and a spec runs
#: inside the serve process
MAX_GENERATED_STATEMENTS = 64

#: every top-level field a job submission may carry; anything else is
#: a typo or a version skew and is rejected with a ``protocol`` error
#: instead of being silently dropped
JOB_FIELDS = frozenset((
    "kind", "id", "strategy", "backend", "writes", "reads",
    "workload", "recipe", "deadline_ms",
))


class JobError(ValueError):
    """A submission failed validation; ``field`` names the culprit."""

    def __init__(self, message, field=None):
        super().__init__(message)
        self.field = field


def encode(message):
    """One response/request dict as a JSON line (bytes, newline-terminated)."""
    return (json.dumps(message, sort_keys=True, default=repr) + "\n").encode()


def decode(line):
    """Parse one request line; raises :class:`JobError` on bad JSON."""
    try:
        obj = json.loads(line)
    except ValueError as error:
        raise JobError("unparseable JSON: %s" % error)
    if not isinstance(obj, dict):
        raise JobError("a request must be a JSON object")
    return obj


def _require_name(job, field, table, label):
    value = job.get(field)
    if value not in table:
        raise JobError(
            "unknown %s %r (choose from: %s)"
            % (label, value, ", ".join(sorted(str(k) for k in table))),
            field=field,
        )
    return value


def _check_recipe(recipe):
    """Reject a recipe dict the compiler could only fail on: a full
    recipe must parse, and a generator spec needs an integer seed (a
    ``None`` seed would draw a new program on every run) and a
    ``max_statements`` in ``1..MAX_GENERATED_STATEMENTS``.  The dict
    itself is kept as sent, so job keys do not move."""
    if "body" in recipe:
        from repro.fuzz.generator import Recipe

        try:
            Recipe.from_dict(recipe)
        except (KeyError, TypeError, ValueError) as error:
            raise JobError(
                "malformed recipe (%s: %s)" % (type(error).__name__, error),
                field="recipe",
            )
    elif "seed" in recipe:
        if type(recipe["seed"]) is not int:
            raise JobError("a generator seed must be an integer", field="recipe")
        count = recipe.get("max_statements", 6)
        if type(count) is not int or not 1 <= count <= MAX_GENERATED_STATEMENTS:
            raise JobError(
                "max_statements must be an integer in 1..%d"
                % MAX_GENERATED_STATEMENTS,
                field="recipe",
            )
    else:
        raise JobError(
            "a recipe needs a body or a generator seed", field="recipe"
        )


def validate_job(obj):
    """Validate and normalize one job submission.

    Returns a plain-JSON job dict with every optional field defaulted
    (``strategy`` CB, ``backend`` interp, empty
    ``writes``/``reads``); raises :class:`JobError` naming the offending
    field otherwise.  Ids are the caller's business: the service assigns
    one when absent.
    """
    kind = obj.get("kind")
    if kind not in JOB_KINDS:
        raise JobError(
            "unknown kind %r (choose from: %s)" % (kind, ", ".join(JOB_KINDS)),
            field="kind",
        )
    unknown = sorted(set(obj) - JOB_FIELDS)
    if unknown:
        raise JobError(
            "unknown field(s) %s (allowed: %s)"
            % (", ".join(unknown), ", ".join(sorted(JOB_FIELDS))),
            field=unknown[0],
        )
    job = {
        "kind": kind,
        "strategy": obj.get("strategy", "CB"),
        "backend": obj.get("backend", "interp"),
        "writes": obj.get("writes") or {},
        "reads": obj.get("reads") or [],
    }
    if "id" in obj:
        job["id"] = str(obj["id"])
    if "deadline_ms" in obj:
        deadline_ms = obj["deadline_ms"]
        if (not isinstance(deadline_ms, (int, float))
                or isinstance(deadline_ms, bool) or deadline_ms <= 0):
            raise JobError(
                "deadline_ms must be a positive number of milliseconds",
                field="deadline_ms",
            )
        job["deadline_ms"] = float(deadline_ms)
    _require_name(job, "strategy", Strategy.__members__, "strategy")
    if job["backend"] == "fast":
        # wire alias of the retired threaded-code backend: jit runs the
        # same program to the same bit-identical result
        job["backend"] = "jit"
    _require_name(job, "backend", BACKENDS, "backend")
    if not isinstance(job["writes"], dict):
        raise JobError("writes must map global names to values", field="writes")
    if not isinstance(job["reads"], (list, tuple)):
        raise JobError("reads must be a list of global names", field="reads")
    job["reads"] = [str(name) for name in job["reads"]]
    if kind == "run":
        workload = obj.get("workload")
        if not isinstance(workload, str) or not workload:
            raise JobError("run jobs need a workload name", field="workload")
        from repro.workloads.registry import all_workloads

        _require_name({"workload": workload}, "workload",
                      all_workloads(), "workload")
        job["workload"] = workload
    else:
        recipe = obj.get("recipe")
        if not isinstance(recipe, dict):
            raise JobError("recipe jobs need a recipe dict", field="recipe")
        _check_recipe(recipe)
        job["recipe"] = recipe
    return job


def error_event(job_id, exc):
    """Map *exc* onto the response error taxonomy.

    Simulator faults keep their :mod:`repro.sim.errors` category and
    location context; :class:`JobError` maps to ``protocol``; anything
    else is ``internal``.
    """
    event = {
        "event": "error",
        "id": job_id,
        "kind": type(exc).__name__,
        "message": str(exc),
    }
    if isinstance(exc, JobError):
        event["category"] = "protocol"
        if exc.field is not None:
            event["field"] = exc.field
        return event
    event["category"] = categorize(exc) or "internal"
    for attribute in ("pc", "cycle", "backend", "seed"):
        value = getattr(exc, attribute, None)
        if value is not None:
            event[attribute] = value
    return event


def deadline_event(job_id, message, attempts=None):
    """Terminal event for a job whose ``deadline_ms`` budget expired
    (before dispatch, mid-execution, or by the time its result landed).
    ``attempts`` carries the supervision attempt count when the
    deadline terminated a running group."""
    event = {
        "event": "error",
        "id": job_id,
        "kind": "DeadlineExceeded",
        "category": "deadline",
        "message": message,
    }
    if attempts is not None:
        event["attempts"] = attempts
    return event


def error_event_from_description(job_id, description):
    """Same mapping as :func:`error_event`, from a JSON fault description
    (the :func:`repro.sim.errors.describe_fault` shape worker processes
    ship instead of live exceptions)."""
    event = {
        "event": "error",
        "id": job_id,
        "kind": description.get("kind", "Error"),
        "message": description.get("message", ""),
        "category": description.get("category") or "internal",
    }
    for attribute in ("pc", "cycle", "backend", "seed"):
        value = description.get(attribute)
        if value is not None:
            event[attribute] = value
    return event
