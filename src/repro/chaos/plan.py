"""Seeded, serializable chaos plans for the serve path.

A :class:`ChaosPlan` is to the chaos harness what a
:class:`~repro.faults.plan.FaultPlan` is to the fault injector: a
small, JSON-stable value that *deterministically* describes one chaos
campaign against a live ``repro serve`` process.  Same plan + same
code ⇒ the same submissions, the same kill points, the same induced
corruptions — which is what lets a seeded campaign hold the
crash-safety invariants (no accepted job lost, no job executed twice,
replays bit-identical) as a regression test instead of a flaky soak.

A plan is a list of **cycles**.  Each cycle names the jobs submitted
while the service is up and the chaos events applied around them:

``["kill"]``
    SIGKILL the service process mid-batch — after every submission in
    the cycle has been write-ahead journaled and acknowledged
    ``accepted``, with terminals still in flight.  The harness
    restarts the service at the top of the next cycle and measures
    recovery (re-execution of unfinished jobs from the journal).
``["corrupt", pick]``
    While the service is down, flip one byte inside artifact-store
    object number ``pick`` (modulo the store's population, sorted
    order) — exercising the store's verify-on-read path under
    restart.
``["truncate", pick]``
    Same selection, but truncate the object file to half its length —
    a torn write at the filesystem level.
``["oversize"]``
    Open a throwaway connection and send a single line just past the
    protocol's 4 MiB cap; the service must answer with a typed
    ``protocol`` error and survive.
``["stall", nbytes]``
    Open a connection, send ``nbytes`` of a syntactically valid prefix
    of a job, and never finish the line — the stalled half-submission
    is abandoned (the socket dies with the cycle's kill), and the
    service must treat the fragment as a truncated line, not a crash.
``["workerkill"]``
    Best-effort SIGKILL of one of the service's supervised worker
    processes mid-cycle (a no-op when the service runs serial);
    supervision's retry budget must absorb it.

Jobs are stored inline (plain validated-job dicts with stable
``chaos-<seed>-<cycle>-<i>`` ids) so a plan fully describes its run,
the way a fuzz :class:`~repro.fuzz.generator.Recipe` carries its
statements.
"""

import json
import random

#: bump when the serialized format changes incompatibly
VERSION = 1

#: event kinds a plan may contain
EVENT_KINDS = ("kill", "corrupt", "truncate", "oversize", "stall",
               "workerkill")

#: the workload/strategy rotation chaos jobs draw from — small enough
#: to compile fast, varied enough to populate several compile groups
WORKLOADS = ("fir_32_1", "iir_1_1", "mult_4_4")
STRATEGIES = ("CB", "CB_DUP", "SINGLE_BANK")


class ChaosPlan:
    """One deterministic chaos campaign: a seed and a list of cycles,
    each ``{"jobs": [...], "events": [...]}`` (module docstring has the
    event grammar)."""

    def __init__(self, seed, cycles=None):
        self.seed = seed
        self.cycles = [
            {
                "jobs": [dict(job) for job in cycle.get("jobs", [])],
                "events": [list(event) for event in cycle.get("events", [])],
            }
            for cycle in (cycles or [])
        ]

    # -- serialization (mirrors faults.plan.FaultPlan) -----------------
    def to_dict(self):
        """Plain-data form (JSON-stable)."""
        return {
            "version": VERSION,
            "seed": self.seed,
            "cycles": [
                {
                    "jobs": [dict(job) for job in cycle["jobs"]],
                    "events": [list(event) for event in cycle["events"]],
                }
                for cycle in self.cycles
            ],
        }

    @classmethod
    def from_dict(cls, data):
        """Rebuild a plan from :meth:`to_dict` output."""
        if data.get("version") != VERSION:
            raise ValueError(
                "chaos plan version %r != supported %d"
                % (data.get("version"), VERSION)
            )
        return cls(seed=data["seed"], cycles=data["cycles"])

    def to_json(self):
        """Serialize to a JSON string (sorted keys, so equal plans
        serialize identically)."""
        return json.dumps(self.to_dict(), sort_keys=True)

    @classmethod
    def from_json(cls, text):
        """Inverse of :meth:`to_json`."""
        return cls.from_dict(json.loads(text))

    def jobs(self):
        """Every job in the plan, cycle order then submission order."""
        return [job for cycle in self.cycles for job in cycle["jobs"]]

    def __eq__(self, other):
        if not isinstance(other, ChaosPlan):
            return NotImplemented
        return self.to_dict() == other.to_dict()

    def __hash__(self):
        return hash(self.to_json())

    def __repr__(self):
        return "<ChaosPlan seed=%r cycles=%d jobs=%d kills=%d>" % (
            self.seed,
            len(self.cycles),
            len(self.jobs()),
            sum(
                1
                for cycle in self.cycles
                for event in cycle["events"]
                if event[0] == "kill"
            ),
        )


def _draw_job(rng, seed, cycle, index):
    """One deterministic job for slot (*cycle*, *index*)."""
    job = {"kind": "run", "id": "chaos-%d-%d-%d" % (seed, cycle, index)}
    roll = rng.random()
    if roll < 0.15:
        # a program-error job: BadWrite faults its own lane, is
        # journaled as a terminal error, and must deduplicate on
        # resubmission exactly like a success
        job["workload"] = rng.choice(WORKLOADS)
        job["writes"] = {"x": [0.0] * 512}
    elif roll < 0.30:
        # a seeded generator recipe: a distinct compile group whose
        # program the artifact store has never seen
        job = {
            "kind": "recipe",
            "id": job["id"],
            "recipe": {"seed": rng.randrange(1, 64)},
            "strategy": rng.choice(STRATEGIES),
        }
    else:
        job["workload"] = rng.choice(WORKLOADS)
        job["strategy"] = rng.choice(STRATEGIES)
        if rng.random() < 0.25:
            job["reads"] = ["y"] if job["workload"] == "fir_32_1" else []
    return job


def generate_plan(seed, cycles=3, jobs_per_cycle=4):
    """Draw a :class:`ChaosPlan` from *seed*.

    Every cycle ends in a ``kill`` (the crash/restart loop is the
    point); auxiliary events — store corruption, oversized and stalled
    submissions, worker kills — are drawn per cycle.  Deterministic:
    same arguments ⇒ equal plans, the property the chaos campaign
    tests and the replay tests lean on.
    """
    rng = random.Random((seed & 0xFFFFFFFF) ^ 0xC4A0_5EED)
    drawn = []
    for cycle in range(max(1, cycles)):
        jobs = [
            _draw_job(rng, seed, cycle, index)
            for index in range(max(1, jobs_per_cycle))
        ]
        events = []
        if rng.random() < 0.5:
            events.append(["oversize"])
        if rng.random() < 0.5:
            events.append(["stall", 16 + rng.randrange(64)])
        if rng.random() < 0.4:
            events.append(["workerkill"])
        events.append(["kill"])
        # store sabotage applies while the service is down, i.e. after
        # this cycle's kill and before the next cycle's restart
        if cycle and rng.random() < 0.6:
            events.append(["corrupt", rng.randrange(1 << 16)])
        if cycle and rng.random() < 0.4:
            events.append(["truncate", rng.randrange(1 << 16)])
        drawn.append({"jobs": jobs, "events": events})
    return ChaosPlan(seed=seed, cycles=drawn)
