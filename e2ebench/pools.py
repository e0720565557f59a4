"""The fixed input pools every workload draws from.

Each run samples its inputs from these pools with ``--seed``, so a
seed picks *which* inputs run and in what order, while every possible
input has a result committed under ``expected/`` (generated once with
the ``interp`` reference simulator by ``gen_expected.py``).
"""

import json
import os
import random

HERE = os.path.dirname(os.path.abspath(__file__))
EXPECTED_DIR = os.path.join(HERE, "expected")

# ----------------------------------------------------------------------
# lane-sweep
# ----------------------------------------------------------------------
#: uniform-control, loop-heavy programs and the input array each
#: instance writes
UNIFORM_PROGRAMS = (
    ("fir_256_64", "x"),
    ("lmsfir_32_64", "x"),
    ("iir_4_64", "x"),
)
#: input vectors per uniform program in the pool / drawn per sweep
UNIFORM_POOL = 512
UNIFORM_PER_SWEEP = 128
#: fuzz recipes whose branches read the written arrays: the first 24
#: generator seeds whose body has a ``cond`` statement and that run at
#: most ``DIVERGENT_MAX_CYCLES`` simulated cycles on every pool input
#: (``gen_expected.py`` re-derives the list and refuses a mismatch).
#: Every sweep runs all of them; most run far slower on the lockstep
#: ``batch`` backend than per instance on ``jit`` (DESIGN.md).
DIVERGENT_RECIPE_SEEDS = (17, 18, 30, 32, 35, 37, 38, 40, 43, 45, 46, 49,
                          55, 57, 61, 69, 78, 80, 81, 82, 93, 96, 97, 106)
DIVERGENT_MAX_CYCLES = 100
#: input sets per recipe in the pool / drawn per recipe per sweep
DIVERGENT_POOL = 64
DIVERGENT_INSTANCES = 8
#: lockstep lanes per slab, as the serve path runs coalesced groups
LANES = 64
#: partitioning strategy every lane program is compiled under
LANE_STRATEGY = "CB"


def uniform_writes(program, array, size, index):
    """Instance *index*'s input vector for a uniform program."""
    rng = random.Random("%s:%d" % (program, index))
    return {array: [round(rng.uniform(-1.0, 1.0), 6) for _ in range(size)]}


def divergent_writes(recipe_seed, sizes, index):
    """Instance *index*'s arrays for a fuzz recipe: values straddle the
    recipes' branch thresholds (0.5 .. 3.5), so lanes split and rejoin."""
    rng = random.Random("recipe%d:%d" % (recipe_seed, index))
    return {
        name: [rng.randint(0, 9) * 0.5 for _ in range(size)]
        for name, size in sorted(sizes.items())
        if name.startswith("arr")
    }


def uniform_key(program, index):
    return "%s#%d" % (program, index)


def divergent_key(recipe_seed, index):
    return "recipe%d#%d" % (recipe_seed, index)


# ----------------------------------------------------------------------
# serve-open
# ----------------------------------------------------------------------
#: registry workloads x strategies: repeated, so they coalesce and read
#: through the artifact store
SERVE_WORKLOADS = ("fir_32_1", "iir_1_1", "mult_4_4", "latnrm_8_1")
SERVE_STRATEGIES = ("SINGLE_BANK", "CB", "CB_DUP")
#: one registry program under every simulator backend
BACKEND_WORKLOAD = "fir_32_1"
SERVE_BACKENDS = ("interp", "fast", "jit")
#: per-instance ``writes`` jobs: one program, distinct inputs
WRITES_WORKLOAD = "fir_32_1"
WRITES_POOL = 256
#: distinct fuzz recipes (generator specs): each one a cold compile
RECIPE_BASE_SEED = 50000
RECIPE_POOL = 600
#: job mix: kind -> jobs per 19 arrivals.  These are the proportions of
#: the mixed serve load in ``benchmarks/bench_serve.py`` (``_job_mix``:
#: 12 registry x strategy, 3 backend, 2 recipe, 1 writes and 1 profile
#: job per round); there its two recipes repeat, here every recipe job
#: is a distinct cold compile.
SERVE_MIX = (("registry", 12), ("backend", 3), ("recipe", 2),
             ("writes", 1), ("profile", 1))
#: every job's end-to-end budget; an expired job counts as failed
DEADLINE_MS = 30000


def registry_jobs():
    return [
        {"kind": "run", "workload": name, "strategy": strategy}
        for name in SERVE_WORKLOADS
        for strategy in SERVE_STRATEGIES
    ]


def backend_jobs():
    return [{"kind": "run", "workload": BACKEND_WORKLOAD, "backend": backend}
            for backend in SERVE_BACKENDS]


def writes_job(index):
    rng = random.Random("serve-writes:%d" % index)
    return {
        "kind": "run", "workload": WRITES_WORKLOAD, "strategy": "CB",
        "writes": {"x": [round(rng.uniform(-1.0, 1.0), 6)
                         for _ in range(32)]},
        "reads": ["y"],
    }


def recipe_job(index):
    return {"kind": "recipe", "recipe": {"seed": RECIPE_BASE_SEED + index},
            "strategy": "CB"}


def profile_job():
    return {"kind": "run", "workload": "mult_4_4", "strategy": "CB_PROFILE"}


def serve_pool():
    """Every job the serve workloads can send, keyed by a stable name."""
    pool = {}
    for job in registry_jobs():
        pool["registry:%s:%s" % (job["workload"], job["strategy"])] = job
    for job in backend_jobs():
        pool["backend:%s" % job["backend"]] = job
    for index in range(WRITES_POOL):
        pool["writes:%d" % index] = writes_job(index)
    for index in range(RECIPE_POOL):
        pool["recipe:%d" % index] = recipe_job(index)
    pool["profile"] = profile_job()
    return pool


def load_expected(name):
    with open(os.path.join(EXPECTED_DIR, name + ".json")) as handle:
        return json.load(handle)
