"""Seeded, serializable program recipes for differential fuzzing.

A :class:`Recipe` is a small JSON document — array sizes, helper-function
bodies, a main body of statements, and an optional interrupt cadence —
from which :func:`build_module` deterministically reconstructs an IR
module via :class:`~repro.frontend.ProgramBuilder`.  The indirection is
what makes delta debugging possible: the shrinker mutates the *recipe*
(drop a statement, hoist a loop body, halve a trip count) and rebuilds,
instead of trying to mutate IR.

The grammar deliberately covers every front-end feature the allocation
pass and the simulators can disagree about:

* counted hardware loops, software (compare-and-branch) loops, nesting;
* conditionals, including conditionals inside loops and loops inside
  conditionals;
* function calls (helpers with a scalar parameter and return value);
* global arrays, a local (stack-resident) array, scalar register traffic;
* same-array offset reads (``a[i] * a[i + lag]``) and the paper's
  Figure 6 autocorrelation shape — stores into an array that is also
  read twice per cycle — which drive the duplication transform and its
  store-lock integrity protocol;
* an optional interrupt hook cadence, exercising the store-lock window
  and the jit backend's stepped loop.

Every statement is a plain list (JSON-friendly), every numeric field is
a small non-negative integer, and :func:`build_module` clamps all
derived quantities into bounds — so *any* recipe produced by mutating
integer fields or deleting statements is still a valid program.  That
closure property is what lets the shrinker move freely.
"""

import json
import random

from repro.frontend import ProgramBuilder

#: statements allowed inside helper functions and conditional bodies
SIMPLE_KINDS = ("scalar", "store", "dot", "autocorr")

#: statements allowed at any nesting level of the main body
LOOPY_KINDS = SIMPLE_KINDS + (
    "update",
    "cond",
    "writeback",
    "nest",
    "dupstore",
    "localmix",
)

#: wrapper statements carrying a nested body (main body only)
NESTED_KINDS = ("loop", "swloop", "branch")

#: size of the fixed output array every recipe writes
OUT_SIZE = 8

_SCALAR_OPS = ("+", "-", "*")


class Recipe:
    """A serializable description of one generated program."""

    VERSION = 1

    def __init__(self, seed, arrays, body, helpers=(), interrupt_period=None):
        #: generator seed (provenance only; the fields below are the truth)
        self.seed = seed
        #: element count of each global array ``arr0 .. arrN``
        self.arrays = [int(size) for size in arrays]
        #: main-body statement list (nested plain lists)
        self.body = list(body)
        #: helper-function bodies (each a list of SIMPLE statements)
        self.helpers = [list(h) for h in helpers]
        #: deliver an interrupt every N unlocked cycles (None = no hook)
        self.interrupt_period = interrupt_period

    # ------------------------------------------------------------------
    # Serialization
    # ------------------------------------------------------------------
    def to_dict(self):
        return {
            "version": self.VERSION,
            "seed": self.seed,
            "arrays": list(self.arrays),
            "helpers": [list(h) for h in self.helpers],
            "body": list(self.body),
            "interrupt_period": self.interrupt_period,
        }

    @classmethod
    def from_dict(cls, data):
        return cls(
            data.get("seed"),
            data["arrays"],
            data["body"],
            helpers=data.get("helpers", ()),
            interrupt_period=data.get("interrupt_period"),
        )

    def to_json(self):
        return json.dumps(self.to_dict(), sort_keys=True)

    @classmethod
    def from_json(cls, text):
        return cls.from_dict(json.loads(text))

    def __eq__(self, other):
        return isinstance(other, Recipe) and self.to_dict() == other.to_dict()

    def __hash__(self):
        return hash(self.to_json())

    def __repr__(self):
        return "<Recipe seed=%r arrays=%r statements=%d>" % (
            self.seed,
            self.arrays,
            _count_body(self.body) + sum(len(h) for h in self.helpers),
        )


def _count_body(body):
    total = 0
    for stmt in body:
        total += 1
        for nested in _nested_bodies(stmt):
            total += _count_body(nested)
    return total


def _nested_bodies(stmt):
    """The nested statement lists carried by a wrapper statement."""
    kind = stmt[0]
    if kind in ("loop", "swloop"):
        return [stmt[2]]
    if kind == "branch":
        bodies = [stmt[2]]
        if stmt[3]:
            bodies.append(stmt[3])
        return bodies
    return []


# ----------------------------------------------------------------------
# Generation
# ----------------------------------------------------------------------
def generate_recipe(seed, max_statements=6):
    """A random :class:`Recipe`; the same seed always yields the same
    recipe (and therefore, via :func:`build_module`, the same module)."""
    rng = random.Random(seed)
    arrays = [rng.randint(6, 12) for _ in range(rng.randint(2, 4))]
    helpers = [
        [_simple_statement(rng, arrays) for _ in range(rng.randint(1, 3))]
        for _ in range(rng.randint(0, 2))
    ]
    body = [
        _body_statement(rng, arrays, len(helpers), depth=0)
        for _ in range(rng.randint(1, max(1, max_statements)))
    ]
    period = rng.randint(2, 9) if rng.random() < 0.4 else None
    return Recipe(seed, arrays, body, helpers=helpers, interrupt_period=period)


def _simple_statement(rng, arrays):
    kind = rng.choice(SIMPLE_KINDS)
    a = rng.randrange(len(arrays))
    if kind == "scalar":
        return ["scalar", rng.randrange(len(_SCALAR_OPS)), rng.randint(1, 7)]
    if kind == "store":
        return ["store", a, rng.randint(0, 11), rng.randint(1, 7)]
    if kind == "dot":
        return ["dot", a, rng.randrange(len(arrays)), rng.randint(1, 6)]
    return ["autocorr", a, rng.randint(1, 3), rng.randint(1, 6)]


def _body_statement(rng, arrays, helper_count, depth):
    choices = list(LOOPY_KINDS)
    if helper_count:
        choices.append("call")
    if depth < 2:
        choices.extend(NESTED_KINDS)
    kind = rng.choice(choices)
    a = rng.randrange(len(arrays))
    b = rng.randrange(len(arrays))
    if kind in SIMPLE_KINDS:
        return _simple_statement(rng, arrays)
    if kind == "update":
        return ["update", a, b, rng.randint(1, 7), rng.randint(1, 6)]
    if kind == "cond":
        return ["cond", a, rng.randint(1, 7), rng.randint(1, 6)]
    if kind == "writeback":
        return ["writeback", b, rng.randint(1, 6)]
    if kind == "nest":
        return ["nest", a, b, rng.randint(1, 3), rng.randint(1, 4)]
    if kind == "dupstore":
        return ["dupstore", a, rng.randint(1, 3), rng.randint(1, 4)]
    if kind == "localmix":
        return ["localmix", a, rng.randint(1, 6)]
    if kind == "call":
        return ["call", rng.randrange(helper_count), rng.randint(1, 7)]
    if kind in ("loop", "swloop"):
        body = [
            _body_statement(rng, arrays, helper_count, depth + 1)
            for _ in range(rng.randint(1, 2))
        ]
        return [kind, rng.randint(0, 3), body]
    then_body = [_simple_statement(rng, arrays)]
    else_body = [_simple_statement(rng, arrays)] if rng.random() < 0.5 else None
    return ["branch", rng.randint(1, 7), then_body, else_body]


# ----------------------------------------------------------------------
# Module construction
# ----------------------------------------------------------------------
class _FunctionScope:
    """Handles shared by the statement emitters for one function."""

    def __init__(self, f, arrays, out, acc, helpers):
        self.f = f
        self.arrays = arrays
        self.out = out
        self.acc = acc
        self.helpers = helpers
        self.local = None

    def array(self, index):
        return self.arrays[index % len(self.arrays)]

    def local_array(self):
        if self.local is None:
            self.local = self.f.local_array("scratch", OUT_SIZE)
        return self.local


def build_module(recipe, name="fuzz"):
    """Deterministically rebuild the IR module a recipe describes."""
    pb = ProgramBuilder(name)
    arrays = [
        pb.global_array(
            "arr%d" % position,
            max(2, size),
            float,
            init=[
                float((3 * position + 2 * offset) % 7) * 0.5 + 0.5
                for offset in range(max(2, size))
            ],
        )
        for position, size in enumerate(recipe.arrays)
    ]
    out = pb.global_array("out", OUT_SIZE, float)
    checksum = pb.global_scalar("checksum", float)

    helper_handles = []
    for position, body in enumerate(recipe.helpers):
        with pb.function(
            "helper%d" % position, params=(("x", float),), returns=float
        ) as f:
            hacc = f.float_var("hacc")
            f.assign(hacc, 0.0)
            context = _FunctionScope(f, arrays, out, hacc, helper_handles)
            for stmt in body:
                _emit(stmt, context)
            f.ret(hacc + f.param("x"))
        helper_handles.append(pb.get("helper%d" % position))

    with pb.function("main") as f:
        acc = f.float_var("acc")
        f.assign(acc, 0.0)
        context = _FunctionScope(f, arrays, out, acc, helper_handles)
        for stmt in recipe.body:
            _emit(stmt, context)
        f.assign(checksum[0], acc)
    return pb.build()


def _trips(requested, *limits):
    """Clamp a requested trip count into every array bound involved."""
    bound = min(limits) if limits else requested
    return max(0, min(int(requested), bound))


def _emit(stmt, context):
    kind = stmt[0]
    emitter = _EMITTERS.get(kind)
    if emitter is None:
        raise ValueError("unknown recipe statement kind %r" % (kind,))
    emitter(stmt, context)


def _emit_scalar(stmt, context):
    _kind, op, value = stmt[:3]
    operator = _SCALAR_OPS[int(op) % len(_SCALAR_OPS)]
    f, acc = context.f, context.acc
    if operator == "+":
        f.assign(acc, acc + float(value) * 0.5)
    elif operator == "-":
        f.assign(acc, acc - float(value) * 0.5)
    else:
        # keep multipliers small so long statement chains cannot reach
        # inf/nan (NaN would break the oracle's exact-equality compare)
        f.assign(acc, acc * (0.5 + float(value) * 0.125))


def _emit_store(stmt, context):
    _kind, a, index, value = stmt[:4]
    array = context.array(a)
    context.f.assign(array[int(index) % len(array)], float(value) * 0.25)


def _emit_dot(stmt, context):
    _kind, a, b, trips = stmt[:4]
    first, second = context.array(a), context.array(b)
    f, acc = context.f, context.acc
    with f.loop(_trips(trips, len(first), len(second))) as i:
        f.assign(acc, acc + first[i] * second[i])


def _emit_autocorr(stmt, context):
    _kind, a, lag, trips = stmt[:4]
    array = context.array(a)
    lag = max(1, min(int(lag), len(array) - 1))
    f, acc = context.f, context.acc
    with f.loop(_trips(trips, len(array) - lag)) as i:
        f.assign(acc, acc + array[i] * array[i + lag])


def _emit_update(stmt, context):
    _kind, a, b, value, trips = stmt[:5]
    target, source = context.array(a), context.array(b)
    f = context.f
    with f.loop(_trips(trips, len(target), len(source))) as i:
        f.assign(target[i], source[i] + float(value) * 0.5)


def _emit_cond(stmt, context):
    _kind, a, threshold, trips = stmt[:4]
    array = context.array(a)
    f, acc = context.f, context.acc
    with f.loop(_trips(trips, len(array))) as i:
        element = f.float_var()
        f.assign(element, array[i])
        with f.if_(element > float(threshold) * 0.5):
            f.assign(acc, acc + element)
        with f.else_():
            f.assign(acc, acc - 1.0)


def _emit_writeback(stmt, context):
    _kind, b, trips = stmt[:3]
    source = context.array(b)
    f, acc = context.f, context.acc
    with f.loop(_trips(trips, len(source), OUT_SIZE)) as i:
        f.assign(context.out[i], acc + source[i])


def _emit_nest(stmt, context):
    _kind, a, b, outer, inner = stmt[:5]
    first, second = context.array(a), context.array(b)
    outer = _trips(outer, len(second) - 1)
    inner = _trips(inner, len(first), len(second) - outer)
    f, acc = context.f, context.acc
    with f.loop(outer, name="m") as m:
        with f.loop(inner, name="n") as n:
            f.assign(acc, acc + first[n] * second[n + m])


def _emit_dupstore(stmt, context):
    """The paper's Figure 6 autocorrelation shape: stores into an array
    that same-cycle double reads later force into both banks — the
    pattern that exercises duplication plus its integrity stores."""
    _kind, a, outer, inner = stmt[:4]
    array = context.array(a)
    outer = _trips(outer, len(array) - 1)
    inner = _trips(inner, len(array) - outer)
    f, acc = context.f, context.acc
    with f.loop(_trips(outer + inner, len(array))) as i:
        f.assign(array[i], acc + 0.5)
    with f.loop(outer, name="m") as m:
        with f.loop(inner, name="n") as n:
            f.assign(acc, acc + array[n] * array[n + m])


def _emit_localmix(stmt, context):
    _kind, a, trips = stmt[:3]
    array = context.array(a)
    local = context.local_array()
    f, acc = context.f, context.acc
    count = _trips(trips, len(array), OUT_SIZE)
    with f.loop(count) as i:
        f.assign(local[i], array[i] + 1.0)
    with f.loop(count) as i:
        f.assign(acc, acc + local[i])


def _emit_call(stmt, context):
    _kind, helper, value = stmt[:3]
    if not context.helpers:
        return
    handle = context.helpers[int(helper) % len(context.helpers)]
    f, acc = context.f, context.acc
    f.assign(acc, acc + handle(float(value) * 0.5))


def _emit_loop(stmt, context):
    _kind, trips, body = stmt[:3]
    with context.f.loop(max(0, min(int(trips), 4))):
        for nested in body:
            _emit(nested, context)


def _emit_swloop(stmt, context):
    _kind, trips, body = stmt[:3]
    with context.f.for_range(0, max(0, min(int(trips), 4)), hw=False):
        for nested in body:
            _emit(nested, context)


def _emit_branch(stmt, context):
    _kind, threshold, then_body, else_body = stmt[:4]
    f, acc = context.f, context.acc
    with f.if_(acc > float(threshold) * 0.5):
        for nested in then_body:
            _emit(nested, context)
    if else_body:
        with f.else_():
            for nested in else_body:
                _emit(nested, context)


_EMITTERS = {
    "scalar": _emit_scalar,
    "store": _emit_store,
    "dot": _emit_dot,
    "autocorr": _emit_autocorr,
    "update": _emit_update,
    "cond": _emit_cond,
    "writeback": _emit_writeback,
    "nest": _emit_nest,
    "dupstore": _emit_dupstore,
    "localmix": _emit_localmix,
    "call": _emit_call,
    "loop": _emit_loop,
    "swloop": _emit_swloop,
    "branch": _emit_branch,
}
