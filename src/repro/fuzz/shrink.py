"""Recipe-level delta debugging: minimize a failing fuzz case.

The shrinker never touches IR — it mutates the *recipe* (a small JSON
document) and relies on :func:`repro.fuzz.generator.build_module`'s
clamping to keep every mutant a valid program.  Passes, applied to a
fixpoint:

1. **Statement deletion** — ddmin-style: first halves of each statement
   list, then single statements, recursing into nested loop/branch
   bodies and helper bodies.
2. **Structure collapse** — replace a wrapper loop by its body, drop an
   else branch, drop the interrupt hook, drop unreferenced helpers and
   arrays (remapping surviving indices).
3. **Integer shrinking** — pull every numeric field (trip counts, lags,
   thresholds, scalar operands) toward 1.

``is_failing`` is an arbitrary predicate, so the same machinery serves
the real oracle, an injected-bug oracle in the test suite, and any
future invariant.  The result is the smallest recipe the passes can
reach that still fails, ready for :func:`emit_regression`.
"""

import copy
import hashlib

from repro.fuzz.generator import Recipe


def shrink_recipe(recipe, is_failing, max_rounds=25):
    """Smallest failing recipe reachable from *recipe* via the passes.

    ``is_failing(recipe) -> bool`` must be deterministic and must return
    True for *recipe* itself; the shrinker only ever keeps mutants that
    still fail, so the result reproduces the original failure.
    """
    if not is_failing(recipe):
        raise ValueError("shrink_recipe needs a failing recipe to start from")
    current = recipe.to_dict()

    def fails(candidate):
        return is_failing(Recipe.from_dict(candidate))

    for _round in range(max_rounds):
        progress = False
        for one_pass in (_delete_pass, _collapse_pass, _integer_pass):
            candidate, changed = one_pass(current, fails)
            if changed:
                current = candidate
                progress = True
        if not progress:
            break
    return Recipe.from_dict(current)


# ----------------------------------------------------------------------
# Pass 1: statement deletion
# ----------------------------------------------------------------------
def _bodies(data):
    """Paths of every statement list in the recipe, outermost first.

    A path is a tuple of keys/indices navigating ``data`` to a list of
    statements: ``("body",)``, ``("helpers", 0)``,
    ``("body", 2, 2)`` (the nested body of a wrapper), ...
    """
    paths = [("body",)]
    for position in range(len(data["helpers"])):
        paths.append(("helpers", position))
    stack = [(("body",), data["body"])]
    while stack:
        path, body = stack.pop()
        for position, stmt in enumerate(body):
            if not isinstance(stmt, list) or not stmt:
                continue
            kind = stmt[0]
            slots = []
            if kind in ("loop", "swloop"):
                slots = [2]
            elif kind == "branch":
                slots = [2] + ([3] if stmt[3] else [])
            for slot in slots:
                nested_path = path + (position, slot)
                paths.append(nested_path)
                stack.append((nested_path, stmt[slot]))
    return paths


def _resolve(data, path):
    node = data
    for key in path:
        node = node[key]
    return node


def _delete_pass(data, fails):
    changed = False
    # Revisit paths after every successful deletion: indices shift.
    stable = False
    while not stable:
        stable = True
        for path in _bodies(data):
            body = _resolve(data, path)
            candidate, removed = _ddmin_list(data, path, body, fails)
            if removed:
                data = candidate
                changed = True
                stable = False
                break
    return data, changed


def _ddmin_list(data, path, body, fails):
    """Try removing chunks (halves first, then singles) from one list."""
    length = len(body)
    if length == 0:
        return data, False
    chunks = []
    if length >= 4:
        half = length // 2
        chunks.append((0, half))
        chunks.append((half, length))
    chunks.extend((position, position + 1) for position in range(length))
    for start, stop in chunks:
        if stop - start == length and path == ("body",):
            continue  # an empty main body cannot fail interestingly
        candidate = copy.deepcopy(data)
        target = _resolve(candidate, path)
        del target[start:stop]
        if fails(candidate):
            return candidate, True
    return data, False


# ----------------------------------------------------------------------
# Pass 2: structure collapse
# ----------------------------------------------------------------------
def _collapse_pass(data, fails):
    changed = False
    for mutate in (
        _try_drop_interrupt,
        _try_hoist_wrappers,
        _try_drop_else,
        _try_drop_helpers,
        _try_drop_arrays,
    ):
        stable = False
        while not stable:
            candidate = mutate(data)
            if candidate is not None and fails(candidate):
                data = candidate
                changed = True
            else:
                stable = True
    return data, changed


def _try_drop_interrupt(data):
    if data.get("interrupt_period") is None:
        return None
    candidate = copy.deepcopy(data)
    candidate["interrupt_period"] = None
    return candidate


def _wrapper_positions(data):
    for path in _bodies(data):
        body = _resolve(data, path)
        for position, stmt in enumerate(body):
            if isinstance(stmt, list) and stmt and stmt[0] in (
                "loop",
                "swloop",
                "branch",
            ):
                yield path, position, stmt


def _try_hoist_wrappers(data):
    """Replace the first hoistable wrapper by its own body."""
    for path, position, stmt in _wrapper_positions(data):
        candidate = copy.deepcopy(data)
        body = _resolve(candidate, path)
        inner = stmt[2] if stmt[0] != "branch" else stmt[2] + (stmt[3] or [])
        body[position : position + 1] = copy.deepcopy(inner)
        return candidate
    return None


def _try_drop_else(data):
    for path, position, stmt in _wrapper_positions(data):
        if stmt[0] == "branch" and stmt[3]:
            candidate = copy.deepcopy(data)
            _resolve(candidate, path)[position][3] = None
            return candidate
    return None


def _each_statement(data):
    for path in _bodies(data):
        for stmt in _resolve(data, path):
            yield stmt


def _try_drop_helpers(data):
    """Drop the highest unreferenced helper, remapping call indices."""
    count = len(data["helpers"])
    if not count:
        return None
    referenced = {
        int(stmt[1]) % count
        for stmt in _each_statement(data)
        if stmt and stmt[0] == "call"
    }
    for victim in range(count - 1, -1, -1):
        if victim in referenced:
            continue
        candidate = copy.deepcopy(data)
        del candidate["helpers"][victim]
        for stmt in _each_statement(candidate):
            if stmt and stmt[0] == "call":
                index = int(stmt[1]) % count
                stmt[1] = index - 1 if index > victim else index
        return candidate
    return None


_ARRAY_FIELDS = {
    "store": (1,),
    "dot": (1, 2),
    "autocorr": (1,),
    "update": (1, 2),
    "cond": (1,),
    "writeback": (1,),
    "nest": (1, 2),
    "dupstore": (1,),
    "localmix": (1,),
}


def _try_drop_arrays(data):
    """Drop the highest unreferenced global array, remapping indices."""
    count = len(data["arrays"])
    if count <= 1:
        return None
    referenced = set()
    for stmt in _each_statement(data):
        for field in _ARRAY_FIELDS.get(stmt[0], ()):
            referenced.add(int(stmt[field]) % count)
    for victim in range(count - 1, -1, -1):
        if victim in referenced:
            continue
        candidate = copy.deepcopy(data)
        del candidate["arrays"][victim]
        for stmt in _each_statement(candidate):
            for field in _ARRAY_FIELDS.get(stmt[0], ()):
                index = int(stmt[field]) % count
                stmt[field] = index - 1 if index > victim else index
        return candidate
    return None


# ----------------------------------------------------------------------
# Pass 3: integer shrinking
# ----------------------------------------------------------------------
#: per-kind positions of freely shrinkable integer fields
_INT_FIELDS = {
    "scalar": (2,),
    "store": (2, 3),
    "dot": (3,),
    "autocorr": (2, 3),
    "update": (3, 4),
    "cond": (2, 3),
    "writeback": (2,),
    "nest": (3, 4),
    "dupstore": (2, 3),
    "localmix": (2,),
    "call": (2,),
    "loop": (1,),
    "swloop": (1,),
    "branch": (1,),
}


def _integer_pass(data, fails):
    changed = False
    stable = False
    while not stable:
        stable = True
        for path in _bodies(data):
            body = _resolve(data, path)
            for position, stmt in enumerate(body):
                for field in _INT_FIELDS.get(stmt[0], ()):
                    value = int(stmt[field])
                    for smaller in _shrink_candidates(value):
                        candidate = copy.deepcopy(data)
                        _resolve(candidate, path)[position][field] = smaller
                        if fails(candidate):
                            data = candidate
                            changed = True
                            stable = False
                            break
                    if not stable:
                        break
                if not stable:
                    break
            if not stable:
                break
    return data, changed


def _shrink_candidates(value):
    """Smaller replacement values to try, most aggressive first."""
    candidates = []
    for smaller in (1, value // 2, value - 1):
        if 0 <= smaller < value and smaller not in candidates:
            candidates.append(smaller)
    return candidates


# ----------------------------------------------------------------------
# Regression emission
# ----------------------------------------------------------------------
_REGRESSION_TEMPLATE = '''"""Auto-generated fuzz regression (%(origin)s).

Replays a shrunk recipe through the full differential oracle; see
docs/internals.md ("The differential fuzzer") for the corpus workflow.
"""

from repro.fuzz.generator import Recipe
from repro.fuzz.oracle import check_recipe

RECIPE_JSON = %(json)r


def test_fuzz_regression_%(tag)s():
    check_recipe(Recipe.from_json(RECIPE_JSON))
'''


def recipe_tag(recipe):
    """A short stable identifier for file and test names."""
    return hashlib.sha256(recipe.to_json().encode()).hexdigest()[:10]


def emit_regression(recipe, origin="shrunk fuzz failure"):
    """Source of a self-contained pytest regression replaying *recipe*."""
    return _REGRESSION_TEMPLATE % {
        "origin": origin,
        "json": recipe.to_json(),
        "tag": recipe_tag(recipe),
    }
