"""The fuzz campaign driver behind ``python -m repro fuzz``.

Seeds ``seed .. seed + runs - 1`` are checked against the differential
oracle, fanned over worker processes via
:func:`repro.evaluation.parallel.supervised_map` (the same pool the
figure/table regenerations use).  Workers ship back only (seed, failure
summary) pairs; everything a failure needs is reproducible from its
seed, so the parent re-runs, shrinks, and archives each failing case:

* ``<corpus>/recipe_<tag>.json`` — the shrunk recipe;
* ``<corpus>/test_regression_<tag>.py`` — a ready-to-paste pytest
  regression replaying it through the oracle.

Dropping the generated test into ``tests/fuzz_corpus/`` makes the case
part of tier-1 forever (``tests/fuzz/test_corpus_replay.py`` replays
every recipe in the corpus directory).
"""

import os

from repro.fuzz.generator import generate_recipe
from repro.fuzz.oracle import check_recipe
from repro.fuzz.shrink import (
    emit_regression,
    recipe_tag,
    shrink_recipe,
    statement_count,
)

#: default archive directory, relative to the repository root
DEFAULT_CORPUS = os.path.join("tests", "fuzz_corpus")


class FuzzFailure:
    """One failing seed: original and shrunk recipes plus the error."""

    def __init__(self, seed, recipe, error):
        self.seed = seed
        self.recipe = recipe
        #: ``(type name, message)`` of the original failure
        self.error = error
        self.shrunk = None
        #: paths written by :func:`archive_failure`
        self.files = []

    def __repr__(self):
        return "<FuzzFailure seed=%d %s>" % (self.seed, self.error[0])


def _failure_summary(exc):
    return (type(exc).__name__, str(exc))


def check_seed(seed, max_statements=6, backends=None):
    """Worker entry point: oracle one seed; (seed, None) when it passes.

    ``backends`` restricts the oracle's backend-identity stage (None =
    the full :data:`~repro.fuzz.oracle.ORACLE_BACKENDS` set); the CLI's
    ``--backend B`` maps to ``("interp", B)`` — the reference plus the
    backend under test.
    """
    recipe = generate_recipe(seed, max_statements=max_statements)
    kwargs = {}
    if backends is not None:
        kwargs["backends"] = tuple(backends)
    try:
        check_recipe(recipe, **kwargs)
    except Exception as exc:  # any failure is a finding
        return seed, _failure_summary(exc)
    return seed, None


def _same_failure(recipe, kind):
    """Whether *recipe* still fails with the original exception type.

    Matching on the type keeps the shrinker from wandering onto an
    unrelated bug mid-minimization.
    """
    try:
        check_recipe(recipe)
    except Exception as exc:
        return type(exc).__name__ == kind
    return False


def shrink_failure(failure, max_statements=6):
    """Minimize one failure's recipe against the live oracle."""
    kind = failure.error[0]
    failure.shrunk = shrink_recipe(
        failure.recipe, lambda candidate: _same_failure(candidate, kind)
    )
    return failure.shrunk


def archive_failure(failure, corpus_dir):
    """Write the (shrunk, else original) recipe and its regression."""
    recipe = failure.shrunk or failure.recipe
    tag = recipe_tag(recipe)
    os.makedirs(corpus_dir, exist_ok=True)
    recipe_path = os.path.join(corpus_dir, "recipe_%s.json" % tag)
    with open(recipe_path, "w") as handle:
        handle.write(recipe.to_json() + "\n")
    test_path = os.path.join(corpus_dir, "test_regression_%s.py" % tag)
    origin = "seed %d, %s: %s" % (
        failure.seed,
        failure.error[0],
        failure.error[1][:120],
    )
    with open(test_path, "w") as handle:
        handle.write(emit_regression(recipe, origin=origin))
    failure.files = [recipe_path, test_path]
    return failure.files


def fuzz_campaign(
    runs,
    seed=0,
    jobs=None,
    max_statements=6,
    shrink=True,
    corpus_dir=DEFAULT_CORPUS,
    log=None,
    journal=None,
    timeout=None,
    backends=None,
):
    """Run *runs* oracle checks; shrink and archive every failure.

    Returns the list of :class:`FuzzFailure` (empty on a clean campaign).
    ``jobs`` follows the ``--jobs`` convention of the evaluation runner
    (None/1 = serial, 0 resolved by the caller to all cores).  Seeds run
    through the supervised runner (:func:`~repro.evaluation.parallel.
    supervised_map`), so crashed workers (and, with a per-seed
    *timeout*, hung ones) are retried.  With a *journal* path, completed
    seeds checkpoint to it, so an interrupted campaign rerun with the
    same arguments resumes where it stopped.  ``backends`` restricts the
    backend-identity stage per :func:`check_seed`.
    """
    from repro.evaluation.parallel import supervised_map

    emit = log or (lambda message: None)
    seeds = range(seed, seed + runs)
    if backends is not None:
        backends = tuple(backends)
    tasks = [(s, max_statements, backends) for s in seeds]
    outcomes = supervised_map(
        check_seed, tasks, jobs=jobs, journal=journal, timeout=timeout,
        log=log,
    )
    failures = []
    for outcome_seed, summary in outcomes:
        if summary is None:
            continue
        recipe = generate_recipe(outcome_seed, max_statements=max_statements)
        failures.append(FuzzFailure(outcome_seed, recipe, summary))
    emit(
        "%d runs, %d oracle violation%s"
        % (runs, len(failures), "" if len(failures) == 1 else "s")
    )
    for failure in failures:
        emit(
            "seed %d failed: %s: %s"
            % (failure.seed, failure.error[0], failure.error[1][:200])
        )
        if shrink:
            shrunk = shrink_failure(failure, max_statements=max_statements)
            emit(
                "  shrunk %d -> %d statements"
                % (statement_count(failure.recipe), statement_count(shrunk))
            )
        if corpus_dir:
            for path in archive_failure(failure, corpus_dir):
                emit("  wrote %s" % path)
    return failures
