"""Campaign driver: seed fan-out, failure archiving, corpus emission."""

import json
import os

import pytest

from repro.evaluation.parallel import supervised_map
from repro.fuzz import campaign
from repro.fuzz.generator import Recipe
from repro.fuzz.oracle import OracleViolation


def test_clean_campaign_returns_no_failures(tmp_path):
    logged = []
    failures = campaign.fuzz_campaign(
        5, seed=0, corpus_dir=str(tmp_path), log=logged.append
    )
    assert failures == []
    assert list(tmp_path.iterdir()) == []  # nothing archived
    assert any("5 runs, 0 oracle violations" in line for line in logged)


def _contains_dot(body):
    for stmt in body:
        if stmt[0] == "dot":
            return True
        if stmt[0] in ("loop", "swloop") and _contains_dot(stmt[2]):
            return True
        if stmt[0] == "branch" and (
            _contains_dot(stmt[2]) or (stmt[3] and _contains_dot(stmt[3]))
        ):
            return True
    return False


def _injected_oracle(recipe, **_kwargs):
    """Pretend every recipe containing a ``dot`` statement is broken."""
    if _contains_dot(recipe.body) or any(
        _contains_dot(helper) for helper in recipe.helpers
    ):
        raise OracleViolation("strategy-semantics", "injected dot bug")


def test_campaign_shrinks_and_archives_failures(tmp_path, monkeypatch):
    monkeypatch.setattr(campaign, "check_recipe", _injected_oracle)
    failures = campaign.fuzz_campaign(
        20, seed=0, corpus_dir=str(tmp_path), log=None
    )
    assert failures  # the injected bug fires within 20 seeds
    for failure in failures:
        assert failure.error[0] == "OracleViolation"
        # Delta debugging against the injected oracle: at most the
        # offending dot plus one carrier statement (the main body is
        # never emptied entirely, so a dot inside a helper keeps one).
        from repro.fuzz.shrink import statement_count

        assert statement_count(failure.shrunk) <= 2
        assert _contains_dot(failure.shrunk.body) or any(
            _contains_dot(helper) for helper in failure.shrunk.helpers
        )
        recipe_path, test_path = failure.files
        assert os.path.exists(recipe_path)
        assert os.path.exists(test_path)
        data = json.loads(open(recipe_path).read())
        assert Recipe.from_dict(data) == failure.shrunk
        source = open(test_path).read()
        compile(source, test_path, "exec")  # runnable pytest module
        assert "check_recipe" in source


def test_campaign_without_shrinking_archives_originals(tmp_path, monkeypatch):
    monkeypatch.setattr(campaign, "check_recipe", _injected_oracle)
    failures = campaign.fuzz_campaign(
        20, seed=0, shrink=False, corpus_dir=str(tmp_path), log=None
    )
    assert failures
    assert all(failure.shrunk is None for failure in failures)
    assert all(len(failure.files) == 2 for failure in failures)


def test_check_seed_is_picklable_and_deterministic():
    assert campaign.check_seed(3) == campaign.check_seed(3)
    seed, summary = campaign.check_seed(3)
    assert seed == 3
    assert summary is None


def test_check_seed_serial_and_pooled_agree():
    arguments = [(seed, 4) for seed in range(6)]
    serial = supervised_map(campaign.check_seed, arguments, jobs=None)
    pooled = supervised_map(campaign.check_seed, arguments, jobs=2)
    assert serial == pooled
    assert [seed for seed, _ in serial] == list(range(6))


def test_parallel_map_preserves_order_with_plain_fn():
    """The pooled path hands results back in input order."""
    assert supervised_map(
        _double, [(value,) for value in range(10)], jobs=2
    ) == [value * 2 for value in range(10)]


def _double(value):
    return value * 2
