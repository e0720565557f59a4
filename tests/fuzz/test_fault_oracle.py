"""Oracle stage 6: fault-outcome identity over fuzzer-generated programs."""

import itertools

import pytest

from repro.fuzz.generator import generate_recipe
from repro.fuzz.oracle import OracleViolation, check_fault_identity, check_recipe
from repro.partition.strategies import Strategy


@pytest.mark.parametrize("seed", (0, 1, 2))
def test_fault_stage_passes_on_generated_programs(seed):
    """check_recipe with a fault_seed runs the full oracle plus the
    fault-identity stage; generated programs must classify identically
    on every backend under every strategy."""
    recipe = generate_recipe(seed, max_statements=4)
    report = check_recipe(recipe, fault_seed=seed)
    assert report.cycles  # the base oracle ran too


def test_fault_stage_only_on_request():
    """Without a fault_seed the oracle behaves exactly as before (no
    fault runs at all) — checked by the stage raising nothing even if
    the faults package is broken for this recipe shape."""
    recipe = generate_recipe(5, max_statements=3)
    assert check_recipe(recipe).cycles


def test_divergent_classification_raises(monkeypatch):
    """Force the comparable() projection to differ per call: the stage
    must raise a fault-identity violation with the recipe attached."""
    from repro.faults import experiment

    counter = itertools.count()
    monkeypatch.setattr(
        experiment, "comparable", lambda result: next(counter)
    )
    recipe = generate_recipe(0, max_statements=3)
    with pytest.raises(OracleViolation) as excinfo:
        check_fault_identity(
            recipe, 0, strategies=(Strategy.SINGLE_BANK,),
            backends=("interp", "jit"),
        )
    assert excinfo.value.stage == "fault-identity"
    assert excinfo.value.recipe is recipe
