"""Tier-1 smoke for the oracle's partitioner-identity stage.

25 seeded random programs through every registered partitioner: the
partitioned strategies must match the sequential reference, keep both
duplicate copies coherent, stay inside the ``Ideal <= strategy <= None``
cycle bounds, and produce bit-identical observable state whichever
partitioner placed the data.  ``python -m repro fuzz`` extends the same
check to thousands of seeds out of band.
"""

import pytest

from repro.fuzz.generator import generate_recipe
from repro.fuzz.oracle import (
    ORACLE_PARTITIONERS,
    OracleViolation,
    check_partitioner_identity,
)

SMOKE_SEEDS = range(25)


@pytest.mark.parametrize("seed", SMOKE_SEEDS)
def test_partitioner_stage_clean_on_seed(seed):
    """The stage alone (the full oracle runs it too, via check_recipe in
    tests/fuzz/test_fuzz_smoke.py; running it directly keeps the failure
    domain small when only this stage breaks)."""
    check_partitioner_identity(generate_recipe(seed))


def test_violation_reports_the_partitioner_stage():
    """A partitioner that corrupted semantics would be named in the
    violation.  Simulate one by tampering with the reference state."""
    import repro.fuzz.oracle as oracle_module

    recipe = generate_recipe(1)
    original = oracle_module._reference_state

    def tampered(recipe_arg):
        state = original(recipe_arg)
        name = next(iter(state))
        state[name] = "corrupted"
        return state

    oracle_module._reference_state = tampered
    try:
        with pytest.raises(OracleViolation) as caught:
            check_partitioner_identity(recipe)
    finally:
        oracle_module._reference_state = original
    assert caught.value.stage == "partitioner-identity"
    assert "[" in str(caught.value)  # names strategy[partitioner]


def test_all_registry_partitioners_in_stage_default():
    from repro.partition.registry import PARTITIONERS

    assert set(ORACLE_PARTITIONERS) == set(PARTITIONERS)
