"""FaultPlan: seeded generation, serialization, and arming rules."""

import pytest

from repro.faults.injector import FaultInjector
from repro.faults.plan import (
    CADENCES,
    EVENT_KINDS,
    FaultPlan,
    generate_plan,
)


def test_generate_plan_is_deterministic():
    first = generate_plan(42, events=5, horizon=500)
    second = generate_plan(42, events=5, horizon=500)
    assert first == second
    assert first.to_json() == second.to_json()
    assert hash(first) == hash(second)


def test_different_seeds_draw_different_plans():
    plans = {generate_plan(seed, events=4, horizon=500).to_json()
             for seed in range(8)}
    assert len(plans) > 1


def test_generated_events_are_well_formed():
    plan = generate_plan(7, events=10, horizon=300)
    assert plan.cadence in CADENCES
    assert len(plan.events) == 10
    cycles = []
    for event in plan.events:
        assert event[0] in EVENT_KINDS
        assert 1 <= event[1] < 300
        cycles.append(event[1])
    # events come sorted by cycle so the injector's cursor never skips
    assert cycles == sorted(cycles)


def test_json_round_trip():
    plan = generate_plan(3, events=4, horizon=200)
    clone = FaultPlan.from_json(plan.to_json())
    assert clone == plan
    assert clone.events == plan.events
    assert clone.cadence == plan.cadence
    assert clone.seed == plan.seed


def test_from_dict_rejects_unknown_version():
    data = generate_plan(1).to_dict()
    data["version"] = 999
    with pytest.raises(ValueError):
        FaultPlan.from_dict(data)


def test_explicit_cadence_is_honoured():
    plan = generate_plan(5, cadence=11, horizon=100)
    assert plan.cadence == 11


def test_for_plan_disarms_empty_plans():
    """None / event-less plans install no hook at all — the structural
    guarantee that fault injection costs nothing when no plan is armed."""
    assert FaultInjector.for_plan(None) is None
    assert FaultInjector.for_plan(FaultPlan(seed=0, events=[])) is None
    armed = FaultInjector.for_plan(generate_plan(0))
    assert armed is not None
    assert armed.plan.cadence in CADENCES
