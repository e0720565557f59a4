"""Job validation and the error taxonomy: malformed submissions are
named precisely, and every exception lands in exactly one category."""

import pytest

from repro.serve import protocol
from repro.serve.protocol import JobError, validate_job
from repro.sim.errors import InternalError, MachineError, ProgramError


def _run_job(**overrides):
    job = {"kind": "run", "workload": "fir_32_1"}
    job.update(overrides)
    return job


# ---------------------------------------------------------------------
# validate_job
# ---------------------------------------------------------------------
def test_defaults_are_filled_in():
    job = validate_job(_run_job())
    assert job["strategy"] == "CB"
    assert job["backend"] == "interp"
    assert job["writes"] == {}
    assert job["reads"] == []
    assert "id" not in job  # the service assigns one


def test_explicit_fields_survive():
    job = validate_job(_run_job(
        id=17, strategy="CB_DUP", backend="fast",
        writes={"x": [1, 2]}, reads=["y"],
    ))
    assert job["id"] == "17"  # ids normalize to strings
    assert job["strategy"] == "CB_DUP"
    assert job["backend"] == "jit"  # the retired `fast` is a wire alias
    assert job["writes"] == {"x": [1, 2]}
    assert job["reads"] == ["y"]


@pytest.mark.parametrize(
    "overrides, field",
    [
        ({"kind": "nope"}, "kind"),
        ({"strategy": "WARP"}, "strategy"),
        ({"partitioner": "magic"}, "partitioner"),
        ({"backend": "gpu"}, "backend"),
        ({"workload": ""}, "workload"),
        ({"workload": "not_a_workload"}, "workload"),
        ({"writes": [1, 2]}, "writes"),
        ({"reads": "y"}, "reads"),
        ({"partitioner": "anneal"}, "partitioner"),
        # every job compiles with greedy: the field itself is retired
        ({"partitioner": "greedy"}, "partitioner"),
        ({"partitioner": "exact"}, "partitioner"),
    ],
)
def test_bad_fields_are_named(overrides, field):
    with pytest.raises(JobError) as info:
        validate_job(_run_job(**overrides))
    assert info.value.field == field


def test_unknown_top_level_fields_are_named_not_dropped():
    with pytest.raises(JobError) as info:
        validate_job(_run_job(retriez=3))
    assert info.value.field == "retriez"
    assert "retriez" in str(info.value)
    # several typos: the first (sorted) is the named culprit, all appear
    with pytest.raises(JobError) as info:
        validate_job(_run_job(zz=1, aa=2))
    assert info.value.field == "aa"
    assert "zz" in str(info.value)


@pytest.mark.parametrize("bad", [-5, 0, True, False, "soon", None, [100]])
def test_deadline_ms_must_be_a_positive_number(bad):
    with pytest.raises(JobError) as info:
        validate_job(_run_job(deadline_ms=bad))
    assert info.value.field == "deadline_ms"


def test_deadline_ms_normalizes_to_float():
    assert validate_job(_run_job(deadline_ms=1500))["deadline_ms"] == 1500.0
    assert validate_job(_run_job(deadline_ms=0.5))["deadline_ms"] == 0.5


def test_recipe_jobs_need_a_recipe_dict():
    with pytest.raises(JobError) as info:
        validate_job({"kind": "recipe", "recipe": "seed=3"})
    assert info.value.field == "recipe"
    for recipe in (
        {},  # neither a body nor a generator seed names no program
        # a full recipe that does not parse
        {"body": 42},
        {"arrays": [4], "body": 42},
        {"arrays": "x", "body": []},
        # a generator spec asking for too much work, or not a count
        {"seed": 3, "max_statements": protocol.MAX_GENERATED_STATEMENTS + 1},
        {"seed": 3, "max_statements": 0},
        {"seed": 3, "max_statements": "x"},
        {"seed": 3, "max_statements": True},
        # a seed the generator cannot use, or that draws a new program
        # on every run
        {"seed": [1]},
        {"seed": None},
        {"seed": True},
    ):
        with pytest.raises(JobError) as info:
            validate_job({"kind": "recipe", "recipe": recipe})
        assert info.value.field == "recipe", recipe
    job = validate_job({"kind": "recipe", "recipe": {"seed": 3}})
    assert job["recipe"] == {"seed": 3}
    largest = {"seed": 3, "max_statements": protocol.MAX_GENERATED_STATEMENTS}
    assert validate_job({"kind": "recipe", "recipe": largest})["recipe"] is largest
    # a full recipe is kept exactly as sent, so job keys do not move
    sent = {"arrays": [4], "body": [], "extra": 1}
    assert validate_job({"kind": "recipe", "recipe": sent})["recipe"] is sent


def test_full_recipes_are_bounded_like_generator_specs():
    from repro.fuzz.generator import generate_recipe, statement_count

    # the largest generated recipe at the generator-spec bound, over
    # seeds 0..19,999, passes as a full recipe
    largest = generate_recipe(8566, protocol.MAX_GENERATED_STATEMENTS)
    assert statement_count(largest) == 124
    sent = largest.to_dict()
    assert validate_job({"kind": "recipe", "recipe": sent})["recipe"] is sent
    # a recipe a generator spec could not ask for is refused up front
    huge = generate_recipe(3, max_statements=1024)
    assert statement_count(huge) > protocol.MAX_RECIPE_STATEMENTS
    with pytest.raises(JobError) as info:
        validate_job({"kind": "recipe", "recipe": huge.to_dict()})
    assert info.value.field == "recipe"
    assert "at most %d statements" % protocol.MAX_RECIPE_STATEMENTS in str(
        info.value
    )
    # the bound counts nested bodies and helpers, not just the top level
    scalar = ["scalar", 0, 1]
    loop = ["loop", 0, [scalar, scalar]]
    limit = protocol.MAX_RECIPE_STATEMENTS
    at_limit = {"arrays": [4], "helpers": [[scalar]], "body": [loop] * 151}
    assert 3 * 151 + 1 == limit
    validate_job({"kind": "recipe", "recipe": at_limit})
    over = dict(at_limit, helpers=[[scalar, scalar]])
    with pytest.raises(JobError) as info:
        validate_job({"kind": "recipe", "recipe": over})
    assert info.value.field == "recipe"


def test_decode_rejects_non_objects_and_bad_json():
    with pytest.raises(JobError):
        protocol.decode(b"[1, 2, 3]\n")
    with pytest.raises(JobError):
        protocol.decode(b"{broken\n")
    assert protocol.decode(b'{"kind": "stats"}\n') == {"kind": "stats"}


def test_encode_decode_round_trip():
    event = {"event": "result", "id": "j1", "cycles": 69}
    line = protocol.encode(event)
    assert line.endswith(b"\n")
    assert protocol.decode(line) == event


# ---------------------------------------------------------------------
# Error taxonomy
# ---------------------------------------------------------------------
def test_job_error_maps_to_protocol_category():
    event = protocol.error_event("j", JobError("bad writes", field="writes"))
    assert event["category"] == "protocol"
    assert event["field"] == "writes"
    assert event["event"] == "error"


def test_simulator_taxonomy_is_carried_through():
    program_fault = ProgramError("div by zero")
    program_fault.pc = 12
    program_fault.cycle = 40
    event = protocol.error_event("j", program_fault)
    assert event["category"] == "program"
    assert event["pc"] == 12 and event["cycle"] == 40

    assert protocol.error_event("j", MachineError("bank clash"))[
        "category"
    ] == "machine"
    assert protocol.error_event("j", InternalError("bug"))[
        "category"
    ] == "internal"


def test_unknown_exceptions_are_internal():
    event = protocol.error_event(None, RuntimeError("surprise"))
    assert event["category"] == "internal"
    assert event["kind"] == "RuntimeError"


def test_deadline_event_shape():
    event = protocol.deadline_event("j", "expired before dispatch")
    assert event["category"] == "deadline"
    assert event["kind"] == "DeadlineExceeded"
    assert "attempts" not in event
    with_attempts = protocol.deadline_event("j", "terminated", attempts=3)
    assert with_attempts["attempts"] == 3


def test_error_event_from_description_preserves_context():
    event = protocol.error_event_from_description("j", {
        "kind": "MemoryFault", "message": "oob", "category": "program",
        "pc": 7, "cycle": 3, "backend": "fast",
    })
    assert event["category"] == "program"
    assert (event["pc"], event["cycle"], event["backend"]) == (7, 3, "fast")
    fallback = protocol.error_event_from_description("j", {})
    assert fallback["category"] == "internal"
