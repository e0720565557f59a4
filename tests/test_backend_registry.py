"""Guard: a new simulator backend cannot be registered half-way.

Every entry in :data:`repro.sim.BACKENDS` must be selectable from every
CLI command that takes ``--backend``, accepted by the serve protocol,
and covered by the fuzz oracle's backend-identity stage — otherwise a
backend could ship without differential coverage against the reference
interpreter.
"""

import argparse

from repro import __main__ as cli
from repro.fuzz.oracle import ORACLE_BACKENDS
from repro.serve.protocol import JobError, validate_job
from repro.sim import BACKENDS
from repro.sim.fastsim import FastSimulator
from repro.sim.simulator import Simulator


def _backend_choices_by_command():
    """Map CLI command name -> choices of its ``--backend`` option."""
    parser = cli.build_parser()
    subparsers = next(
        action
        for action in parser._actions
        if isinstance(action, argparse._SubParsersAction)
    )
    found = {}
    for name, command in subparsers.choices.items():
        for action in command._actions:
            if "--backend" in action.option_strings:
                found[name] = set(action.choices)
    return found


def _protocol_accepts(backend):
    try:
        validate_job({"kind": "run", "workload": "fir_32_1",
                      "backend": backend})
    except JobError:
        return False
    return True


def test_protocol_accepts_the_registry_plus_the_fast_alias():
    candidates = set(BACKENDS) | {"fast", "turbo", "FAST", "", None}
    accepted = {name for name in candidates if _protocol_accepts(name)}
    assert accepted == set(BACKENDS) | {"fast"}


def test_every_backend_is_a_cli_choice_everywhere():
    by_command = _backend_choices_by_command()
    # the commands that simulate must all expose --backend
    for command in ("run", "compare", "figure7", "figure8", "table3",
                    "report", "fuzz", "faults"):
        assert command in by_command, "%s lost its --backend option" % command
    for command, choices in by_command.items():
        missing = set(BACKENDS) - choices
        assert not missing, (
            "backend(s) %s registered in BACKENDS but not selectable via "
            "`%s --backend`" % (sorted(missing), command)
        )
        assert "fast" not in choices, command


def test_every_backend_is_oracle_covered():
    missing = set(BACKENDS) - set(ORACLE_BACKENDS)
    assert not missing, (
        "backend(s) %s registered in BACKENDS but absent from the fuzz "
        "oracle's backend-identity stage (ORACLE_BACKENDS)" % sorted(missing)
    )
    unknown = set(ORACLE_BACKENDS) - set(BACKENDS)
    assert not unknown, "oracle names unregistered backend(s) %s" % sorted(
        unknown
    )


def test_backend_classes_implement_the_simulator_contract():
    assert set(BACKENDS) == {"interp", "jit", "batch"}
    for name, cls in BACKENDS.items():
        assert issubclass(cls, Simulator), name
        assert getattr(cls, "backend_name", None) == name or cls is Simulator
    # the registry's compiled entries all share the fastsim codegen base,
    # which is not itself a backend
    assert issubclass(BACKENDS["jit"], FastSimulator)
    assert issubclass(BACKENDS["batch"], FastSimulator)
    assert FastSimulator not in BACKENDS.values()
