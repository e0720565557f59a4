"""Guard: a new partitioner cannot be registered half-way.

Every entry in :data:`repro.partition.registry.PARTITIONERS` must be
covered by the fuzz oracle's partitioner-identity stage and must honour
the uniform ``(graph, *, seed)`` construction contract — otherwise a
partitioner could ship without differential coverage or without the
one-seed determinism story.  The partitioner is a compiler option and a
measuring instrument (``repro partition-gap``), not a user option: no
CLI command may take ``--partitioner``.
"""

import argparse
import inspect

import pytest

from repro import __main__ as cli
from repro.fuzz.oracle import ORACLE_PARTITIONERS
from repro.ir.symbols import Symbol
from repro.partition.greedy import PartitionResult
from repro.partition.interference import InterferenceGraph
from repro.partition.registry import (
    DEFAULT_PARTITIONER,
    PARTITIONERS,
    make_partitioner,
)


def test_no_cli_command_takes_a_partitioner():
    """The exact cut changes no cycle count the evaluation reports, so
    no command offers a partitioner choice."""
    parser = cli.build_parser()
    subparsers = next(
        action
        for action in parser._actions
        if isinstance(action, argparse._SubParsersAction)
    )
    offending = sorted(
        name
        for name, command in subparsers.choices.items()
        if any("--partitioner" in action.option_strings
               for action in command._actions)
    )
    assert not offending, (
        "CLI command(s) %s take --partitioner" % offending
    )
    with pytest.raises(SystemExit):
        parser.parse_args(["run", "trellis", "--partitioner", "exact"])


def test_every_partitioner_is_oracle_covered():
    missing = set(PARTITIONERS) - set(ORACLE_PARTITIONERS)
    assert not missing, (
        "partitioner(s) %s registered in PARTITIONERS but absent from the "
        "fuzz oracle's partitioner-identity stage (ORACLE_PARTITIONERS)"
        % sorted(missing)
    )
    unknown = set(ORACLE_PARTITIONERS) - set(PARTITIONERS)
    assert not unknown, (
        "oracle names unregistered partitioner(s) %s" % sorted(unknown)
    )


def test_partitioner_classes_implement_the_registry_contract():
    """Uniform construction — ``cls(graph, *, seed=...)`` — and a
    ``partitioner_name`` matching the registry key, so one campaign seed
    can steer every entry identically."""
    for name, cls in PARTITIONERS.items():
        assert getattr(cls, "partitioner_name", None) == name
        signature = inspect.signature(cls.__init__)
        parameters = list(signature.parameters.values())
        # self, graph positionally; seed keyword-only with a default
        assert parameters[1].kind in (
            inspect.Parameter.POSITIONAL_ONLY,
            inspect.Parameter.POSITIONAL_OR_KEYWORD,
        ), name
        seed = signature.parameters.get("seed")
        assert seed is not None, "%s lacks the seed keyword" % name
        assert seed.kind is inspect.Parameter.KEYWORD_ONLY, name
        assert seed.default == 0, name


def test_every_partitioner_returns_the_partition_result_shape():
    symbols = [Symbol("s%d" % i, size=1) for i in range(4)]
    for name in PARTITIONERS:
        graph = InterferenceGraph()
        for sym in symbols:
            graph.add_node(sym)
        graph.add_edge(symbols[0], symbols[1], 3)
        graph.add_edge(symbols[2], symbols[3], 2)
        result = make_partitioner(graph, name, seed=7).partition()
        assert isinstance(result, PartitionResult), name
        assert result.final_cost == 0, name


def test_default_partitioner_is_registered():
    assert DEFAULT_PARTITIONER in PARTITIONERS
    assert DEFAULT_PARTITIONER == "greedy"  # the paper's heuristic


def test_make_partitioner_rejects_unknown_names():
    graph = InterferenceGraph()
    with pytest.raises(ValueError, match="unknown partitioner"):
        make_partitioner(graph, "metis")
