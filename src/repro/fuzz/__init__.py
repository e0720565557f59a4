"""Differential fuzzing: generative coverage for the whole pipeline.

The reproduction's correctness story rests on two equivalence surfaces:

* every allocation strategy (None/CB/Pr/Dup/Ideal) must preserve program
  semantics — only cycle counts may change;
* both simulator backends (reference interpreter and threaded code) must
  be bit-identical on every program.

This package guards both generatively instead of by hand-picked cases:

:mod:`repro.fuzz.generator`
    a seeded, serializable recipe grammar driving
    :class:`~repro.frontend.ProgramBuilder` (nested loops, conditionals,
    calls, local/global arrays, duplicated-array store patterns,
    interrupt toggling);
:mod:`repro.fuzz.oracle`
    compiles each recipe under every strategy x every backend and checks
    result equality, cycle ordering, and duplicated-copy coherence;
:mod:`repro.fuzz.shrink`
    recipe-level delta debugging that minimizes a failing case and emits
    a ready-to-paste pytest regression;
:mod:`repro.fuzz.campaign`
    the ``python -m repro fuzz`` driver fanning seeds over worker
    processes and writing failures to ``tests/fuzz_corpus/``.
"""

from repro.fuzz.generator import (
    Recipe,
    build_module,
    generate_recipe,
    statement_count,
)
from repro.fuzz.oracle import ORACLE_STRATEGIES, OracleViolation, check_recipe
from repro.fuzz.shrink import emit_regression, shrink_recipe

__all__ = [
    "ORACLE_STRATEGIES",
    "OracleViolation",
    "Recipe",
    "build_module",
    "check_recipe",
    "emit_regression",
    "generate_recipe",
    "shrink_recipe",
    "statement_count",
]
