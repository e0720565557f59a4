"""Deterministic chaos testing for the serve path.

:mod:`repro.chaos.plan` draws seeded, JSON-serializable
:class:`~repro.chaos.plan.ChaosPlan` campaigns (kill/restart cycles,
store sabotage, protocol abuse); :mod:`repro.chaos.harness` drives a
live ``repro serve`` subprocess through one and asserts the
crash-safety invariants — no accepted job lost, no job executed twice,
replays bit-identical to direct execution, recovery inside its budget.
``repro chaos`` is the CLI entry point; ``tests/chaos/test_harness.py``
holds seeded campaigns to those invariants.
"""

from repro.chaos.harness import render_chaos, run_chaos
from repro.chaos.plan import ChaosPlan, generate_plan

__all__ = ["ChaosPlan", "generate_plan", "run_chaos", "render_chaos"]
