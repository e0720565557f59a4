"""Deterministic fault injection and resilience campaigns.

The subsystem ISSUE 5 adds on top of the paper's duplication story:

* :mod:`repro.faults.plan` — seeded, JSON-serializable
  :class:`~repro.faults.plan.FaultPlan` schedules (bank/global bit
  flips, register corruption, stuck-bank windows, delivery jitter);
* :mod:`repro.faults.injector` — delivers a plan through the simulator's
  interrupt-hook protocol (bit-identical on the ``interp``/``jit``/
  ``batch`` backends) and cross-checks duplicated copies at every
  delivery;
* :mod:`repro.faults.experiment` — classifies each faulted run
  (masked / detected / silent / crash / hang) against a fault-free
  reference;
* :mod:`repro.faults.campaign` / :mod:`repro.faults.report` — the
  supervised, journal-resumable campaign behind ``repro faults`` and
  its markdown/JSON resilience report.
"""

from repro.faults.injector import FaultInjector, perturb
from repro.faults.plan import FaultPlan, generate_plan

__all__ = ["FaultInjector", "FaultPlan", "generate_plan", "perturb"]
