"""Interrupt injection for validating duplicated-data consistency.

Paper Section 3.2 observes that an interrupt arriving between the two
stores of a duplicated-data update could observe (or create) divergent
copies, and proposes a store-lock / store-unlock pair.  The duplication
transform emits exactly that pair when ``interrupt_safe`` is set, and the
simulator refuses to deliver interrupts while the lock window is open.

:class:`InterruptInjector` is a test harness: installed as the simulator's
``interrupt_hook``, it fires at a configurable cadence and, on each
delivery, checks that every duplicated global's X and Y copies agree —
and can optionally *write* to a duplicated global through both copies,
modelling an interrupt handler that feeds external data to the program.

Cadence protocol (used by the ``jit`` backend, see
:mod:`repro.sim.loopjit`; hooked ``batch`` lanes run on ``jit``): a
hook may advertise an integer ``cadence`` attribute, promising that
calls on cycles where ``cycle % cadence != 0`` are no-ops.  A
cadence-advertising hook lets the loop-specializing backend
fast-forward whole loop iterations between delivery cycles,
synchronizing simulator state only at the cycles where the hook can
actually observe something.  Such hooks may read and write memory and
registers at delivery points but must not redirect ``pc``; hooks
without a cadence are called after every cycle on every backend
(``interp``'s loop, ``jit``'s stepped loop).
"""

from repro.ir.symbols import MemoryBank


class DuplicateDivergenceError(AssertionError):
    """Two copies of a duplicated symbol were observed out of sync."""


class InterruptInjector:
    """Fires every *period* cycles; verifies duplicated-copy coherence."""

    def __init__(self, module, period=7, writer=None):
        self.period = period
        #: optional callable ``writer(simulator, cycle)`` run on delivery
        self.writer = writer
        self.delivered = 0
        self.checked_symbols = [
            s.name
            for s in module.globals
            if s.bank is MemoryBank.BOTH
        ]

    @property
    def cadence(self):
        """Delivery period advertised to cadence-aware backends: this
        hook is a no-op whenever ``cycle % period != 0`` (the early
        return in :meth:`__call__`), never redirects ``pc``, and only
        reads state — exactly the contract :mod:`repro.sim.loopjit`
        requires to skip the intervening cycles."""
        return self.period

    def __call__(self, simulator, cycle):
        if cycle % self.period:
            return
        self.delivered += 1
        for name in self.checked_symbols:
            copy_x = simulator.read_global_copy(name, MemoryBank.X)
            copy_y = simulator.read_global_copy(name, MemoryBank.Y)
            if copy_x != copy_y:
                raise DuplicateDivergenceError(
                    "interrupt at cycle %d observed %s diverged" % (cycle, name)
                )
        if self.writer is not None:
            self.writer(simulator, cycle)
