"""Interrupt injection for validating duplicated-data consistency.

Paper Section 3.2 observes that an interrupt arriving between the two
stores of a duplicated-data update could observe (or create) divergent
copies, and proposes a store-lock / store-unlock pair.  The duplication
transform emits exactly that pair when ``interrupt_safe`` is set, and the
simulator refuses to deliver interrupts while the lock window is open.

:class:`InterruptInjector` is a test harness: installed as the simulator's
``interrupt_hook``, it fires every *period* cycles and, on each
delivery, checks that every duplicated global's X and Y copies agree —
and can optionally *write* to a duplicated global through both copies,
modelling an interrupt handler that feeds external data to the program.

Every backend calls a hook after every cycle outside a store-lock
window (``interp``'s loop, the stepped loop ``jit`` and hooked
``batch`` lanes run), so a hook sees exactly the same cycles and state
everywhere; it may read and write memory and registers and may
redirect ``pc``.
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
