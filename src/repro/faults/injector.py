"""The fault injector: an interrupt hook that delivers a fault plan.

:class:`FaultInjector` delivers the events of one
:class:`~repro.faults.plan.FaultPlan` through the simulator's existing
interrupt-hook protocol (documented in :mod:`repro.sim.interrupts`):
it delivers every ``plan.cadence`` cycles, is a strict no-op in
between, reads and writes memory/registers at delivery points, and
never redirects ``pc``.  Riding the hook protocol is what makes
injection bit-identical on all three backends: every backend calls the
hook after every cycle, and the delivery cycles themselves are already
proven identical by the interrupt test suite.

Semantics per delivery (in order, all deterministic):

1. *stuck windows*: every open window re-imposes its snapshot on its
   bank region (the bank "returns stale values"); expired windows close.
   Delivery-point granularity: between deliveries the bank behaves
   normally — the model is a periodic-refresh corruption, not a
   cycle-accurate bus fault;
2. *due events*: every plan event with ``event cycle <= current cycle``
   that has not fired yet fires now (first delivery at or after its
   scheduled cycle), clamped to the program's real sizes;
3. *dup cross-check*: the X and Y images of every duplicated global are
   compared.  A divergence is recorded as a *detection* and — by
   default — repaired by copying X over Y (a deterministic recovery
   policy standing in for the paper's redundant-copy readback).

Because faults land only at delivery points and hooks never fire inside
a store-lock window, injection composes with the paper's
store-lock/store-unlock protocol exactly like a real interrupt would.
"""

from repro.faults.plan import FaultPlan
from repro.ir.symbols import MemoryBank
from repro.ir.types import RegClass
from repro.sim.simulator import _BANK_INDEX, _BANK_X, _BANK_Y

#: register classes addressable by ``reg`` events, in event order
_REG_CLASSES = (RegClass.ADDR, RegClass.INT, RegClass.FLOAT)


def perturb(value, bit):
    """Deterministically corrupt one machine word.

    Integers get a genuine single-bit flip (XOR with ``1 << bit``).
    Floats are Python doubles standing in for DSP accumulator words, so
    a literal bit flip is not portable; instead bit 15 flips the sign
    and any other bit adds ``2**bit`` — a fixed, architecture-neutral
    perturbation of comparable magnitude.  Non-numeric values (never
    produced by the simulator, but journals may replay odd states) pass
    through unchanged.
    """
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        return value
    if isinstance(value, int):
        return value ^ (1 << bit)
    if bit == 15:
        return -value
    return value + float(1 << bit)


class FaultInjector:
    """Delivers one :class:`~repro.faults.plan.FaultPlan` through the
    interrupt-hook protocol and cross-checks duplicated copies.

    One injector serves one run: it binds to the first simulator it is
    called with and accumulates that run's delivery/application/
    detection record (read by the outcome classifier in
    :mod:`repro.faults.experiment`).
    """

    def __init__(self, plan, repair=True):
        self.plan = plan
        #: copy X over Y when a dup divergence is detected (keeps the
        #: run deterministic after detection; False leaves the
        #: corruption in place so it can propagate)
        self.repair = repair
        #: hook deliveries that actually ran (on-cadence calls)
        self.delivered = 0
        #: deliveries suppressed by jitter events
        self.suppressed = 0
        #: events applied, as ``[cycle, kind, detail...]`` records
        self.applied = []
        #: dup divergences observed, as ``[cycle, symbol]`` records
        self.detections = []
        #: divergences repaired (== detections when ``repair``)
        self.repairs = 0
        self._events = sorted(
            (list(event) for event in plan.events),
            key=lambda event: event[1],
        )
        self._cursor = 0
        self._skip = 0
        #: open stuck windows: [expires_cycle, bank_index, base, snapshot]
        self._windows = []
        self._simulator = None
        self._checked = ()

    @classmethod
    def for_plan(cls, plan, repair=True):
        """Injector for *plan*, or ``None`` when the plan is disarmed.

        ``None`` / event-less plans install **no hook at all**, so the
        simulator keeps its fused no-hook path: fault injection
        costs nothing when no plan is armed.
        """
        if plan is None or not plan.events:
            return None
        return cls(plan, repair=repair)

    # ------------------------------------------------------------------
    def _bind(self, simulator):
        self._simulator = simulator
        module = simulator.program.module
        self._symbols = list(module.globals)
        self._checked = [
            symbol.name
            for symbol in self._symbols
            if symbol.bank is MemoryBank.BOTH
        ]

    def __call__(self, simulator, cycle):
        if cycle % self.plan.cadence:
            return
        if self._simulator is not simulator:
            self._bind(simulator)
        self.delivered += 1
        if self._skip:
            self._skip -= 1
            self.suppressed += 1
            return
        self._refresh_windows(simulator, cycle)
        events = self._events
        while self._cursor < len(events) and events[self._cursor][1] <= cycle:
            self._apply(simulator, cycle, events[self._cursor])
            self._cursor += 1
        self._check_duplicates(simulator, cycle)

    # ------------------------------------------------------------------
    def _refresh_windows(self, simulator, cycle):
        """Re-impose every open stuck window's snapshot; close expired
        ones."""
        if not self._windows:
            return
        live = []
        for window in self._windows:
            expires, bank_index, base, snapshot = window
            if cycle <= expires:
                simulator.memory[bank_index][base : base + len(snapshot)] = (
                    snapshot
                )
                live.append(window)
        self._windows = live

    def _apply(self, simulator, cycle, event):
        """Arm one plan event against the bound simulator, clamping all
        coordinates to the program's actual sizes."""
        kind = event[0]
        if kind == "glob":
            symbols = self._symbols
            if not symbols:
                return
            symbol = symbols[int(event[2]) % len(symbols)]
            element = int(event[3]) % symbol.size
            bit = int(event[4]) % 16
            bank, base = simulator.program.layout.address_of(symbol.name)
            if bank is MemoryBank.BOTH:
                bank_index = int(event[5]) % 2
            else:
                bank_index = _BANK_INDEX[bank]
            memory = simulator.memory[bank_index]
            address = base + element
            memory[address] = perturb(memory[address], bit)
            self.applied.append(
                [cycle, "glob", symbol.name, element, bit, bank_index]
            )
        elif kind == "bank":
            bank_index = int(event[2]) % 2
            size = simulator.data_size[bank_index]
            if not size:
                return
            address = int(event[3]) % size
            bit = int(event[4]) % 16
            memory = simulator.memory[bank_index]
            memory[address] = perturb(memory[address], bit)
            self.applied.append([cycle, "bank", bank_index, address, bit])
        elif kind == "reg":
            rclass = _REG_CLASSES[int(event[2]) % len(_REG_CLASSES)]
            index = int(event[3]) % 32
            bit = int(event[4]) % 16
            rfile = simulator.registers[rclass]
            rfile[index] = perturb(rfile[index], bit)
            self.applied.append([cycle, "reg", rclass.name, index, bit])
        elif kind == "stuck":
            bank_index = int(event[2]) % 2
            size = simulator.data_size[bank_index]
            if not size:
                return
            base = int(event[3]) % size
            length = max(1, min(int(event[4]), size - base))
            window = max(self.plan.cadence, int(event[5]))
            snapshot = list(
                simulator.memory[bank_index][base : base + length]
            )
            self._windows.append([cycle + window, bank_index, base, snapshot])
            self.applied.append([cycle, "stuck", bank_index, base, length])
        elif kind == "jitter":
            skip = 1 + int(event[2]) % 4
            self._skip += skip
            self.applied.append([cycle, "jitter", skip])

    def _check_duplicates(self, simulator, cycle):
        """Cross-check (and optionally repair) every duplicated global's
        two bank images — the detection layer the resilience report
        scores."""
        for name in self._checked:
            copy_x = simulator.read_global_copy(name, MemoryBank.X)
            copy_y = simulator.read_global_copy(name, MemoryBank.Y)
            if copy_x != copy_y:
                self.detections.append([cycle, name])
                if self.repair:
                    _bank, base = simulator.program.layout.address_of(name)
                    size = len(copy_x)
                    simulator.memory[_BANK_Y][base : base + size] = (
                        simulator.memory[_BANK_X][base : base + size]
                    )
                    self.repairs += 1

    def record(self):
        """JSON-able summary of what this run's injector observed."""
        return {
            "delivered": self.delivered,
            "suppressed": self.suppressed,
            "applied": [list(entry) for entry in self.applied],
            "detections": [list(entry) for entry in self.detections],
            "repairs": self.repairs,
        }


# re-exported for callers that build plans and injectors together
__all__ = ["FaultInjector", "FaultPlan", "perturb"]
