"""Batched lockstep backend: N instances of one program per dispatch.

Fuzz, fault, and sweep campaigns run thousands of *near-identical*
simulations: the same compiled program over different input data.  The
scalar backends pay full price per instance — simulator construction,
code binding, and one Python dispatch per instruction per instance.
This backend executes N instances ("lanes") of the same program in
lockstep with structure-of-arrays state: every memory cell and register
slot holds either a plain Python scalar (all lanes agree — the common
case) or a NumPy array of shape ``[N]`` holding one value per lane.
One generated step function then executes each instruction once for all
lanes, turning per-lane arithmetic into array operations the way
:mod:`repro.sim.loopjit` turns per-cycle dispatch into native loops.

Bit-identity with the reference interpreter is non-negotiable (the fuzz
oracle diffs final state down to ``repr``), which dictates the value
model:

* integer/address lanes vectorize as ``dtype=object`` arrays of Python
  ints — unbounded precision, no silent int64 wraparound;
* float lanes vectorize as ``float64`` arrays — IEEE-754 doubles, the
  exact representation of a Python float, with ``+ - * /`` bit-equal to
  the scalar operators;
* every vector-hostile form in the generated code (``1 if a < b else
  0``, ``min``/``max``, ``int()``/``float()`` casts, shifts, ``**
  0.5``) is replaced by a helper that reproduces exact Python scalar
  semantics elementwise (see ``_HELPERS``);
* scalars extracted from arrays always pass through ``ndarray.item``,
  which returns genuine Python objects, so ``np.float64`` never leaks
  into scalar state (it would survive ``==`` but break digests).

Divergence protocol (lockstep or fall back): a slab runs in lockstep
only while its lanes agree.  Control inputs — branch conditions, loop
trip counts, effective addresses, return addresses, operands of
non-inlined evaluators — are guarded: a uniform vector collapses back
to a scalar, a truly divergent one raises :class:`_LaneSplit`.  On the
first split (or on a raw Python fault, which may belong to one lane)
:meth:`BatchSimulator.run_batch` abandons the lockstep run and reruns
every lane of the slab from its initial state on its own scalar
:class:`~repro.sim.loopjit.LoopJitSimulator`, all sharing the
program's cached jit code.  A lane's initial state is rebuilt by
replaying the writes that reached it, in arrival order, onto a fresh
simulator with the same construction knobs; writes are the only way a
lane's state changes before the run.  A slab with an interrupt hook
on any lane (fault-arming and interrupt lanes) takes the same per-lane
path up front, where jit runs each hooked lane on its per-cycle stepped
loop, which keeps hook visibility bit-exact by construction.

The regime, measured on the end-to-end lane sweep (``e2ebench/``: 3
uniform kernels x 128 lanes, 24 branchy fuzz recipes x 8 lanes):
lockstep is about 4x faster than per-instance jit when control is
uniform, and a divergent slab costs per-lane jit plus one lockstep
set-up and prefix, 1.1-1.4x of jit on those short 8-lane slabs.  A
lockstep run that finishes never split, so its cycle count and per-pc
counts are exact for every lane.
"""

import numpy as np

from repro.ir.operations import OpCode
from repro.ir.symbols import MemoryBank
from repro.ir.types import RegClass
from repro.sim.fastsim import FastSimulator, _BINARY_EXPR, _UNARY_EXPR
from repro.sim.loopjit import LoopJitSimulator
from repro.sim.simulator import SimulationError, Simulator, _BANK_X, _BANK_Y

_ndarray = np.ndarray


class _LaneSplit(Exception):
    """Lanes disagreed on a control input.

    Deliberately *not* a :class:`SimulationError`: this is the signal
    that ends a lockstep run, never a machine fault, and must not be
    annotated or reported.  :meth:`BatchSimulator.run_batch` catches it
    and reruns the slab per lane.
    """


def _collapse(vector):
    """Uniform vector -> its scalar value; divergent -> :class:`_LaneSplit`.

    ``item()`` (not ``[0]``) so floats come back as Python floats, ints
    as Python ints.  An all-NaN vector never collapses (NaN != NaN), so
    its slab falls back to per-lane scalar runs — the exact per-lane
    semantics, just slower.
    """
    first = vector.item(0)
    if (vector == first).all():
        return first
    raise _LaneSplit()


def _ceq(a, b):
    if a.__class__ is _ndarray or b.__class__ is _ndarray:
        return np.where(a == b, 1, 0).astype(object)
    return 1 if a == b else 0


def _cne(a, b):
    if a.__class__ is _ndarray or b.__class__ is _ndarray:
        return np.where(a != b, 1, 0).astype(object)
    return 1 if a != b else 0


def _clt(a, b):
    if a.__class__ is _ndarray or b.__class__ is _ndarray:
        return np.where(a < b, 1, 0).astype(object)
    return 1 if a < b else 0


def _cle(a, b):
    if a.__class__ is _ndarray or b.__class__ is _ndarray:
        return np.where(a <= b, 1, 0).astype(object)
    return 1 if a <= b else 0


def _cgt(a, b):
    if a.__class__ is _ndarray or b.__class__ is _ndarray:
        return np.where(a > b, 1, 0).astype(object)
    return 1 if a > b else 0


def _cge(a, b):
    if a.__class__ is _ndarray or b.__class__ is _ndarray:
        return np.where(a >= b, 1, 0).astype(object)
    return 1 if a >= b else 0


def _vmin(a, b):
    # np.where(b < a, b, a) reproduces Python min exactly, including
    # min(0.0, -0.0) == 0.0 (first argument wins on ties) and NaN
    # propagation from the first argument only.
    if a.__class__ is _ndarray or b.__class__ is _ndarray:
        return np.where(b < a, b, a)
    return min(a, b)


def _vmax(a, b):
    if a.__class__ is _ndarray or b.__class__ is _ndarray:
        return np.where(b > a, b, a)
    return max(a, b)


def _vshl(a, b):
    if b.__class__ is _ndarray:
        b = _collapse(b)
    if b < 0 and a.__class__ is _ndarray:
        # object arrays raise one array-wide error; pre-empt it with the
        # exact per-lane scalar exception (uniform across the group).
        raise ValueError("negative shift count")
    return a << b


def _vshr(a, b):
    if b.__class__ is _ndarray:
        b = _collapse(b)
    if b < 0 and a.__class__ is _ndarray:
        raise ValueError("negative shift count")
    return a >> b


def _vfdiv(a, b):
    if b.__class__ is _ndarray:
        # a divergent divisor must split (some lanes would raise, some
        # not); a uniform zero divisor raises for every lane, exactly
        # like the scalar backends.
        b = _collapse(b)
    if b == 0 and a.__class__ is _ndarray:
        raise ZeroDivisionError("float division by zero")
    return a / b


def _vftoi(a):
    if a.__class__ is not _ndarray:
        return int(a)
    return np.array([int(v) for v in a.tolist()], dtype=object)


def _vitof(a):
    if a.__class__ is not _ndarray:
        return float(a)
    return np.array([float(v) for v in a.tolist()], dtype=np.float64)


def _vfsqrt(a):
    if a.__class__ is not _ndarray:
        return a ** 0.5
    values = [v ** 0.5 for v in a.tolist()]
    # a negative input yields a complex result in Python (float ** 0.5
    # falls back to complex pow); keep it, on an object array.
    if any(v.__class__ is complex for v in values):
        out = np.empty(len(values), dtype=object)
        for i, v in enumerate(values):
            out[i] = v
        return out
    return np.array(values, dtype=np.float64)


#: helpers every generated function can name, bound through its
#: environment dict (:meth:`BatchSimulator._env`)
_HELPERS = {
    "_ND": _ndarray,
    "_ck": _collapse,
    "_ceq": _ceq,
    "_cne": _cne,
    "_clt": _clt,
    "_cle": _cle,
    "_cgt": _cgt,
    "_cge": _cge,
    "_vmin": _vmin,
    "_vmax": _vmax,
    "_vshl": _vshl,
    "_vshr": _vshr,
    "_vfdiv": _vfdiv,
    "_vftoi": _vftoi,
    "_vitof": _vitof,
    "_vfsqrt": _vfsqrt,
}


def _batch_tables():
    """Vector-safe variants of the scalar expression tables."""
    binary = dict(_BINARY_EXPR)
    unary = dict(_UNARY_EXPR)
    comparators = {
        "_ceq": (OpCode.CMPEQ, OpCode.FCMPEQ, OpCode.ACMPEQ),
        "_cne": (OpCode.CMPNE, OpCode.FCMPNE, OpCode.ACMPNE),
        "_clt": (OpCode.CMPLT, OpCode.FCMPLT, OpCode.ACMPLT),
        "_cle": (OpCode.CMPLE, OpCode.FCMPLE, OpCode.ACMPLE),
        "_cgt": (OpCode.CMPGT, OpCode.FCMPGT, OpCode.ACMPGT),
        "_cge": (OpCode.CMPGE, OpCode.FCMPGE, OpCode.ACMPGE),
    }
    for helper, opcodes in comparators.items():
        for opcode in opcodes:
            binary[opcode] = "%s({a}, {b})" % helper
    for opcode in (OpCode.MIN, OpCode.FMIN):
        binary[opcode] = "_vmin({a}, {b})"
    for opcode in (OpCode.MAX, OpCode.FMAX):
        binary[opcode] = "_vmax({a}, {b})"
    binary[OpCode.SHL] = "_vshl({a}, {b})"
    binary[OpCode.SHR] = "_vshr({a}, {b})"
    binary[OpCode.FDIV] = "_vfdiv({a}, {b})"
    unary[OpCode.ITOF] = "_vitof({a})"
    unary[OpCode.FTOI] = "_vftoi({a})"
    unary[OpCode.FSQRT] = "_vfsqrt({a})"
    return binary, unary


def _lane_scalar(cell, position):
    if cell.__class__ is _ndarray:
        return cell.item(position)
    return cell


class LaneOutcome:
    """Result of one lane of a :meth:`BatchSimulator.run_batch` run.

    Exactly one of ``result`` (a :class:`SimulationResult`) and
    ``error`` (the exception the scalar backend would have raised) is
    set; ``state`` exposes the lane's final architectural state with
    the usual ``read_global`` / ``state_digest`` surface.
    """

    __slots__ = ("lane", "result", "error", "state")

    def __init__(self, lane):
        self.lane = lane
        self.result = None
        self.error = None
        self.state = None

    def __repr__(self):
        status = "error=%r" % self.error if self.error else repr(self.result)
        return "<LaneOutcome lane=%d %s>" % (self.lane, status)


class _LaneView:
    """Scalar projection of one lane of a finished multi-lane run.

    ``read_global`` extracts just the requested cells; the full
    ``memory`` / ``registers`` projections (and therefore
    ``state_digest``) materialize lazily on first touch.
    """

    def __init__(self, group, position):
        self._group = group
        self._position = position
        self.program = group.program
        self.sp = list(group.sp)
        self.sp_min = list(group.sp_min)
        self.pc = group.pc
        self.cycle = group.cycle
        self.halted = group.halted
        self._memory = None
        self._registers = None

    @property
    def memory(self):
        if self._memory is None:
            position = self._position
            self._memory = [
                [_lane_scalar(cell, position) for cell in bank]
                for bank in self._group.memory
            ]
        return self._memory

    @property
    def registers(self):
        if self._registers is None:
            position = self._position
            self._registers = {
                rclass: [_lane_scalar(cell, position) for cell in rfile]
                for rclass, rfile in self._group.registers.items()
            }
        return self._registers

    def read_global(self, name):
        symbol = self.program.module.globals.get(name)
        bank, base = self.program.layout.address_of(name)
        index = _BANK_X if bank in (MemoryBank.X, MemoryBank.BOTH) else _BANK_Y
        position = self._position
        values = [
            _lane_scalar(cell, position)
            for cell in self._group.memory[index][base : base + symbol.size]
        ]
        return values[0] if symbol.size == 1 else values

    def read_global_copy(self, name, bank):
        symbol = self.program.module.globals.get(name)
        _bank, base = self.program.layout.address_of(name)
        position = self._position
        index = {MemoryBank.X: _BANK_X, MemoryBank.Y: _BANK_Y}[bank]
        return [
            _lane_scalar(cell, position)
            for cell in self._group.memory[index][base : base + symbol.size]
        ]

    state_digest = Simulator.state_digest


class BatchSimulator(FastSimulator):
    """Lockstep simulator over ``lanes`` instances of one program.

    With the default ``lanes=1`` this is a drop-in scalar backend (the
    guards never fire on scalar state, so ``run()`` is bit-identical to
    the interpreter by the same construction as ``jit``'s stepped loop,
    which it shares); with ``lanes=N`` seed per-lane inputs via
    :meth:`write_global_lane` and collect per-lane results from
    :meth:`run_batch`.
    """

    backend_name = "batch"

    _binary_expr, _unary_expr = _batch_tables()

    def __init__(self, program, lanes=1, **kwargs):
        if lanes < 1:
            raise ValueError("lanes must be >= 1, got %d" % lanes)
        # the base constructor writes the initializers; a fresh lane
        # simulator writes its own, so they are not logged
        self._writes = None
        super().__init__(program, **kwargs)
        self.lanes = lanes
        self._lane_hooks = {}
        #: every input write in arrival order: (lane or None for all
        #: lanes, global name, values) — replayed by _lane_simulator
        self._writes = []
        #: whether the last run_batch left lockstep for per-lane runs
        self.fell_back = False

    # ------------------------------------------------------------------
    # Codegen hooks (see fastsim)
    # ------------------------------------------------------------------
    def _env(self):
        # generated functions additionally see the lane helpers
        env = super()._env()
        env.update(_HELPERS)
        return env

    def _guard_uniform(self, name, cb):
        cb.reads.append(
            "if %s.__class__ is _ND: %s = _ck(%s)" % (name, name, name)
        )

    def _fallback_expr(self, info, sources, cb):
        # Generic OpInfo.evaluate callables are scalar-only; force each
        # operand uniform (collapse or split) before the call.
        guarded = []
        for source in sources:
            temp = cb.temp()
            cb.reads.append("%s = %s" % (temp, source))
            self._guard_uniform(temp, cb)
            guarded.append(temp)
        return super()._fallback_expr(info, guarded, cb)

    def _do_ret(self):
        # Collapse the return-address cell before super() reads it: a
        # divergent return address must split, not jump.
        if len(self.call_stack) > 1:
            frame = self.call_stack[-1][1]
            slot = self.sp[_BANK_X] + frame.size_x
            cell = self.memory[_BANK_X][slot]
            if cell.__class__ is _ndarray:
                self.memory[_BANK_X][slot] = _collapse(cell)
        return super()._do_ret()

    # ------------------------------------------------------------------
    # Per-lane input
    # ------------------------------------------------------------------
    def set_lane_hook(self, lane, hook):
        """Install an interrupt hook for one lane.

        Hook delivery is inherently per-instance, so a slab with any
        hooked lane runs every lane on its own scalar jit simulator.
        """
        if not 0 <= lane < self.lanes:
            raise ValueError("lane %d out of range" % lane)
        self._lane_hooks[lane] = hook

    def write_global(self, name, values):
        """Write *name* in every lane (see :meth:`Simulator.write_global`)."""
        super().write_global(name, values)
        if self._writes is not None:
            self._log(None, name, values)

    def write_global_lane(self, lane, name, values):
        """Per-lane :meth:`write_global`: set one lane's copy of *name*.

        The touched cells broadcast to ``[lanes]`` vectors on first
        per-lane write; untouched cells stay scalar.
        """
        if not 0 <= lane < self.lanes:
            raise ValueError("lane %d out of range" % lane)
        symbol = self.program.module.globals.get(name)
        if not isinstance(values, (list, tuple)):
            values = [values]
        if len(values) > symbol.size:
            raise ValueError(
                "%d values for %s[%d]" % (len(values), name, symbol.size)
            )
        bank, base = self._global_location(name)
        if bank is MemoryBank.BOTH:
            targets = (_BANK_X, _BANK_Y)
        else:
            targets = (_BANK_X if bank is MemoryBank.X else _BANK_Y,)
        for target in targets:
            memory = self.memory[target]
            for i, value in enumerate(values):
                address = base + i
                cell = memory[address]
                if cell.__class__ is not _ndarray:
                    if self.lanes == 1:
                        memory[address] = value
                        continue
                    cell = self._broadcast(cell, value)
                    memory[address] = cell
                elif cell.dtype is not np.dtype(object) and type(
                    value
                ) is not float:
                    # keep exact types: a non-float landing in a float64
                    # vector would be coerced, so widen to object first
                    widened = np.empty(self.lanes, dtype=object)
                    for j, v in enumerate(cell.tolist()):
                        widened[j] = v
                    cell = widened
                    memory[address] = cell
                cell[lane] = value
        self._log(lane, name, values)

    def write_global_lanes(self, name, rows):
        """Write a different value set into every lane: ``rows[lane]``."""
        if len(rows) != self.lanes:
            raise ValueError(
                "%d rows for %d lanes" % (len(rows), self.lanes)
            )
        for lane, values in enumerate(rows):
            self.write_global_lane(lane, name, values)

    def _log(self, lane, name, values):
        if isinstance(values, (list, tuple)):
            values = list(values)  # the caller may reuse its buffer
        self._writes.append((lane, name, values))

    def _broadcast(self, current, incoming):
        if type(current) is float and type(incoming) is float:
            return np.full(self.lanes, current)
        cell = np.empty(self.lanes, dtype=object)
        cell[:] = current
        return cell

    # ------------------------------------------------------------------
    # Per-lane scalar runs (hooked lanes, divergent slabs)
    # ------------------------------------------------------------------
    def _lane_simulator(self, lane, hook=None):
        """A scalar jit simulator in *lane*'s initial state: a fresh
        instance with this one's construction knobs, replaying the writes
        that reached the lane in the order they arrived."""
        peer = LoopJitSimulator(
            self.program,
            stack_words=self.stack_words,
            max_cycles=self.max_cycles,
            interrupt_hook=hook,
        )
        for owner, name, values in self._writes:
            if owner is None or owner == lane:
                peer.write_global(name, values)
        return peer

    def _run_lane(self, lane, hook):
        peer = self._lane_simulator(lane, hook)
        outcome = LaneOutcome(lane)
        try:
            outcome.result = peer.run()
        except Exception as error:
            outcome.error = error
        outcome.state = peer
        return outcome

    def _adopt_state(self, peer):
        self.memory = peer.memory
        self.registers = peer.registers
        self.sp = peer.sp
        self.sp_min = peer.sp_min
        self.pc = peer.pc
        self.cycle = peer.cycle
        self.op_count = peer.op_count
        self.halted = peer.halted
        self.locked = peer.locked
        self.loop_stack = peer.loop_stack
        self.call_stack = peer.call_stack
        self.pc_counts = peer.pc_counts

    # ------------------------------------------------------------------
    # Lockstep execution
    # ------------------------------------------------------------------
    def run(self):
        """Single-instance entry, bit-identical to the interpreter.

        Usable only with ``lanes=1`` (the default, which every generic
        backend-selection path uses); multi-lane batches return their
        per-lane results through :meth:`run_batch`.
        """
        if self.lanes != 1:
            raise ValueError(
                "run() drives a single instance; use run_batch() for "
                "%d lanes" % self.lanes
            )
        hook = self._lane_hooks.get(0, self.interrupt_hook)
        if hook is not None:
            # hook delivery is per-instance by nature: run on the scalar
            # jit path from this simulator's initial state, then mirror
            # the final state back.
            peer = self._lane_simulator(0, hook)
            try:
                return peer.run()
            finally:
                self._adopt_state(peer)
        return self._run_steps()

    def run_batch(self):
        """Run every lane; returns one :class:`LaneOutcome` per lane.

        The lanes run in lockstep while they agree.  On the first
        divergent control input, on a raw Python fault (which may be
        one lane's alone), or when any lane has an interrupt hook, every
        lane instead runs on its own scalar jit simulator from its
        initial state, and :attr:`fell_back` is set.  A
        :class:`SimulationError` in lockstep is uniform by construction
        (its inputs passed the guards) and is every lane's outcome.
        """
        hooks = [
            self._lane_hooks.get(lane, self.interrupt_hook)
            for lane in range(self.lanes)
        ]
        fault = None
        self.fell_back = any(hook is not None for hook in hooks)
        if not self.fell_back:
            try:
                self._run_steps()
            except _LaneSplit:
                self.fell_back = True
            except SimulationError as error:
                fault = error
            except Exception as error:  # noqa: BLE001 — raw machine faults
                # Non-simulation Python faults (ZeroDivisionError from
                # FDIV, negative shifts, ...) may be one lane's alone.
                fault = error
                self.fell_back = self.lanes > 1
                self._settle_counts(False)
        if self.fell_back:
            return [self._run_lane(lane, hook) for lane, hook in enumerate(hooks)]
        outcomes = []
        for lane in range(self.lanes):
            outcome = LaneOutcome(lane)
            if fault is None:
                outcome.result = self._result(list(self.pc_counts))
            else:
                outcome.error = fault
            outcome.state = self if self.lanes == 1 else _LaneView(self, lane)
            outcomes.append(outcome)
        return outcomes

