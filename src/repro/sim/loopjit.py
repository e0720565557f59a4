"""Loop-specializing codegen backend (``jit``): whole hardware loops per
dispatch.

Threaded code built by :class:`~repro.sim.fastsim.FastSimulator` still
pays one Python call per superblock and re-enters the dispatch
loop on every zero-overhead hardware-loop back-edge, so the hottest
cycles of the paper's loop-dominated DSP kernels are the most expensive
to simulate.  This backend generates Python source per hardware-loop
*region*: an entire loop nest executes as native ``for`` loops over the
armed trip count, inside one ``def loop_<start>():`` function bound
through the shared :meth:`~repro.sim.fastsim.FastSimulator._bind`, with

* **register promotion** — every register slot (and stack pointer) the
  nest touches becomes a Python local, loaded once at loop entry and
  written back when the loop completes (or faults), so the inner loop
  runs on locals instead of list indexing;
* **bulk accounting** — ``pc_counts[pc] += iterations`` per nesting
  level and one cycle-counter update per level, so profiling stays
  bit-identical to the reference interpreter without per-cycle work.

Specializability analysis (per loop region ``[start, end]``):

* no control operation in the body except ``LOOP_BEGIN`` of a properly
  nested loop (body starts right after its ``LOOP_BEGIN``, ends before
  the parent's end);
* the region's end pc is unique program-wide — a shared end would make
  the back-edge cascade through several loop records at one pc, which
  the structural ``for`` translation cannot express.

Everything else falls back: unspecializable loops run on the fused
superblock path, and a loop record that does not match a compiled entry
is simply dispatched normally.  The guard rails of
:mod:`repro.sim.fastsim` carry over unchanged — control transfers
override the loop back-edge, and loop-final instructions keep their
back-edge-vs-taken-branch semantics — because unspecializable shapes
never reach the generated loop bodies.

A run with an interrupt hook never enters a loop function: it takes the
inherited per-cycle stepped loop (:meth:`FastSimulator._run_steps`), so
the hook sees every cycle the reference interpreter delivers, may read
and write any state, and may redirect ``pc`` — inside a hardware loop
too — exactly as on ``interp``.  Hooked runs are bit-identical on every
path, faults included.

Error-path divergence (hook-free runs only): on ``max_cycles`` overruns
and machine faults the cycle counter and per-pc counts may overshoot by
up to the remaining iterations of the specialized loop (the fused path
checks ``max_cycles`` per superblock, so it can fire up to one block
early), and ``pc`` settles on the loop entry rather than the exact
faulting instruction.  Completed runs are bit-identical — cycles,
operations, ``pc_counts``, memory, registers, and the full-state digest
— which is what the differential fuzz oracle and the equivalence suites
verify.
"""

import re

from repro.ir.operations import OpCode
from repro.sim.fastsim import FastSimulator, _CodeBuilder
from repro.sim.simulator import CycleLimitError, SimulationError

#: register / stack-pointer references in generated code, for promotion
_REG_REF = re.compile(r"\b(RA|RI|RF|SP)\[(\d+)\]")

_PROMOTED_PREFIX = {"RA": "pa", "RI": "pi", "RF": "pf", "SP": "sp"}


class _Nest:
    """One specializable loop: body range plus properly nested children."""

    __slots__ = ("begin_pc", "start", "end", "children", "index")

    def __init__(self, begin_pc, start, end, children):
        #: pc of the LOOP_BEGIN arming this loop (None for a root entry)
        self.begin_pc = begin_pc
        self.start = start
        self.end = end
        self.children = children
        #: preorder position in the nest (assigned at codegen time)
        self.index = -1


class LoopJitSimulator(FastSimulator):
    """Drop-in replacement for :class:`Simulator` that executes whole
    hardware loops per dispatch.

    Two loops, chosen by the installed interrupt hook:

    * no hook — the fused loop: superblocks plus a loop-entry overlay;
      when it reaches a compiled loop's start pc with that loop's
      record armed on top of the stack, one loop-function call consumes
      every remaining iteration;
    * any hook — the inherited stepped loop
      (:meth:`FastSimulator._run_steps`), which calls the hook after
      every cycle.
    """

    backend_name = "jit"

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        #: pc -> loop function (hook-free mode), parallel end-pc table
        self._entries = None
        self._entry_ends = None
        self._nest_cache = None
        #: one-element list holding the running cycle count, shared by
        #: the fused loop and the loop functions
        self._cycle_cell = [0]
        #: pc -> register refs ("RA[3]", "SP[0]", ...) that pc touches;
        #: shared by every promotion map built for this simulator
        self._ref_cache = {}

    def _env(self):
        # generated functions additionally see the pc-count table and
        # the shared cycle cell
        env = super()._env()
        env["PCC"] = self.pc_counts
        env["CY"] = self._cycle_cell
        return env

    # ------------------------------------------------------------------
    # Specializability analysis
    # ------------------------------------------------------------------
    def _unique_regions(self):
        """Deduplicated loop regions whose end pc no other region shares
        (a shared end makes the back-edge cascade at one pc)."""
        regions = set(self.program.loops.values())
        by_end = {}
        for region in regions:
            by_end.setdefault(region[1], []).append(region)
        return {r for r in regions if len(by_end[r[1]]) == 1}

    def _analyze_region(self, start, end, regions):
        """Children of a specializable body ``[start, end]``, or None.

        A region qualifies when its only control operations are
        ``LOOP_BEGIN`` of properly nested, recursively specializable
        loops (body starting right after the arming pc, ending strictly
        before *end*).  Branches, calls, returns, and HALT disqualify
        the region — those shapes keep the fused-superblock semantics.
        """
        instructions = self.program.instructions
        loops = self.program.loops
        children = []
        pc = start
        while pc <= end:
            control = [
                op
                for op in instructions[pc].slots.values()
                if op.info.kind.value == "control"
            ]
            if len(control) > 1:
                return None
            if control:
                op = control[0]
                if op.opcode is not OpCode.LOOP_BEGIN:
                    return None
                s2, e2 = loops[op.target.name]
                if s2 != pc + 1 or e2 < s2 or e2 >= end:
                    return None
                if (s2, e2) not in regions:
                    return None
                sub = self._analyze_region(s2, e2, regions)
                if sub is None:
                    return None
                children.append(_Nest(pc, s2, e2, sub))
                pc = e2 + 1
            else:
                pc += 1
        return children

    def _nests(self):
        """start pc -> specializable :class:`_Nest`, every loop counted.

        Inner loops appear independently too: when an outer loop is
        unspecializable the inner loop still specializes the moment its
        own record tops the stack.  (Entry emission filters this dict
        down to top-level nests — inner bodies are inlined into the
        enclosing function.)
        """
        if self._nest_cache is None:
            regions = self._unique_regions()
            nests = {}
            for start, end in sorted(regions):
                if start > end:
                    continue
                children = self._analyze_region(start, end, regions)
                if children is not None and start not in nests:
                    nests[start] = _Nest(None, start, end, children)
            self._nest_cache = nests
        return self._nest_cache

    def _level_pcs(self, node):
        """The pcs executed once per iteration of *node* itself — its
        body minus nested children's bodies (children's LOOP_BEGIN pcs
        belong to this level)."""
        pcs = []
        cursor = node.start
        for child in node.children:
            pcs.extend(range(cursor, child.begin_pc + 1))
            cursor = child.end + 1
        pcs.extend(range(cursor, node.end + 1))
        return pcs

    def _collect_levels(self, node, levels):
        node.index = len(levels)
        levels.append(node)
        for child in node.children:
            self._collect_levels(child, levels)

    # ------------------------------------------------------------------
    # Code generation helpers
    # ------------------------------------------------------------------
    def _emit_instruction(self, pc, cb, out, pad, count_var=None):
        """Emit one instruction's read-before-write body at *pad* indent.

        With *count_var*, the instruction's LOOP_BEGIN trip count is
        read into that name during the read phase — before the cycle's
        writes commit, exactly as the reference interpreter reads it.
        """
        saved, cb.lines = cb.lines, []
        control_op = self._instruction_body(pc, cb)
        if count_var is not None:
            cb.reads.append(
                "%s = %s"
                % (count_var, self._operand_expr(control_op.sources[0], cb))
            )
        cb.flush()
        out.extend(pad + line for line in cb.lines)
        cb.lines = saved
        return control_op

    def _pc_refs(self, pc):
        """Register (and stack-pointer) slots *pc* touches, as sorted
        ``"RA[3]"``-style refs, read off its operands: every register an
        operation reads or writes (memory index and offset included),
        ``SP[bank]`` for a frame symbol, and a LOOP_BEGIN trip count —
        the refs :meth:`_emit_instruction` emits for it."""
        refs = self._ref_cache.get(pc)
        if refs is None:
            plain = _CodeBuilder()
            found = set()
            for op in self.program.instructions[pc].slots.values():
                if op.info.kind.value == "control":
                    if op.opcode is not OpCode.LOOP_BEGIN:
                        continue
                    operands = op.reads()
                else:
                    operands = op.reads() + op.writes()
                    if op.is_memory:
                        bank_index, base, _offset = self._resolve_symbol(op)
                        if base is None:
                            found.add("SP[%d]" % bank_index)
                found.update(self._operand_expr(r, plain) for r in operands)
            refs = tuple(sorted(found))
            self._ref_cache[pc] = refs
        return refs

    def _promotion_map(self, start, end):
        """``"RA[3]" -> "pa3"`` for every register (and stack-pointer)
        slot referenced in ``[start, end]``."""
        promoted = {}
        for pc in range(start, end + 1):
            for ref in self._pc_refs(pc):
                if ref not in promoted:
                    match = _REG_REF.match(ref)
                    promoted[ref] = "%s%s" % (
                        _PROMOTED_PREFIX[match.group(1)],
                        match.group(2),
                    )
        return promoted

    @staticmethod
    def _promotion_loads(cb):
        return sorted(cb.promoted.items())

    @staticmethod
    def _promotion_stores(cb):
        """Promoted slots written back on exit (the stack pointer is
        read-only inside a specialized body — no CALL/RET can occur)."""
        return [
            (ref, local)
            for ref, local in sorted(cb.promoted.items())
            if not ref.startswith("SP")
        ]

    def _emit_body(self, node, cb, out, depth):
        """Straight-line body of *node* with nested loops inlined."""
        pad = "    " * depth
        before = len(out)
        cursor = node.start
        for child in node.children:
            for pc in range(cursor, child.begin_pc):
                self._emit_instruction(pc, cb, out, pad)
            count_var = "n%d" % child.index
            self._emit_instruction(
                child.begin_pc, cb, out, pad, count_var=count_var
            )
            out.append(pad + "if %s > 0:" % count_var)
            self._emit_counted(child, cb, out, depth + 1, count_var)
            cursor = child.end + 1
        for pc in range(cursor, node.end + 1):
            self._emit_instruction(pc, cb, out, pad)
        if len(out) == before:
            out.append(pad + "pass")

    def _emit_counted(self, node, cb, out, depth, count_expr):
        """Clamped native ``for`` over *count_expr* iterations of *node*.

        The clamp keeps a register-supplied trip count from running past
        ``max_cycles`` unchecked: at most enough iterations to exceed
        the budget execute, then the post-loop check faults.  ``B`` is
        the static per-iteration cycle cost of this level (inner loops
        account for their own, dynamically).
        """
        pad = "    " * depth
        rv, itv = "r%d" % node.index, "it%d" % node.index
        b = len(self._level_pcs(node))
        maxc = self.max_cycles
        out.append(pad + "%s = %s" % (rv, count_expr))
        out.append(pad + "if cy + %s * %d > %d:" % (rv, b, maxc))
        out.append(pad + "    %s = (%d - cy) // %d + 1" % (rv, maxc, b))
        out.append(pad + "    if %s < 0:" % rv)
        out.append(pad + "        %s = 0" % rv)
        out.append(pad + "%s += %s" % (itv, rv))
        out.append(pad + "cy += %s * %d" % (rv, b))
        out.append(pad + "for _ in range(%s):" % rv)
        self._emit_body(node, cb, out, depth + 1)
        out.append(pad + "if cy > %d:" % maxc)
        out.append(pad + "    SIM._jit_max_cycles()")

    def _nest_builder(self, nest):
        """Builder for the hook-free loop function of one nest: run every
        remaining iteration of the armed record, pop it, return the
        loop-exit pc."""
        cb = _CodeBuilder("L%d_" % nest.start)
        cb.promoted = self._promotion_map(nest.start, nest.end)
        levels = []
        self._collect_levels(nest, levels)
        out = cb.lines
        out.append("rec = LS[-1]")
        out.append("cy = CY[0]")
        for node in levels:
            out.append("it%d = 0" % node.index)
        for ref, local in self._promotion_loads(cb):
            out.append("%s = %s" % (local, ref))
        out.append("try:")
        self._emit_counted(nest, cb, out, 1, "rec[2]")
        out.append("finally:")
        for ref, local in self._promotion_stores(cb):
            out.append("    %s = %s" % (ref, local))
        out.append("    CY[0] = cy")
        for node in levels:
            itv = "it%d" % node.index
            for pc in self._level_pcs(node):
                out.append("    PCC[%d] += %s" % (pc, itv))
        out.append("LS.pop()")
        out.append("return %d" % (nest.end + 1))
        return cb

    def _loops_source(self):
        """One ``def loop_<start>():`` per top-level nest, and the
        per-pc end table of the loops they run."""
        ends = [0] * len(self.program.instructions)
        pieces = []
        constants = []
        nests = self._nests()
        inlined = set()
        for nest in nests.values():
            stack = list(nest.children)
            while stack:
                child = stack.pop()
                inlined.add(child.start)
                stack.extend(child.children)
        for start, nest in nests.items():
            if start in inlined:
                # Consumed natively by an enclosing entry; a jump
                # straight into that region (never emitted by the
                # compiler) falls back to fused-superblock speed.
                continue
            cb = self._nest_builder(nest)
            pieces.append(
                "def loop_%d():\n%s\n"
                % (start, "\n".join("    " + line for line in cb.body()))
            )
            constants.extend(cb.constants)
            ends[start] = nest.end
        return "\n".join(pieces), tuple(constants), tuple(ends)

    def _compile_loops(self):
        # max_cycles is baked into the generated clamps, so it keys the
        # cached code alongside the program itself.
        key = (type(self).__qualname__, "loops", self.max_cycles)
        namespace, ends = self._bind(key, self._loops_source)
        entries = [None] * len(ends)
        for name, loop in namespace.items():
            entries[int(name[len("loop_"):])] = loop
        self._entries = entries
        self._entry_ends = ends

    # ------------------------------------------------------------------
    # Faults raised from generated code
    # ------------------------------------------------------------------
    def _jit_max_cycles(self):
        raise CycleLimitError("exceeded max_cycles=%d" % self.max_cycles)

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def run(self):
        """Execute until HALT; returns a :class:`SimulationResult`."""
        hook = self.interrupt_hook
        if hook is None:
            return self._run_fused()
        return self._run_steps(hook)

    def _run_fused(self):
        if self._blocks is None:
            self._layout_blocks()
        if self._entries is None:
            self._compile_loops()
        self._enter_main()
        count = len(self.program.instructions)
        pc_counts = self.pc_counts
        max_cycles = self.max_cycles
        blocks = self._blocks
        lens = self._block_lens
        entries = self._entries
        ends = self._entry_ends
        cell = self._cycle_cell
        cell[0] = self.cycle
        LS = self.loop_stack
        pc = self.pc
        try:
            while True:
                if pc < 0 or pc >= count:
                    raise SimulationError("pc %d out of range" % pc)
                entry = entries[pc]
                if entry is not None and LS:
                    rec = LS[-1]
                    if rec[0] == pc and rec[1] == ends[pc]:
                        pc = entry()
                        continue
                step = blocks[pc]
                if step is None:
                    if not lens[pc]:
                        raise SimulationError("pc %d out of range" % pc)
                    step = blocks[pc] = self._straight(pc, pc + lens[pc] - 1)
                cell[0] += lens[pc]
                if cell[0] > max_cycles:
                    raise CycleLimitError(
                        "exceeded max_cycles=%d" % max_cycles
                    )
                pc_counts[pc] += 1
                next_pc = step()
                if next_pc is None:
                    break
                pc = next_pc
        except SimulationError as fault:
            self.pc = pc
            self.cycle = cell[0]
            self.locked = False
            self._settle_counts(True)
            self._annotate_fault(fault)
            raise
        self.cycle = cell[0]
        self.locked = False
        self._settle_counts(True)
        return self._result()
