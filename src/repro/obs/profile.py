"""Post-run profiling: hot pcs, bank histograms, the conflict ledger.

Both simulator backends already produce the complete dynamic record a
profile needs — per-pc execution counts (``SimulationResult.pc_counts``,
one cycle per executed instruction) — and the static schedule says which
memory operations, symbols, and banks live at each pc.  Profiling is
therefore a *post-run analysis* over ``(program, result)``, exactly like
:func:`repro.sim.tracing.collect_block_counts`: the simulators' hot
paths (including the jit backend's fused superblocks) are untouched,
and a profiled run is bit-identical to an unprofiled one by
construction.

The **conflict ledger** attributes serialized memory pairs to variable
pairs.  Two memory operations in *adjacent* instructions of the same
basic block that target the *same* bank were serialized by the bank
constraint: had their variables lived in different banks, the compaction
pass could have packed them into one long instruction (this is the
schedule-level mirror of the interference edges the allocation pass
derives — see ``tests/obs/test_profile.py`` for the correspondence).
Each executed occurrence costs one cycle, so a pair's ledger weight is
the execution count of the later instruction.  Same-variable pairs are
exactly the paper's duplication candidates (partitioning cannot separate
a variable from itself).
"""

from repro.ir.symbols import MemoryBank

__all__ = ["ConflictEntry", "RunProfile", "profile_run"]

_CONCRETE_BANKS = (MemoryBank.X, MemoryBank.Y)


class ConflictEntry:
    """One (variable pair, bank) row of the conflict ledger.

    ``var_a <= var_b`` lexicographically; ``var_a == var_b`` marks a
    same-variable conflict (a duplication candidate, paper Section 3.2).
    ``cycles`` is the dynamic cost: executions of the serialized (later)
    instruction.  ``events`` counts the distinct static pc pairs.
    """

    __slots__ = ("var_a", "var_b", "bank", "cycles", "events", "pcs")

    def __init__(self, var_a, var_b, bank):
        self.var_a = var_a
        self.var_b = var_b
        #: bank label ("X" or "Y") both accesses were serialized on
        self.bank = bank
        self.cycles = 0
        self.events = 0
        #: static (earlier pc, later pc) pairs, in program order
        self.pcs = []

    @property
    def same_variable(self):
        """True for a same-array pair — partitioning cannot help it."""
        return self.var_a == self.var_b

    def to_dict(self):
        """This entry as JSON-ready plain data."""
        return {
            "var_a": self.var_a,
            "var_b": self.var_b,
            "bank": self.bank,
            "cycles": self.cycles,
            "events": self.events,
            "same_variable": self.same_variable,
            "pcs": [list(pair) for pair in self.pcs],
        }

    def __repr__(self):
        return "<ConflictEntry (%s, %s)@%s cycles=%d>" % (
            self.var_a, self.var_b, self.bank, self.cycles,
        )


def _memory_ops(instruction):
    return [
        op
        for op in instruction.slots.values()
        if op.is_memory and op.symbol is not None
    ]


class RunProfile:
    """Profile of one simulated run: cycle attribution and bank behaviour.

    Built by :func:`profile_run` from a :class:`MachineProgram` and the
    :class:`~repro.sim.simulator.SimulationResult` of executing it (any
    backend).  All views are derived lazily and cached.
    """

    def __init__(self, program, result):
        self.program = program
        self.result = result
        self._conflicts = None
        self._banks = None

    # ------------------------------------------------------------------
    def hot_pcs(self, n=10):
        """Top-*n* instructions by attributed cycles.

        Returns dicts with ``pc``, ``cycles``, ``share`` (of total
        cycles), ``block`` (source block label), and ``text`` (the long
        instruction's printed form).  One instruction costs one cycle
        per execution, so per-pc cycles are exactly
        ``result.pc_counts[pc]``.
        """
        counts = self.result.pc_counts
        total = self.result.cycles or 1
        ranked = sorted(
            (index for index, count in enumerate(counts) if count),
            key=lambda index: (-counts[index], index),
        )
        rows = []
        for pc in ranked[:n]:
            instruction = self.program.instructions[pc]
            rows.append(
                {
                    "pc": pc,
                    "cycles": counts[pc],
                    "share": counts[pc] / total,
                    "block": instruction.block_label,
                    "text": repr(instruction),
                }
            )
        return rows

    def bank_accesses(self):
        """Dynamic per-bank access histogram.

        ``{"X": {"loads": n, "stores": n}, "Y": ...}`` — each executed
        memory operation counts once, weighted by its instruction's
        execution count.
        """
        if self._banks is not None:
            return self._banks
        counts = self.result.pc_counts
        banks = {
            bank.value: {"loads": 0, "stores": 0} for bank in _CONCRETE_BANKS
        }
        for pc, instruction in enumerate(self.program.instructions):
            executed = counts[pc]
            if not executed:
                continue
            for op in _memory_ops(instruction):
                if op.bank not in _CONCRETE_BANKS:
                    continue
                kind = "loads" if op.is_load else "stores"
                banks[op.bank.value][kind] += executed
        self._banks = banks
        return banks

    def conflicts(self):
        """The conflict ledger, heaviest entries first.

        See the module docstring for the serialization model.  Only
        partitionable symbols participate: parameters and opaque symbols
        are pinned and never the allocation pass's decision to fix.
        """
        if self._conflicts is not None:
            return self._conflicts
        instructions = self.program.instructions
        counts = self.result.pc_counts
        ledger = {}
        for pc in range(len(instructions) - 1):
            later = pc + 1
            if not counts[later]:
                continue
            instr_a = instructions[pc]
            instr_b = instructions[later]
            if (
                instr_a.block_label is None
                or instr_a.block_label != instr_b.block_label
            ):
                continue
            for op_a in _memory_ops(instr_a):
                if op_a.bank not in _CONCRETE_BANKS:
                    continue
                if not op_a.symbol.is_partitionable:
                    continue
                for op_b in _memory_ops(instr_b):
                    if op_b.bank is not op_a.bank:
                        continue
                    if not op_b.symbol.is_partitionable:
                        continue
                    pair = tuple(sorted((op_a.symbol.name, op_b.symbol.name)))
                    key = (pair, op_a.bank.value)
                    entry = ledger.get(key)
                    if entry is None:
                        entry = ConflictEntry(pair[0], pair[1], op_a.bank.value)
                        ledger[key] = entry
                    entry.cycles += counts[later]
                    entry.events += 1
                    entry.pcs.append((pc, later))
        ranked = sorted(
            ledger.values(),
            key=lambda e: (-e.cycles, e.var_a, e.var_b, e.bank),
        )
        self._conflicts = ranked
        return ranked

    def conflict_cycles(self):
        """Total attributed serialization cycles across the ledger."""
        return sum(entry.cycles for entry in self.conflicts())

    def to_dict(self, top=10):
        """The whole profile as JSON-ready plain data."""
        return {
            "cycles": self.result.cycles,
            "operations": self.result.operations,
            "hot_pcs": self.hot_pcs(top),
            "bank_accesses": self.bank_accesses(),
            "conflicts": [entry.to_dict() for entry in self.conflicts()],
            "conflict_cycles": self.conflict_cycles(),
        }

    def __repr__(self):
        return "<RunProfile cycles=%d conflicts=%d>" % (
            self.result.cycles, len(self.conflicts()),
        )


def profile_run(program, result):
    """Profile one finished run; returns a :class:`RunProfile`.

    *program* is the executed :class:`MachineProgram`; *result* the
    :class:`SimulationResult` any backend returned.  Purely
    read-only: neither argument is mutated, so profiling never perturbs
    the run it describes.
    """
    return RunProfile(program, result)
