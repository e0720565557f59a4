"""The compiler driver: allocation -> register allocation -> compaction.

``compile_module`` reproduces the paper's back-end pass order:

1. validate the incoming operation stream;
2. run the **data-allocation pass** (:mod:`repro.partition`) under the
   chosen strategy, tagging every memory operation with a bank;
3. allocate registers (linear scan; orthogonal to banks, paper Section 2)
   and insert callee save/restore on alternating banks;
4. lay out stack frames (dual stacks) and global data (per-bank spaces);
5. run the **operation-compaction pass** per basic block, emitting long
   instructions, and assemble them into a flat
   :class:`~repro.machine.instruction.MachineProgram`.

Every pass is wrapped in an instrumentation span (see
:mod:`repro.obs.core`): pass a :class:`~repro.obs.core.Recorder` via
``CompileOptions(observe=...)`` to collect per-pass wall time plus IR
deltas (operation counts, emitted instruction count, long-instruction
fill rate).  Without a recorder the spans are shared no-ops.
"""

from repro.compiler.compaction import compact_block
from repro.compiler.frames import insert_save_restore, layout_frame
from repro.compiler.layout import layout_globals
from repro.compiler.regalloc import allocate_registers
from repro.ir.validate import validate_module
from repro.machine.instruction import MachineProgram
from repro.machine.resources import ALL_UNITS
from repro.obs.core import NULL_RECORDER
from repro.partition.registry import DEFAULT_PARTITIONER
from repro.partition.strategies import Strategy, run_allocation


class CompileOptions:
    """Knobs for :func:`compile_module`."""

    def __init__(
        self,
        strategy=Strategy.CB,
        profile_counts=None,
        interrupt_safe=True,
        software_pipelining=False,
        observe=None,
        partitioner=DEFAULT_PARTITIONER,
    ):
        self.strategy = strategy
        self.profile_counts = profile_counts
        self.interrupt_safe = interrupt_safe
        #: Interference-graph partitioner name for the CB-family
        #: strategies (:data:`~repro.partition.registry.PARTITIONERS`).
        self.partitioner = partitioner
        #: Optional :class:`~repro.obs.core.Recorder` collecting per-pass
        #: spans; None means the shared no-op recorder.
        self.observe = observe
        #: Pre-load inner-loop operands across iterations (paper Figure 1
        #: style).  Off by default: the paper's measured configurations
        #: use the plain compaction schedule.
        self.software_pipelining = software_pipelining


class CompileResult:
    """A compiled program plus the decisions that produced it."""

    def __init__(self, program, allocation, register_records, pipelining=None):
        self.program = program
        #: the :class:`~repro.partition.strategies.AllocationResult`
        self.allocation = allocation
        #: function name -> :class:`~repro.compiler.regalloc.AllocationRecord`
        self.register_records = register_records
        #: :class:`~repro.compiler.pipelining.PipelineReport` or None
        self.pipelining = pipelining

    @property
    def code_size(self):
        return self.program.size


def options_signature(options):
    """The cache-relevant projection of a :class:`CompileOptions`.

    Returns a tuple of ``(name, value)`` pairs covering every option
    that changes the emitted program: the strategy, the partitioner
    (two partitioners can produce two different cuts, so they must
    never share a cache entry), and software pipelining.
    ``profile_counts`` and ``observe`` are deliberately absent — profile
    counts are keyed separately (they are inputs, not options) and a
    recorder never changes the output.

    This is the canonical compile half of a persistent artifact-store
    key (:mod:`repro.serve.store`); any new ``CompileOptions`` field
    that affects codegen must be added here, which the cache-key drift
    tests in ``tests/serve/test_store.py`` hold.
    """
    return (
        ("strategy", options.strategy.name),
        ("interrupt_safe", bool(options.interrupt_safe)),
        ("software_pipelining", bool(options.software_pipelining)),
        ("partitioner", options.partitioner),
    )


def compile_module(module, options=None, **kwargs):
    """Compile *module*; returns a :class:`CompileResult`.

    Either pass a :class:`CompileOptions` or keyword arguments accepted by
    its constructor.  The module is consumed: compile each freshly built
    module exactly once.
    """
    if options is None:
        options = CompileOptions(**kwargs)
    elif kwargs:
        raise TypeError("pass either options or keyword arguments, not both")
    observe = options.observe if options.observe is not None else NULL_RECORDER

    with observe.span("compile") as compile_span:
        with observe.span("validate"):
            validate_module(module)

        with observe.span("allocate") as span:
            allocation = run_allocation(
                module,
                options.strategy,
                profile_counts=options.profile_counts,
                interrupt_safe=options.interrupt_safe,
                observe=observe,
                partitioner=options.partitioner,
            )
            span.set(
                strategy=options.strategy.name,
                partitioner=options.partitioner,
                graph_nodes=(
                    len(allocation.graph) if allocation.graph is not None else 0
                ),
                duplicated=len(allocation.duplicated),
            )
        dual_stacks = options.strategy is not Strategy.SINGLE_BANK

        pipelining = None
        if options.software_pipelining:
            from repro.compiler.pipelining import pipeline_inner_loops

            with observe.span("pipelining") as span:
                before = _operation_count(module)
                pipelining = pipeline_inner_loops(module)
                span.set(
                    operations_before=before,
                    operations_after=_operation_count(module),
                )

        register_records = {}
        ordered = [module.main] + [
            f for name, f in module.functions.items() if name != "main"
        ]
        with observe.span("regalloc") as span:
            before = _operation_count(module)
            for function in ordered:
                record = allocate_registers(function, module, dual_stacks)
                insert_save_restore(function, record, dual_stacks)
                register_records[function.name] = record
            span.set(
                functions=len(ordered),
                operations_before=before,
                operations_after=_operation_count(module),
            )

        program = MachineProgram()
        program.module = module
        with observe.span("layout") as span:
            program.layout = layout_globals(module)
            span.set(
                data_words_x=program.layout.data_size_x,
                data_words_y=program.layout.data_size_y,
            )

        with observe.span("compaction") as span:
            loop_starts = {}
            for function in ordered:
                program.function_entries[function.name] = len(
                    program.instructions
                )
                for block in function.blocks:
                    program.labels[block.label] = len(program.instructions)
                    if (
                        block.hw_loop is not None
                        and block.hw_loop not in loop_starts
                    ):
                        loop_starts[block.hw_loop] = len(program.instructions)
                    program.instructions.extend(
                        compact_block(
                            block, dual_ported=allocation.dual_ported
                        )
                    )
                program.frames[function.name] = layout_frame(function)

            for index, instruction in enumerate(program.instructions):
                for loop_id in instruction.loop_ends:
                    start = loop_starts.get(loop_id)
                    if start is None:
                        raise RuntimeError(
                            "LOOP_END without body for %r" % loop_id
                        )
                    program.loops[loop_id] = (start, index)
            scheduled = sum(len(i.slots) for i in program.instructions)
            span.set(
                instructions=len(program.instructions),
                scheduled_operations=scheduled,
                fill_rate=(
                    scheduled / (len(program.instructions) * len(ALL_UNITS))
                    if program.instructions
                    else 0.0
                ),
            )

        compile_span.set(
            strategy=options.strategy.name,
            instructions=len(program.instructions),
        )
    return CompileResult(program, allocation, register_records, pipelining)


def _operation_count(module):
    """Total unpacked operations currently in *module* (an IR delta
    metric: passes report it before and after rewriting)."""
    return sum(1 for _op in module.operations())
