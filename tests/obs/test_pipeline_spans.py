"""The compiler pipeline's instrumentation: every pass reports a span."""

from repro.compiler import CompileOptions, compile_module
from repro.obs.core import Recorder
from repro.partition.strategies import Strategy


def _spans_for(module, **options):
    recorder = Recorder()
    compiled = compile_module(
        module, CompileOptions(observe=recorder, **options)
    )
    return recorder, compiled


def test_every_pass_reports_a_span(dot_product_module):
    recorder, compiled = _spans_for(
        dot_product_module(), strategy=Strategy.CB
    )
    compile_span = recorder.find("compile")
    assert compile_span is not None
    names = [child.name for child in compile_span.children]
    assert names == [
        "validate", "allocate", "regalloc", "layout", "compaction",
    ]
    assert compile_span.duration >= sum(
        child.duration for child in compile_span.children
    ) * 0.5  # children are timed within the parent
    assert compile_span.metrics["strategy"] == "CB"
    assert compile_span.metrics["instructions"] == compiled.code_size


def test_compaction_span_reports_schedule_metrics(dot_product_module):
    recorder, compiled = _spans_for(
        dot_product_module(), strategy=Strategy.CB
    )
    compaction = recorder.find("compaction")
    assert compaction.metrics["instructions"] == compiled.code_size
    scheduled = sum(
        len(instr.slots) for instr in compiled.program.instructions
    )
    assert compaction.metrics["scheduled_operations"] == scheduled
    assert 0 < compaction.metrics["fill_rate"] <= 1


def test_allocate_span_nests_graph_build_and_partition(dot_product_module):
    recorder, compiled = _spans_for(
        dot_product_module(), strategy=Strategy.CB
    )
    allocate = recorder.find("allocate")
    child_names = [child.name for child in allocate.children]
    assert "graph_build" in child_names
    assert "partition" in child_names
    graph_build = allocate.find("graph_build")
    assert graph_build.metrics["nodes"] == len(compiled.allocation.graph)
    partition = allocate.find("partition")
    assert partition.metrics["final_cost"] <= partition.metrics[
        "initial_cost"
    ]
    # The greedy partitioner counts accepted moves on this span.
    assert partition.counters.get("moves", 0) >= 0


def test_optional_passes_appear_only_when_enabled(dot_product_module):
    recorder, _compiled = _spans_for(
        dot_product_module(), strategy=Strategy.CB, software_pipelining=True
    )
    compile_span = recorder.find("compile")
    names = [child.name for child in compile_span.children]
    assert "pipelining" in names
    pipelining = recorder.find("pipelining")
    assert pipelining.metrics["operations_after"] >= pipelining.metrics[
        "operations_before"
    ]


def test_single_bank_allocate_span_has_no_partition_child(
    dot_product_module,
):
    recorder, _compiled = _spans_for(
        dot_product_module(), strategy=Strategy.SINGLE_BANK
    )
    allocate = recorder.find("allocate")
    assert allocate is not None
    assert allocate.find("partition") is None
