"""Tests for edge-weight policies."""

from repro.frontend import ProgramBuilder
from repro.ir.block import BasicBlock
from repro.partition.graph_builder import build_interference_graph
from repro.partition.greedy import GreedyPartitioner
from repro.partition.weights import ProfileWeights, StaticDepthWeights


def test_static_weights_are_depth_plus_one():
    policy = StaticDepthWeights()
    assert policy.weight(BasicBlock("a", loop_depth=0)) == 1
    assert policy.weight(BasicBlock("b", loop_depth=1)) == 2
    assert policy.weight(BasicBlock("c", loop_depth=3)) == 4


def test_static_weights_accumulate_by_default():
    assert StaticDepthWeights().accumulate
    assert not StaticDepthWeights(accumulate=False).accumulate


def _fft_like_module():
    pb = ProgramBuilder("fftlike")
    re = pb.global_array("re", 16, float, init=[1.0] * 16)
    im = pb.global_array("im", 16, float, init=[0.0] * 16)
    wre = pb.global_array("wre", 8, float, init=[1.0] * 8)
    wim = pb.global_array("wim", 8, float, init=[0.0] * 8)
    out = pb.global_scalar("out", float)
    with pb.function("main") as f:
        acc = f.float_var("acc")
        f.assign(acc, 0.0)
        with f.loop(8) as i:
            f.assign(acc, acc + re[i] * im[i])
            f.assign(acc, acc + wre[i] * wim[i])
            f.assign(acc, acc + re[i] * wim[i])
            f.assign(acc, acc + im[i] * wim[i])
        f.assign(out[0], acc)
    return pb.build()


def test_accumulated_weights_never_cut_worse_than_max():
    """Why accumulation is the default: with max weights a uniformly
    weighted butterfly-like graph strands greedy in zero-gain ties, so
    accumulation must never leave a larger share of interference uncut."""

    def uncut_share(accumulate):
        graph = build_interference_graph(
            _fft_like_module(), StaticDepthWeights(accumulate=accumulate)
        )
        cut = GreedyPartitioner(graph).partition()
        return cut.final_cost / graph.total_weight()

    assert uncut_share(True) <= uncut_share(False) + 1e-9


def test_profile_weights_use_counts():
    policy = ProfileWeights({"hot": 1000, "cold": 0})
    assert policy.weight(BasicBlock("hot")) == 1000
    # Unexecuted and unknown blocks still get a minimum weight of 1.
    assert policy.weight(BasicBlock("cold")) == 1
    assert policy.weight(BasicBlock("unknown")) == 1
    assert policy.accumulate
