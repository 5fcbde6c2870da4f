"""Tests for the performance model: Figs. 9-12, 14, 20 shapes."""

import pytest

from repro.config import ParallelConfig, frontier_system, paper_config
from repro.xmoe.memory_model import SystemKind
from repro.xmoe.perf_model import MoEPerformanceModel


SYS256 = frontier_system(num_nodes=32)


def make_perf(model_name, kind, *, ep=64, tp=1, world=256, dispatch="flat", use_ssmb=False, gbs=1024):
    model = paper_config(model_name)
    parallel = ParallelConfig(
        world_size=world,
        ep_size=ep,
        tp_size=tp,
        micro_batch_size=1,
        global_batch_size=gbs,
        dispatch=dispatch,
        use_ssmb=use_ssmb,
    )
    system = frontier_system(num_nodes=max(1, world // 8))
    return MoEPerformanceModel(model, parallel, system, kind)


class TestDispatchPricing:
    """dispatch_comm_estimates prices all three strategies per hop."""

    def test_hop_counts_per_strategy(self):
        perf = make_perf("small", SystemKind.XMOE, ep=64)
        assert len(perf.dispatch_comm_estimates("flat")) == 1
        assert len(perf.dispatch_comm_estimates("rbd")) == 2
        assert len(perf.dispatch_comm_estimates("hier")) == 3

    def test_unknown_strategy_rejected(self):
        perf = make_perf("small", SystemKind.XMOE, ep=64)
        with pytest.raises(ValueError, match="unknown dispatch"):
            perf.dispatch_comm_estimates("mesh")

    def test_rbd_and_hier_cut_inter_node_bytes_vs_flat(self):
        """Both redundancy-aware strategies move fewer bytes across nodes."""
        perf = make_perf("small", SystemKind.XMOE, ep=64)
        flat = perf.dispatch_inter_node_bytes("flat")
        rbd = perf.dispatch_inter_node_bytes("rbd")
        hier = perf.dispatch_inter_node_bytes("hier")
        assert flat > 0
        assert rbd < flat and hier < flat

    def test_hier_config_prices_hier_in_breakdown(self):
        """A dispatch='hier' ParallelConfig drives the hier cost path."""
        model = paper_config("small")
        base = ParallelConfig(
            world_size=256, ep_size=64, micro_batch_size=1, global_batch_size=1024
        )
        flat_perf = MoEPerformanceModel(model, base, SYS256, SystemKind.XMOE)
        hier_perf = MoEPerformanceModel(
            model, base.with_overrides(dispatch="hier"), SYS256, SystemKind.XMOE
        )
        flat_a2a = flat_perf.moe_layer_breakdown().dispatch_a2a
        hier_a2a = hier_perf.moe_layer_breakdown().dispatch_a2a
        assert hier_a2a != flat_a2a
        assert hier_a2a == pytest.approx(
            sum(e.seconds for e in hier_perf.dispatch_comm_estimates("hier"))
        )

    def test_explicit_dispatch_argument_still_wins(self):
        perf = make_perf("small", SystemKind.XMOE, ep=64, dispatch="rbd")
        flat_like = perf.moe_layer_breakdown(dispatch="flat")
        default = perf.moe_layer_breakdown()
        assert default.dispatch_a2a < flat_like.dispatch_a2a


class TestLayerBreakdown:
    def test_fig11_xmoe_faster_per_layer(self):
        """X-MoE's forward MoE-layer time is well below DeepSpeed-MoE's."""
        for name, ep in (("small", 8), ("large", 64)):
            ds = make_perf(name, SystemKind.DEEPSPEED_MOE, ep=ep).moe_layer_breakdown()
            xm = make_perf(name, SystemKind.XMOE, ep=ep).moe_layer_breakdown()
            assert xm.total() < 0.6 * ds.total()

    def test_fig11_stage_speedups(self):
        """Gating / buffer-dispatch / buffer-combine accelerate by large factors."""
        ds = make_perf("small", SystemKind.DEEPSPEED_MOE, ep=8).moe_layer_breakdown()
        xm = make_perf("small", SystemKind.XMOE, ep=8).moe_layer_breakdown()
        assert ds.gate / xm.gate > 3.0
        assert ds.dispatch_buffer / xm.dispatch_buffer > 5.0
        assert ds.combine_buffer / xm.combine_buffer > 5.0

    def test_fig11_large_model_a2a_reduction(self):
        """For the Large model the all-to-all dominates and X-MoE cuts it by
        roughly the padding factor (paper: ~50%)."""
        ds = make_perf("large", SystemKind.DEEPSPEED_MOE, ep=64).moe_layer_breakdown()
        xm = make_perf("large", SystemKind.XMOE, ep=64).moe_layer_breakdown()
        reduction = 1.0 - xm.dispatch_a2a / ds.dispatch_a2a
        assert 0.3 < reduction < 0.7
        # a2a dominates the Large-model layer time.
        assert ds.dispatch_a2a + ds.combine_a2a > 0.3 * ds.total()

    def test_breakdown_as_dict_keys(self):
        b = make_perf("small", SystemKind.XMOE, ep=8).moe_layer_breakdown()
        assert set(b.as_dict()) == {
            "gate",
            "dispatch",
            "1st_a2a",
            "experts",
            "2nd_a2a",
            "combine",
            "others",
        }
        assert b.total() == pytest.approx(sum(b.as_dict().values()))


class TestDispatchBreakdownRBD:
    def test_fig12_rbd_reduces_inter_node_time(self):
        """Fig. 12: with ~55% redundancy RBD cuts the inter-node a2a roughly
        in half and wins overall despite the extra intra-node stage."""
        perf = make_perf("large", SystemKind.XMOE, ep=32, world=32)
        without = perf.dispatch_breakdown("flat")
        with_rbd = perf.dispatch_breakdown("rbd")
        assert perf.redundancy() == pytest.approx(0.548, abs=0.05)
        reduction = 1.0 - with_rbd.inter_node_a2a / without.inter_node_a2a
        assert 0.35 < reduction < 0.7
        assert with_rbd.total() < without.total()
        assert with_rbd.intra_node_a2a > 0

    def test_rbd_useless_on_single_node(self):
        perf = make_perf("small", SystemKind.XMOE, ep=8, world=8)
        # One node: redundancy is high but there is no inter-node traffic to save.
        without = perf.dispatch_breakdown("flat")
        assert without.inter_node_a2a >= 0.0

    @pytest.mark.parametrize("dispatch", ["hier", "mesh"])
    def test_undecomposed_kinds_rejected(self, dispatch):
        perf = make_perf("small", SystemKind.XMOE, ep=8)
        with pytest.raises(ValueError, match="decomposes"):
            perf.dispatch_breakdown(dispatch)


class TestThroughput:
    def test_fig9_ordering_on_medium(self):
        """X-MoE > Tutel > TED in achieved TFLOPs on the Medium model."""
        xm = make_perf("medium", SystemKind.XMOE, ep=64, tp=2, use_ssmb=True, dispatch="rbd")
        tutel = make_perf("medium", SystemKind.TUTEL, ep=64)
        ted = make_perf("medium", SystemKind.DEEPSPEED_TED, ep=64, tp=4)
        assert xm.throughput_tflops_per_gpu() > tutel.throughput_tflops_per_gpu()
        assert tutel.throughput_tflops_per_gpu() > ted.throughput_tflops_per_gpu()

    def test_throughput_below_peak(self):
        perf = make_perf("small", SystemKind.XMOE, ep=8)
        assert 0 < perf.throughput_tflops_per_gpu() < perf.gpu.peak_tflops

    def test_fig10a_weak_scaling_shape(self):
        """Weak scaling: X-MoE stays above Tutel and degrades only mildly."""
        xmoe_tflops, tutel_tflops = [], []
        for world, gbs in ((16, 256), (64, 1024), (256, 4096)):
            xmoe_tflops.append(
                make_perf("small", SystemKind.XMOE, ep=8, world=world, gbs=gbs, dispatch="rbd")
                .throughput_tflops_per_gpu()
            )
            tutel_tflops.append(
                make_perf("small", SystemKind.TUTEL, ep=8, world=world, gbs=gbs)
                .throughput_tflops_per_gpu()
            )
        assert all(x > t for x, t in zip(xmoe_tflops, tutel_tflops))
        assert xmoe_tflops[-1] > 0.7 * xmoe_tflops[0]
        assert xmoe_tflops[0] >= xmoe_tflops[-1]

    def test_fig10b_strong_scaling_shape(self):
        """Strong scaling: iteration time shrinks as GPUs grow at fixed batch."""
        times = []
        for world in (128, 256, 512, 1024):
            perf = make_perf(
                "medium", SystemKind.XMOE, ep=64, world=world, gbs=2048, dispatch="rbd"
            )
            times.append(perf.iteration_time())
        assert all(a > b for a, b in zip(times, times[1:]))
        # Diminishing returns at the largest scale (cross-rack congestion).
        first_speedup = times[0] / times[1]
        last_speedup = times[2] / times[3]
        assert last_speedup <= first_speedup + 0.2

    def test_fig20_topk_scaling(self):
        """Higher top-k slows everyone, but X-MoE degrades less than Tutel."""
        ratios = []
        for k in (4, 8, 16):
            model = paper_config("large").scaled(top_k=k)
            parallel = ParallelConfig(
                world_size=256, ep_size=64, tp_size=2, use_ssmb=True, dispatch="rbd",
                micro_batch_size=1, global_batch_size=1024,
            )
            xm = MoEPerformanceModel(model, parallel, SYS256, SystemKind.XMOE)
            tu = MoEPerformanceModel(
                model,
                ParallelConfig(world_size=256, ep_size=64, micro_batch_size=1, global_batch_size=1024),
                SYS256,
                SystemKind.TUTEL,
            )
            ratios.append(xm.throughput_tflops_per_gpu() / tu.throughput_tflops_per_gpu())
        assert ratios[-1] > ratios[0]

    def test_fig14_ssmb_beats_checkpointing(self):
        ssmb = make_perf("large", SystemKind.XMOE, ep=64, tp=2, use_ssmb=True, dispatch="rbd")
        base = ParallelConfig(
            world_size=256, ep_size=64, tp_size=2, activation_checkpointing=True,
            micro_batch_size=1, global_batch_size=1024, dispatch="rbd",
        )
        ckpt = MoEPerformanceModel(paper_config("large"), base, SYS256, SystemKind.XMOE)
        assert ssmb.throughput_tflops_per_gpu() > ckpt.throughput_tflops_per_gpu()
