"""Tests for the baseline systems: DeepSpeed-MoE, Tutel, TED, Megablocks."""

import numpy as np
import pytest

from repro.baselines import (
    MegablocksDispatcher,
    PaddedMoELayer,
    TEDShardingModel,
    TutelMoELayer,
)
from repro.baselines.deepspeed_moe import compute_capacity
from repro.config import ParallelConfig, large_config
from repro.moe import ExpertBank, TopKGate
from repro.routing import SoftmaxTopKPolicy
from repro.tensor import Tensor


@pytest.fixture
def gate_and_experts():
    gate = TopKGate(16, 8, 2, rng=np.random.default_rng(7))
    experts = ExpertBank(8, 16, 12, rng=np.random.default_rng(8))
    return gate, experts


class TestComputeCapacity:
    def test_gshard_formula(self):
        assert compute_capacity(2048, 6, 64, 1.25) == int(np.ceil(1.25 * 2048 * 6 / 64))

    def test_minimum_capacity_is_one(self):
        assert compute_capacity(1, 1, 64, 1.0) == 1

    def test_rejects_zero_tokens(self):
        with pytest.raises(ValueError):
            compute_capacity(0, 2, 8, 1.25)


class TestPaddedMoELayer:
    def test_output_shape_and_stats(self, gate_and_experts, rng):
        gate, experts = gate_and_experts
        layer = PaddedMoELayer(gate, experts, capacity_factor=1.25)
        tokens = Tensor(rng.normal(size=(40, 16)))
        out, aux = layer(tokens)
        assert out.shape == (40, 16)
        stats = layer.last_stats
        assert stats.num_tokens == 40
        assert stats.capacity == compute_capacity(40, 2, 8, 1.25)
        assert 0.0 <= stats.padding_fraction < 1.0
        assert stats.kept_assignments + stats.dropped_by_capacity + stats.dropped_by_score == 80

    def test_no_drops_with_huge_capacity(self, gate_and_experts, rng):
        gate, experts = gate_and_experts
        layer = PaddedMoELayer(gate, experts, capacity_factor=100.0)
        layer(Tensor(rng.normal(size=(16, 16))))
        assert layer.last_stats.dropped_by_capacity == 0

    def test_capacity_dropping_occurs_when_tight(self, rng):
        gate = TopKGate(16, 4, 4, rng=np.random.default_rng(1))
        experts = ExpertBank(4, 16, 8, rng=np.random.default_rng(2))
        layer = PaddedMoELayer(gate, experts, capacity_factor=0.5)
        layer(Tensor(rng.normal(size=(64, 16))))
        assert layer.last_stats.dropped_by_capacity > 0

    def test_score_threshold_policy_drops_more(self, rng):
        tokens = Tensor(rng.normal(size=(48, 16)))
        kept = {}
        for score_threshold in (False, True):
            policy = SoftmaxTopKPolicy(16, 8, 8, score_threshold=score_threshold)
            gate = TopKGate(16, 8, 8, rng=np.random.default_rng(1), policy=policy)
            experts = ExpertBank(8, 16, 8, rng=np.random.default_rng(2))
            layer = PaddedMoELayer(gate, experts, capacity_factor=100.0)
            layer(tokens)
            kept[score_threshold] = layer.last_stats.kept_assignments
        # X-MoE's capacity-only rule retains more tokens (§5.6).
        assert kept[False] > kept[True]

    def test_dispatch_mask_bytes_dominate(self, gate_and_experts, rng):
        gate, experts = gate_and_experts
        layer = PaddedMoELayer(gate, experts)
        layer(Tensor(rng.normal(size=(64, 16))))
        stats = layer.last_stats
        assert stats.dispatch_mask_bytes > stats.dispatch_buffer_bytes

    def test_gradients_flow(self, gate_and_experts, rng):
        gate, experts = gate_and_experts
        layer = PaddedMoELayer(gate, experts)
        tokens = Tensor(rng.normal(size=(24, 16)), requires_grad=True)
        out, aux = layer(tokens)
        ((out * out).sum() + aux).backward()
        assert tokens.grad is not None
        assert gate.weight.grad is not None


class TestTutel:
    def test_fp32_combine_on_amd(self, gate_and_experts, rng):
        gate, experts = gate_and_experts
        layer = TutelMoELayer(gate, experts, on_amd=True)
        layer(Tensor(rng.normal(size=(32, 16))))
        amd_bytes = layer.combine_buffer_bytes()
        gate2 = TopKGate(16, 8, 2, rng=np.random.default_rng(7))
        experts2 = ExpertBank(8, 16, 12, rng=np.random.default_rng(8))
        layer2 = TutelMoELayer(gate2, experts2, on_amd=False)
        layer2(Tensor(rng.normal(size=(32, 16))))
        assert amd_bytes == 2 * layer2.combine_buffer_bytes()

    def test_same_numerics_as_deepspeed(self, rng):
        tokens = Tensor(rng.normal(size=(20, 16)))
        gate1 = TopKGate(16, 8, 2, rng=np.random.default_rng(3))
        experts1 = ExpertBank(8, 16, 12, rng=np.random.default_rng(4))
        gate2 = TopKGate(16, 8, 2, rng=np.random.default_rng(3))
        experts2 = ExpertBank(8, 16, 12, rng=np.random.default_rng(4))
        out1, _ = PaddedMoELayer(gate1, experts1)(tokens)
        out2, _ = TutelMoELayer(gate2, experts2)(tokens)
        np.testing.assert_allclose(out1.data, out2.data)

    def test_buffer_bytes_requires_forward(self, gate_and_experts):
        gate, experts = gate_and_experts
        with pytest.raises(RuntimeError):
            TutelMoELayer(gate, experts).combine_buffer_bytes()


class TestTED:
    def test_tp_slices_experts_and_interm(self):
        model = large_config()
        parallel = ParallelConfig(world_size=256, ep_size=64, tp_size=4, global_batch_size=1024)
        ted = TEDShardingModel(model, parallel)
        base = TEDShardingModel(
            model, ParallelConfig(world_size=256, ep_size=64, tp_size=1, global_batch_size=1024)
        )
        assert ted.expert_params_per_device() == pytest.approx(
            base.expert_params_per_device() / 4
        )
        assert ted.interm_activation_scale() == pytest.approx(0.25)

    def test_dispatch_activations_not_reduced(self):
        """The core observation of §4.3: TED leaves A_dispatch untouched."""
        model = large_config()
        for tp in (1, 2, 4, 8):
            parallel = ParallelConfig(world_size=256, ep_size=64, tp_size=tp, global_batch_size=1024)
            assert TEDShardingModel(model, parallel).dispatch_activation_scale() == 1.0

    def test_tp_allreduce_volume(self):
        model = large_config()
        parallel = ParallelConfig(world_size=256, ep_size=64, tp_size=2, global_batch_size=1024)
        ted = TEDShardingModel(model, parallel)
        assert ted.extra_allreduce_bytes_per_layer(4096) > 0
        solo = TEDShardingModel(
            model, ParallelConfig(world_size=256, ep_size=64, tp_size=1, global_batch_size=1024)
        )
        assert solo.extra_allreduce_bytes_per_layer(4096) == 0.0


class TestMegablocks:
    def test_block_padding_overhead(self, rng):
        gate = TopKGate(16, 16, 4, rng=np.random.default_rng(5))
        experts = ExpertBank(16, 16, 8, rng=np.random.default_rng(6))
        dispatcher = MegablocksDispatcher(gate, experts, block_size=128)
        dispatcher(Tensor(rng.normal(size=(64, 16))))
        stats = dispatcher.last_stats
        # 64 tokens * k=4 = 256 assignments over 16 experts: every non-empty
        # expert group is rounded up to 128 rows, so padding is substantial.
        assert stats.real_rows == 256
        assert stats.padded_rows >= stats.real_rows
        assert stats.padding_fraction > 0.5

    def test_no_token_dropping(self, rng):
        gate = TopKGate(16, 8, 2, rng=np.random.default_rng(5))
        experts = ExpertBank(8, 16, 8, rng=np.random.default_rng(6))
        dispatcher = MegablocksDispatcher(gate, experts, block_size=4)
        decision = gate(Tensor(rng.normal(size=(32, 16)))).decision
        token_idx, expert_idx, stats = dispatcher.plan_assignments(
            decision.token_ids, decision.expert_ids
        )
        assert token_idx.size == 32 * 2  # every assignment retained

    def test_matches_padding_free_numerics(self, rng):
        """Megablocks never drops tokens, so with a no-drop capacity the
        padding-free pipeline must produce identical outputs."""
        from repro.xmoe import PaddingFreeMoELayer

        tokens = Tensor(rng.normal(size=(24, 16)))
        gate1 = TopKGate(16, 8, 2, rng=np.random.default_rng(3))
        experts1 = ExpertBank(8, 16, 12, rng=np.random.default_rng(4))
        gate2 = TopKGate(16, 8, 2, rng=np.random.default_rng(3))
        experts2 = ExpertBank(8, 16, 12, rng=np.random.default_rng(4))
        out1, _ = MegablocksDispatcher(gate1, experts1, block_size=8)(tokens)
        out2, _ = PaddingFreeMoELayer(gate2, experts2, capacity_factor=100.0)(tokens)
        np.testing.assert_allclose(out1.data, out2.data, atol=1e-10)

    def test_block_size_validation(self, rng):
        gate = TopKGate(16, 8, 2)
        experts = ExpertBank(8, 16, 8)
        with pytest.raises(ValueError):
            MegablocksDispatcher(gate, experts, block_size=0)
