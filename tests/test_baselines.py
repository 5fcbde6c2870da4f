"""Tests for the baseline systems: DeepSpeed-MoE, Tutel, TED, Megablocks.

Tutel runs the padded layout and Megablocks the no-drop padding-free one;
both are accounting on :class:`~repro.moe.layer.MoELayerStats`.
"""

import numpy as np
import pytest

from repro.baselines import PaddedMoELayer, TEDShardingModel
from repro.config import ParallelConfig, large_config
from repro.moe import ExpertBank, TopKGate, compute_capacity
from repro.routing import SoftmaxTopKPolicy
from repro.tensor import Tensor
from repro.xmoe import PaddingFreeMoELayer
from tests.helpers import ReferencePaddedMoELayer


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
        assert stats.kept_assignments + stats.dropped_by_capacity + stats.dropped_by_policy == 80

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
    """Tutel is the padded layout with an fp32 combine buffer on AMD."""

    def test_fp32_combine_on_amd(self, gate_and_experts, rng):
        gate, experts = gate_and_experts
        layer = PaddedMoELayer(gate, experts)
        layer(Tensor(rng.normal(size=(32, 16))))
        stats = layer.last_stats
        amd_bytes = stats.combine_buffer_bytes(4)
        assert amd_bytes == 2 * stats.combine_buffer_bytes(2)
        assert amd_bytes == 8 * stats.capacity * 16 * 4

    def test_same_numerics_as_deepspeed(self, rng):
        tokens = Tensor(rng.normal(size=(20, 16)))
        gate1 = TopKGate(16, 8, 2, rng=np.random.default_rng(3))
        experts1 = ExpertBank(8, 16, 12, rng=np.random.default_rng(4))
        gate2 = TopKGate(16, 8, 2, rng=np.random.default_rng(3))
        experts2 = ExpertBank(8, 16, 12, rng=np.random.default_rng(4))
        out1, _ = ReferencePaddedMoELayer(gate1, experts1)(tokens)
        out2, _ = PaddedMoELayer(gate2, experts2)(tokens)
        assert out1.data.tobytes() == out2.data.tobytes()

    def test_buffer_bytes_requires_forward(self, gate_and_experts, rng):
        gate, experts = gate_and_experts
        layer = PaddedMoELayer(gate, experts)
        assert layer.last_stats is None
        layer(Tensor(rng.normal(size=(8, 16))))
        assert layer.last_stats.combine_buffer_bytes(4) > 0


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
    """Megablocks is the no-drop padding-free layout (``capacity_factor=None``)
    with each expert group rounded up to a GEMM block."""

    def test_block_padding_overhead(self, rng):
        gate = TopKGate(16, 16, 4, rng=np.random.default_rng(5))
        experts = ExpertBank(16, 16, 8, rng=np.random.default_rng(6))
        layer = PaddingFreeMoELayer(gate, experts, capacity_factor=None)
        layer(Tensor(rng.normal(size=(64, 16))))
        stats = layer.last_stats
        # 64 tokens * k=4 = 256 assignments over 16 experts: every non-empty
        # expert group is rounded up to 128 rows, so padding is substantial.
        assert stats.kept_assignments == 256
        padded_rows = stats.block_padded_rows(128)
        assert padded_rows >= stats.kept_assignments
        assert 1.0 - stats.kept_assignments / padded_rows > 0.5

    def test_no_token_dropping(self, rng):
        gate = TopKGate(16, 8, 2, rng=np.random.default_rng(5))
        experts = ExpertBank(8, 16, 8, rng=np.random.default_rng(6))
        layer = PaddingFreeMoELayer(gate, experts, capacity_factor=None)
        layer(Tensor(rng.normal(size=(32, 16))))
        assert layer.last_stats.kept_assignments == 32 * 2  # every assignment retained
        assert layer.last_stats.dropped_by_capacity == 0

    def test_matches_padding_free_numerics(self, rng):
        """Megablocks never drops tokens, so a no-drop capacity factor on the
        padding-free pipeline gives the same outputs as no cap at all."""
        tokens = Tensor(rng.normal(size=(24, 16)))
        gate1 = TopKGate(16, 8, 2, rng=np.random.default_rng(3))
        experts1 = ExpertBank(8, 16, 12, rng=np.random.default_rng(4))
        gate2 = TopKGate(16, 8, 2, rng=np.random.default_rng(3))
        experts2 = ExpertBank(8, 16, 12, rng=np.random.default_rng(4))
        out1, _ = PaddingFreeMoELayer(gate1, experts1, capacity_factor=None)(tokens)
        out2, _ = PaddingFreeMoELayer(gate2, experts2, capacity_factor=100.0)(tokens)
        assert out1.data.tobytes() == out2.data.tobytes()

    def test_block_size_validation(self, gate_and_experts, rng):
        gate, experts = gate_and_experts
        layer = PaddingFreeMoELayer(gate, experts, capacity_factor=None)
        layer(Tensor(rng.normal(size=(8, 16))))
        with pytest.raises(ValueError):
            layer.last_stats.block_padded_rows(0)
