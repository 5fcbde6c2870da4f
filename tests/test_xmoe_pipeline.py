"""Tests for the padding-free MoE pipeline, including exact equivalence with
the zero-padded baseline — the core correctness claim of §4.1."""

import numpy as np
import pytest

from repro.baselines import PaddedMoELayer
from repro.moe import ExpertBank, TopKGate
from repro.tensor import Tensor
from repro.xmoe import PaddingFreeMoELayer


def make_pair(seed_gate=1, seed_experts=2, h=16, e=8, k=2, f=12):
    """Two (gate, experts) pairs with bit-identical weights."""
    pairs = []
    for _ in range(2):
        gate = TopKGate(h, e, k, rng=np.random.default_rng(seed_gate))
        experts = ExpertBank(e, h, f, rng=np.random.default_rng(seed_experts))
        pairs.append((gate, experts))
    return pairs


class TestPaddingFreeMoELayer:
    def test_output_shape(self, rng):
        gate = TopKGate(16, 8, 2, rng=np.random.default_rng(0))
        experts = ExpertBank(8, 16, 12, rng=np.random.default_rng(1))
        layer = PaddingFreeMoELayer(gate, experts)
        out, aux = layer(Tensor(rng.normal(size=(40, 16))))
        assert out.shape == (40, 16)
        assert np.isfinite(out.data).all()

    def test_matches_padded_baseline_outputs(self, rng):
        """With no token dropping, the padding-free and padded pipelines are
        numerically identical (same gate, same experts, same tokens)."""
        (g1, e1), (g2, e2) = make_pair()
        tokens = rng.normal(size=(48, 16))
        out_padded, _ = PaddedMoELayer(g1, e1, capacity_factor=100.0)(Tensor(tokens))
        out_pfree, _ = PaddingFreeMoELayer(g2, e2, capacity_factor=100.0)(Tensor(tokens))
        np.testing.assert_allclose(out_padded.data, out_pfree.data, atol=1e-10)

    def test_matches_padded_baseline_gradients(self, rng):
        """Gradients w.r.t. tokens, gate and expert weights also match."""
        (g1, e1), (g2, e2) = make_pair()
        data = rng.normal(size=(32, 16))
        t1 = Tensor(data.copy(), requires_grad=True)
        t2 = Tensor(data.copy(), requires_grad=True)
        out1, aux1 = PaddedMoELayer(g1, e1, capacity_factor=100.0)(t1)
        out2, aux2 = PaddingFreeMoELayer(g2, e2, capacity_factor=100.0)(t2)
        ((out1 * out1).sum() + aux1).backward()
        ((out2 * out2).sum() + aux2).backward()
        np.testing.assert_allclose(t1.grad, t2.grad, atol=1e-10)
        np.testing.assert_allclose(g1.weight.grad, g2.weight.grad, atol=1e-10)
        np.testing.assert_allclose(e1.w1.grad, e2.w1.grad, atol=1e-10)
        np.testing.assert_allclose(e1.w2.grad, e2.w2.grad, atol=1e-10)

    def test_no_padding_in_stats(self, rng):
        gate = TopKGate(16, 8, 4, rng=np.random.default_rng(0))
        experts = ExpertBank(8, 16, 12, rng=np.random.default_rng(1))
        layer = PaddingFreeMoELayer(gate, experts, capacity_factor=1.25)
        layer(Tensor(rng.normal(size=(64, 16))))
        stats = layer.last_stats
        assert stats.padding_fraction == 0.0
        # The buffer holds at most the surviving assignments.
        assert stats.kept_assignments <= 64 * 4
        assert stats.dispatch_buffer_bytes == stats.kept_assignments * 16 * stats.dtype_bytes

    def test_memory_smaller_than_padded_baseline(self, rng):
        """The headline memory claim: the padding-free dispatch buffer plus
        metadata is smaller than the padded buffer plus dispatch mask."""
        (g1, e1), (g2, e2) = make_pair(h=16, e=16, k=4)
        tokens = rng.normal(size=(64, 16))
        padded = PaddedMoELayer(g1, e1, capacity_factor=1.25)
        pfree = PaddingFreeMoELayer(g2, e2, capacity_factor=1.25)
        padded(Tensor(tokens))
        pfree(Tensor(tokens))
        padded_bytes = (
            padded.last_stats.dispatch_buffer_bytes + padded.last_stats.dispatch_mask_bytes
        )
        pfree_bytes = pfree.last_stats.dispatch_buffer_bytes + pfree.last_pft.eri_bytes()
        assert pfree_bytes < padded_bytes

    def test_capacity_dropping_matches_pft(self, rng):
        gate = TopKGate(16, 4, 4, rng=np.random.default_rng(0))
        experts = ExpertBank(4, 16, 8, rng=np.random.default_rng(1))
        layer = PaddingFreeMoELayer(gate, experts, capacity_factor=0.5)
        layer(Tensor(rng.normal(size=(64, 16))))
        assert layer.last_stats.dropped_by_capacity > 0
        assert layer.last_pft.dropped_assignments == layer.last_stats.dropped_by_capacity

    def test_mismatched_gate_experts_rejected(self):
        gate = TopKGate(16, 8, 2)
        experts = ExpertBank(4, 16, 8)
        with pytest.raises(ValueError):
            PaddingFreeMoELayer(gate, experts)

    def test_parameters_exposed(self, tiny_gate_experts):
        gate, experts = tiny_gate_experts
        layer = PaddingFreeMoELayer(gate, experts)
        params = layer.parameters()
        assert gate.weight in params and experts.w1 in params and experts.w2 in params
