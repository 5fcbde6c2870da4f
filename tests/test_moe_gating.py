"""Tests for top-k gating and the softmax router's two dropping rules."""

import numpy as np
import pytest

from repro.moe import TopKGate
from repro.routing import SoftmaxTopKPolicy
from repro.tensor import Tensor


@pytest.fixture
def tokens(rng):
    return Tensor(rng.normal(size=(32, 16)))


class TestTopKGate:
    def test_output_shapes(self, tokens):
        gate = TopKGate(16, 8, 3, rng=np.random.default_rng(0))
        out = gate(tokens)
        assert out.logits.shape == (32, 8)
        assert out.probs.shape == (32, 8)
        assert out.top_experts.shape == (32, 3)
        assert out.top_scores.shape == (32, 3)

    def test_probs_sum_to_one(self, tokens):
        gate = TopKGate(16, 8, 2, rng=np.random.default_rng(0))
        out = gate(tokens)
        np.testing.assert_allclose(out.probs.data.sum(axis=-1), 1.0)

    def test_top_experts_are_argmax_ordered(self, tokens):
        gate = TopKGate(16, 8, 4, rng=np.random.default_rng(0))
        out = gate(tokens)
        # Scores sorted descending and consistent with probs.
        assert (np.diff(out.top_scores, axis=-1) <= 1e-12).all()
        gathered = np.take_along_axis(out.probs.data, out.top_experts, axis=-1)
        np.testing.assert_allclose(gathered, out.top_scores)

    def test_distinct_experts_per_token(self, tokens):
        gate = TopKGate(16, 8, 6, rng=np.random.default_rng(0))
        out = gate(tokens)
        for row in out.top_experts:
            assert len(set(row.tolist())) == 6

    def test_capacity_only_policy_never_marks_drops(self, tokens):
        gate = TopKGate(16, 8, 2, rng=np.random.default_rng(0))
        assert not gate(tokens).drop_eligible.any()

    def test_score_threshold_policy_marks_negative_logits(self, tokens):
        gate = TopKGate(
            16, 8, 8, rng=np.random.default_rng(0),
            policy=SoftmaxTopKPolicy(16, 8, 8, score_threshold=True),
        )
        out = gate(tokens)
        raw = np.take_along_axis(out.logits.data, out.top_experts, axis=-1)
        np.testing.assert_array_equal(out.drop_eligible, raw < 0)
        # With top-k = E some selected logits are negative.
        assert out.drop_eligible.any()

    def test_aux_loss_positive_and_differentiable(self, rng):
        gate = TopKGate(16, 8, 2, rng=np.random.default_rng(0))
        tokens = Tensor(rng.normal(size=(64, 16)), requires_grad=True)
        out = gate(tokens)
        assert float(out.aux_loss.data) > 0
        out.aux_loss.backward()
        assert gate.weight.grad is not None

    def test_aux_loss_lower_for_balanced_routing(self):
        """A perfectly balanced router should have lower aux loss than a
        collapsed one routing everything to a single expert."""
        gate = TopKGate(4, 4, 1, rng=np.random.default_rng(0), aux_loss_coef=1.0)
        balanced_probs = Tensor(np.full((8, 4), 0.25))
        collapsed_probs = Tensor(
            np.tile(np.array([0.97, 0.01, 0.01, 0.01]), (8, 1))
        )
        balanced_assign = np.arange(8).reshape(8, 1) % 4
        collapsed_assign = np.zeros((8, 1), dtype=np.int64)
        bal = gate._load_balancing_loss(balanced_probs, balanced_assign)
        col = gate._load_balancing_loss(collapsed_probs, collapsed_assign)
        assert float(bal.data) < float(col.data)

    def test_expert_load_histogram(self, tokens):
        gate = TopKGate(16, 8, 2, rng=np.random.default_rng(0))
        out = gate(tokens)
        load = gate.expert_load(out.top_experts)
        assert load.sum() == 32 * 2
        assert load.shape == (8,)

    def test_invalid_topk_rejected(self):
        with pytest.raises(ValueError):
            TopKGate(16, 4, 5)

    def test_wrong_token_shape_rejected(self, rng):
        gate = TopKGate(16, 4, 2)
        with pytest.raises(ValueError):
            gate(Tensor(rng.normal(size=(10, 8))))
