"""Integration tests: end-to-end training of the tiny MoE transformer with
both pipelines (the Fig. 15 loss-validation experiment, scaled down)."""

import numpy as np
import pytest

from repro.baselines import PaddedMoELayer
from repro.moe import MoETransformerLM, SyntheticLMDataset, TransformerConfig
from repro.tensor import Adam
from repro.xmoe import PaddingFreeMoELayer


def train(model, dataset, steps, lr=3e-3, seed=0):
    """Train for a few steps; returns the per-step LM losses."""
    opt = Adam(model.parameters(), lr=lr)
    losses = []
    for _ in range(steps):
        seq = dataset.sample_sequence()
        opt.zero_grad()
        loss, lm_loss = model.loss(seq)
        loss.backward()
        opt.step()
        losses.append(lm_loss)
    return losses


@pytest.fixture(scope="module")
def tiny_config():
    return TransformerConfig(
        vocab_size=96,
        hidden_size=32,
        ffn_hidden_size=16,
        num_experts=8,
        top_k=2,
        num_layers=2,
        seq_length=48,
        # Large enough that no token is ever dropped, so the padded and
        # padding-free pipelines are numerically identical step for step.
        capacity_factor=8.0,
    )


@pytest.mark.slow
class TestLossValidation:
    def test_loss_decreases_with_padding_free_pipeline(self, tiny_config):
        dataset = SyntheticLMDataset(tiny_config.vocab_size, tiny_config.seq_length, seed=0)
        model = MoETransformerLM(
            tiny_config,
            lambda g, e, c: PaddingFreeMoELayer(g, e, c),
            seed=1,
        )
        losses = train(model, dataset, steps=30)
        assert np.mean(losses[-5:]) < np.mean(losses[:5]) - 0.3

    def test_fig15_pipelines_track_each_other(self, tiny_config):
        """Trained from identical weights on identical data, the padded
        baseline and the padding-free pipeline produce closely matching loss
        curves (Fig. 15)."""
        dataset_a = SyntheticLMDataset(tiny_config.vocab_size, tiny_config.seq_length, seed=2)
        dataset_b = SyntheticLMDataset(tiny_config.vocab_size, tiny_config.seq_length, seed=2)
        padded_model = MoETransformerLM(
            tiny_config, lambda g, e, c: PaddedMoELayer(g, e, c), seed=7
        )
        pfree_model = MoETransformerLM(
            tiny_config, lambda g, e, c: PaddingFreeMoELayer(g, e, c), seed=7
        )
        losses_padded = train(padded_model, dataset_a, steps=25, seed=3)
        losses_pfree = train(pfree_model, dataset_b, steps=25, seed=3)
        diffs = np.abs(np.array(losses_padded) - np.array(losses_pfree))
        # With generous capacity the two pipelines are numerically identical,
        # so the curves track each other to numerical precision.
        assert diffs.max() < 1e-6

    def test_different_drop_policies_diverge_slightly(self, tiny_config):
        """With DeepSpeed's negative-score dropping the curves no longer match
        exactly, but they stay close (the paper's explanation of the small
        residual gap in Fig. 15)."""
        config_ds = TransformerConfig(**{**tiny_config.__dict__, "score_threshold": True})
        dataset_a = SyntheticLMDataset(tiny_config.vocab_size, tiny_config.seq_length, seed=4)
        dataset_b = SyntheticLMDataset(tiny_config.vocab_size, tiny_config.seq_length, seed=4)
        ds_model = MoETransformerLM(
            config_ds, lambda g, e, c: PaddedMoELayer(g, e, c), seed=9
        )
        xmoe_model = MoETransformerLM(
            tiny_config, lambda g, e, c: PaddingFreeMoELayer(g, e, c), seed=9
        )
        losses_ds = np.array(train(ds_model, dataset_a, steps=20, seed=5))
        losses_xmoe = np.array(train(xmoe_model, dataset_b, steps=20, seed=5))
        # Curves differ (different retained tokens) but track closely.
        assert np.abs(losses_ds - losses_xmoe).mean() < 0.5
        assert np.corrcoef(losses_ds, losses_xmoe)[0, 1] > 0.9


class TestEndToEndForwardBackward:
    def test_gradient_step_changes_outputs(self, tiny_config):
        dataset = SyntheticLMDataset(tiny_config.vocab_size, tiny_config.seq_length, seed=6)
        model = MoETransformerLM(
            tiny_config, lambda g, e, c: PaddingFreeMoELayer(g, e, c), seed=11
        )
        seq = dataset.sample_sequence()
        loss_before, _ = model.loss(seq)
        opt = Adam(model.parameters(), lr=1e-2)
        loss, _ = model.loss(seq)
        opt.zero_grad()
        loss.backward()
        opt.step()
        loss_after, _ = model.loss(seq)
        assert float(loss_after.data) != pytest.approx(float(loss_before.data))

    def test_training_with_megablocks_dispatcher(self, tiny_config):
        """The Megablocks baseline (the no-drop padding-free layout) also
        trains end to end."""
        dataset = SyntheticLMDataset(tiny_config.vocab_size, tiny_config.seq_length, seed=8)
        model = MoETransformerLM(
            tiny_config,
            lambda g, e, c: PaddingFreeMoELayer(g, e, capacity_factor=None),
            seed=13,
        )
        losses = train(model, dataset, steps=10)
        assert np.isfinite(losses).all()
