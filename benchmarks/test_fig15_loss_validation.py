"""Fig. 15 — loss-curve validation: X-MoE vs DeepSpeed-MoE.

Paper shape: training the same MoE LM with the DeepSpeed-MoE pipeline and
with X-MoE's padding-free pipeline produces loss curves that closely track
each other; the small residual gap comes from the different token-dropping
rules (DeepSpeed drops negative-score assignments, X-MoE drops only above
capacity, so X-MoE retains more tokens and ends slightly lower).

The experiment is scaled down (a tiny MoE transformer on synthetic data) but
uses exactly the two pipeline implementations under test.
"""

import numpy as np

from conftest import print_table

from repro.baselines import PaddedMoELayer
from repro.moe import MoETransformerLM, SyntheticLMDataset, TransformerConfig
from repro.tensor import Adam
from repro.xmoe import PaddingFreeMoELayer

STEPS = 40


def make_config(score_threshold):
    return TransformerConfig(
        vocab_size=128,
        hidden_size=32,
        ffn_hidden_size=16,
        num_experts=8,
        top_k=2,
        num_layers=2,
        seq_length=64,
        capacity_factor=1.5,
        score_threshold=score_threshold,
    )


def train_curve(model, seed):
    dataset = SyntheticLMDataset(128, 64, seed=seed)
    opt = Adam(model.parameters(), lr=3e-3)
    losses = []
    for _ in range(STEPS):
        seq = dataset.sample_sequence()
        opt.zero_grad()
        loss, lm_loss = model.loss(seq)
        loss.backward()
        opt.step()
        losses.append(lm_loss)
    return np.array(losses)


def run_validation():
    ds_model = MoETransformerLM(
        make_config(score_threshold=True),
        lambda g, e, c: PaddedMoELayer(g, e, c),
        seed=21,
    )
    xmoe_model = MoETransformerLM(
        make_config(score_threshold=False),
        lambda g, e, c: PaddingFreeMoELayer(g, e, c),
        seed=21,
    )
    return train_curve(ds_model, seed=5), train_curve(xmoe_model, seed=5)


def test_fig15_loss_validation(benchmark):
    ds_losses, xmoe_losses = benchmark.pedantic(run_validation, rounds=1, iterations=1)
    rows = [
        {"step": i, "DeepSpeed-MoE": ds_losses[i], "X-MoE": xmoe_losses[i]}
        for i in range(0, STEPS, 5)
    ]
    print_table("Fig. 15 — LM loss over iterations", rows)

    # Both pipelines learn: the loss drops substantially.
    assert xmoe_losses[-5:].mean() < xmoe_losses[:5].mean() - 0.3
    assert ds_losses[-5:].mean() < ds_losses[:5].mean() - 0.3
    # The two curves closely track each other...
    assert np.corrcoef(ds_losses, xmoe_losses)[0, 1] > 0.95
    assert np.abs(ds_losses - xmoe_losses).mean() < 0.3
    # ...and X-MoE (which retains more tokens) is not worse at the end.
    assert xmoe_losses[-10:].mean() <= ds_losses[-10:].mean() + 0.05
