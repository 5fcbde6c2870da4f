"""The one MoE layer pipeline against the layers it replaced.

Both layouts run ``MoELayer.__call__``; these tests pin them bit for bit
(outputs and every gradient) to the verbatim oracles in
:mod:`tests.helpers`, and pin the two capacity rules that remain the only
real difference between the layouts.
"""

import numpy as np
import pytest

from repro.baselines import PaddedMoELayer
from repro.moe import ExpertBank, MoELayerStats, TopKGate, compute_capacity
from repro.routing import SoftmaxTopKPolicy, make_policy
from repro.tensor import Tensor
from repro.xmoe import PaddingFreeMoELayer
from tests.helpers import ReferenceMegablocksDispatcher, ReferencePaddedMoELayer

HIDDEN = 16
ROUTERS = ("softmax-topk", "score_threshold", "switch-top1", "noisy-topk", "expert-choice")
ACTIVATIONS = ("silu", "relu", "gelu")


def _gate(router, num_experts, top_k, seed):
    if router == "switch-top1":
        top_k = 1
    if router == "score_threshold":
        policy = SoftmaxTopKPolicy(HIDDEN, num_experts, top_k, score_threshold=True)
    else:
        policy = make_policy(router, HIDDEN, num_experts, top_k, seed=seed)
    return TopKGate(HIDDEN, num_experts, top_k, rng=np.random.default_rng(seed), policy=policy)


def _run_pair(make_layer, make_oracle, router, activation, *, tokens=40, experts=8, k=2, seed=0):
    """Forward + backward the layer and its oracle on identical weights and
    tokens; returns ``(layer, [(name, layer_bytes, oracle_bytes)])``."""
    data = np.random.default_rng((seed, 1)).normal(size=(tokens, HIDDEN))
    runs = []
    for make in (make_layer, make_oracle):
        gate = _gate(router, experts, k, seed)
        bank = ExpertBank(
            experts, HIDDEN, 12, rng=np.random.default_rng((seed, 2)), activation=activation
        )
        layer = make(gate, bank)
        x = Tensor(data.copy(), requires_grad=True)
        for _ in range(2):  # the second call exercises the step counter
            out, aux = layer(x)
        ((out * out).sum() + aux).backward()
        runs.append((layer, [out.data, x.grad, gate.weight.grad, bank.w1.grad, bank.w2.grad]))
    (layer, got), (_, want) = runs
    names = ("output", "tokens.grad", "gate.grad", "w1.grad", "w2.grad")
    return layer, [(n, g.tobytes(), w.tobytes()) for n, g, w in zip(names, got, want)]


@pytest.mark.parametrize("router", ROUTERS)
@pytest.mark.parametrize("activation", ACTIVATIONS)
@pytest.mark.parametrize("capacity_factor", [0.5, 1.25, 100.0])
def test_padded_layer_bitwise_matches_oracle(capacity_factor, activation, router):
    layer, pairs = _run_pair(
        lambda g, e: PaddedMoELayer(g, e, capacity_factor),
        lambda g, e: ReferencePaddedMoELayer(g, e, capacity_factor),
        router,
        activation,
    )
    for name, got, want in pairs:
        assert got == want, name
    stats = layer.last_stats
    assert stats.buffer_rows == 8 * stats.capacity
    if capacity_factor == 0.5:
        assert stats.dropped_by_capacity > 0


# Expert-choice is left out: Megablocks grouped its rows in decision order,
# the PFT in token order, so the weight gradients sum in another order.
@pytest.mark.parametrize("router", ["softmax-topk", "switch-top1", "noisy-topk"])
@pytest.mark.parametrize("activation", ACTIVATIONS)
@pytest.mark.parametrize("shape", [(24, 8, 2), (40, 16, 4), (64, 4, 1), (7, 32, 6)])
def test_no_cap_padding_free_bitwise_matches_megablocks_oracle(shape, activation, router):
    tokens, experts, k = shape
    layer, pairs = _run_pair(
        lambda g, e: PaddingFreeMoELayer(g, e, capacity_factor=None),
        ReferenceMegablocksDispatcher,
        router,
        activation,
        tokens=tokens,
        experts=experts,
        k=k,
        seed=tokens,
    )
    for name, got, want in pairs:
        assert got == want, name
    assert layer.last_stats.capacity is None
    assert layer.last_stats.dropped_by_capacity == 0


def _kept_pairs(layer, tokens):
    """The (token, expert) pairs a layer's last forward kept."""
    gate_out = layer.gate(tokens, step=0)
    capacity = compute_capacity(
        tokens.shape[0], layer.gate.top_k, layer.gate.num_experts, layer.capacity_factor
    )
    token_idx, expert_idx, _, _ = layer._layout(gate_out.decision, capacity)
    return gate_out, capacity, set(zip(token_idx.tolist(), expert_idx.tolist()))


def test_capacity_rules_differ_first_come_vs_highest_score():
    """Padded keeps each expert's first C assignments in token order; the
    PFT keeps each expert's C highest scores.  Binding capacity (S=64, E=8,
    k=2, C=4) makes the kept sets differ."""
    tokens = Tensor(np.random.default_rng(3).normal(size=(64, HIDDEN)))
    layers = [
        cls(TopKGate(HIDDEN, 8, 2, rng=np.random.default_rng(4)), ExpertBank(8, HIDDEN, 8), 0.25)
        for cls in (PaddedMoELayer, PaddingFreeMoELayer)
    ]
    (gate_out, capacity, padded), (_, _, pfree) = (_kept_pairs(layer, tokens) for layer in layers)
    assert capacity == 4
    decision = gate_out.decision
    first_come, highest = set(), set()
    for e in range(8):
        mine = np.flatnonzero(decision.expert_ids == e)
        assert mine.size > capacity  # capacity binds on every expert
        by_token = mine[np.argsort(decision.token_ids[mine], kind="stable")]
        by_score = mine[np.argsort(-decision.scores[mine], kind="stable")]
        first_come |= {(int(decision.token_ids[i]), e) for i in by_token[:capacity]}
        highest |= {(int(decision.token_ids[i]), e) for i in by_score[:capacity]}
    assert padded == first_come
    assert pfree == highest
    assert padded != pfree


def test_stats_accounting_for_every_system():
    stats = MoELayerStats(
        num_tokens=10,
        num_assignments=20,
        capacity=4,
        hidden_size=8,
        tokens_per_expert=np.array([4, 0, 3, 1]),
        buffer_rows=16,
        dropped_by_policy=2,
    )
    assert stats.kept_assignments == 8
    assert stats.dropped_by_capacity == 10
    assert stats.padding_fraction == 0.5
    assert stats.dispatch_buffer_bytes == stats.alltoall_bytes == 16 * 8 * 8
    assert stats.dispatch_mask_bytes == 10 * 16 * 8
    # Megablocks: non-empty groups round up to the block, empty ones launch none.
    assert stats.block_padded_rows(4) == 4 + 4 + 4
    assert stats.block_padded_rows(1) == 8
    # Tutel: the fp32 combine buffer is twice the bf16 one.
    assert stats.combine_buffer_bytes(4) == 2 * stats.combine_buffer_bytes(2) == 16 * 8 * 4


def test_padded_layout_needs_a_capacity_factor():
    with pytest.raises(ValueError):
        PaddedMoELayer(TopKGate(HIDDEN, 4, 2), ExpertBank(4, HIDDEN, 8), capacity_factor=None)
