"""Tests for the expert bank's sequential execution path.

Every buffer layout runs it: the padded baseline's ``E*C`` buffer is a
grouped run with ``C`` rows per expert.  The path is one tape node (:func:`repro.tensor.ops.grouped_ffn`)
with a hand-written backward.  Its oracle is the composed graph it replaced
— per-expert slice → ``@ w1[e]`` → activation → ``@ w2[e]`` → ``concat`` —
kept here, and the two must agree bit for bit in outputs, gradients and
whole ZeRO training trajectories.
"""

import numpy as np
import pytest

from repro.moe import ExpertBank, MoETransformerLM, SyntheticLMDataset, TransformerConfig
from repro.moe.gating import TopKGate
from repro.tensor import Tensor, ops
from repro.xmoe.pipeline import PaddingFreeMoELayer
from tests.helpers import reference_forward_padded

ACTIVATIONS = ("silu", "relu", "gelu")


@pytest.fixture
def bank():
    return ExpertBank(4, 8, 6, rng=np.random.default_rng(0))


def composed_forward_sequential(bank, tokens, tokens_per_expert):
    """The per-expert autograd graph ``grouped_ffn`` replaces (the oracle)."""
    offsets = np.concatenate([[0], np.cumsum(tokens_per_expert)])
    outputs = []
    for e in range(bank.num_experts):
        lo, hi = int(offsets[e]), int(offsets[e + 1])
        if hi == lo:
            continue
        h = ops.activate(tokens[lo:hi] @ bank.w1[e], bank.activation)
        outputs.append(h @ bank.w2[e])
    if not outputs:
        return Tensor(np.zeros((0, bank.hidden_size)))
    return ops.concat(outputs, axis=0)


def _run(forward, activation, counts, seed=3):
    """Output and tokens/w1/w2 grads of ``sum(out * probe)`` for fresh params."""
    bank = ExpertBank(len(counts), 8, 6, rng=np.random.default_rng(seed), activation=activation)
    rng = np.random.default_rng(seed + 1)
    tokens = Tensor(rng.normal(size=(int(np.sum(counts)), 8)), requires_grad=True)
    out = forward(bank, tokens, np.asarray(counts))
    if out.requires_grad:
        # A signed probe makes some gradient entries exact zeros of either sign.
        probe = rng.normal(size=out.shape) * (rng.random(out.shape) < 0.7)
        (out * probe).sum().backward()
    return out.data, tokens.grad, bank.w1.grad, bank.w2.grad


def _one_hot(expert, num_experts, rows):
    counts = np.zeros(num_experts, dtype=np.int64)
    counts[expert] = rows
    return counts


class TestExpertBank:
    def test_param_shapes(self, bank):
        assert bank.w1.shape == (4, 8, 6)
        assert bank.w2.shape == (4, 6, 8)
        assert bank.params_per_expert == 2 * 8 * 6

    def test_forward_expert_matches_manual(self, bank, rng):
        x = rng.normal(size=(5, 8))
        out = bank.forward_sequential(Tensor(x), _one_hot(1, 4, 5)).data
        h = x @ bank.w1.data[1]
        h = h / (1 + np.exp(-h))
        np.testing.assert_allclose(out, h @ bank.w2.data[1])

    def test_padded_and_sequential_agree(self, rng):
        """The batched ``[E, C, H]`` matmul and the grouped run over the
        ``E*C`` buffer with ``C`` rows per expert agree bit for bit, zero
        padding rows included, in outputs and gradients."""
        capacity = 3
        counts = np.array([2, 0, 3, 1])
        padded = np.zeros((4, capacity, 8))
        for e, c in enumerate(counts):
            padded[e, :c] = rng.normal(size=(c, 8))
        probe = Tensor(rng.normal(size=(4 * capacity, 8)))
        for activation in ACTIVATIONS:
            runs = []
            for batched in (True, False):
                bank = ExpertBank(4, 8, 6, rng=np.random.default_rng(0), activation=activation)
                x = Tensor(padded.reshape(4 * capacity, 8).copy(), requires_grad=True)
                if batched:
                    out = reference_forward_padded(bank, x.reshape(4, capacity, 8))
                    out = out.reshape(4 * capacity, 8)
                else:
                    out = bank.forward_sequential(x, np.full(4, capacity))
                (out * probe).sum().backward()
                runs.append([a.tobytes() for a in (out.data, x.grad, bank.w1.grad, bank.w2.grad)])
            assert runs[0] == runs[1], activation

    def test_sequential_requires_matching_counts(self, bank, rng):
        tokens = Tensor(rng.normal(size=(5, 8)))
        with pytest.raises(ValueError):
            bank.forward_sequential(tokens, np.array([1, 1, 1, 1]))  # sums to 4
        with pytest.raises(ValueError):
            bank.forward_sequential(tokens, np.array([5, 0, 0]))  # wrong length

    def test_padded_shape_validation(self, bank, rng):
        """A padded buffer must hold exactly ``C`` rows for every expert."""
        with pytest.raises(ValueError):
            bank.forward_sequential(Tensor(rng.normal(size=(3 * 2, 8))), np.full(4, 2))

    def test_empty_experts_skip_gemm(self, bank, rng):
        counts = np.array([0, 4, 0, 0])
        tokens = Tensor(rng.normal(size=(4, 8)))
        out = bank.forward_sequential(tokens, counts)
        assert out.shape == (4, 8)

    def test_all_empty_returns_empty(self, bank):
        out = bank.forward_sequential(Tensor(np.zeros((0, 8))), np.zeros(4, dtype=int))
        assert out.shape == (0, 8)

    def test_gradients_flow_through_sequential(self, bank, rng):
        tokens = Tensor(rng.normal(size=(6, 8)), requires_grad=True)
        counts = np.array([2, 2, 1, 1])
        out = bank.forward_sequential(tokens, counts)
        (out * out).sum().backward()
        assert tokens.grad is not None
        assert bank.w1.grad is not None and bank.w2.grad is not None
        assert np.abs(bank.w1.grad).sum() > 0

    def test_activation_options(self, rng):
        for act in ACTIVATIONS:
            bank = ExpertBank(2, 4, 3, rng=np.random.default_rng(0), activation=act)
            out = bank.forward_sequential(Tensor(rng.normal(size=(3, 4))), _one_hot(0, 2, 3))
            assert out.shape == (3, 4)

    def test_unknown_activation_rejected_at_construction(self):
        with pytest.raises(ValueError, match="bogus"):
            ExpertBank(2, 4, 3, activation="bogus")

    def test_invalid_expert_id(self, bank, rng):
        with pytest.raises(ValueError):
            bank.forward_sequential(Tensor(rng.normal(size=(2, 8))), _one_hot(9, 10, 2))


class TestGroupedFFNBitIdentity:
    @pytest.mark.parametrize("activation", ACTIVATIONS)
    @pytest.mark.parametrize(
        "counts",
        [
            [3, 0, 4, 2],
            [0, 0, 5, 0],
            [1, 1, 1, 1],
            [0, 1, 0, 7, 1, 0],
            [0, 0, 0, 0],
        ],
        ids=["ragged", "one-expert", "single-rows", "sparse", "all-empty"],
    )
    def test_matches_composed_graph(self, activation, counts):
        fused = _run(ExpertBank.forward_sequential, activation, counts)
        oracle = _run(composed_forward_sequential, activation, counts)
        for got, want in zip(fused, oracle):
            if want is None:
                assert got is None
            else:
                assert np.array_equal(got, want)
                # Same signed zeros too, since array_equal treats -0.0 == 0.0.
                assert np.array_equal(np.signbit(got), np.signbit(want))

    @pytest.mark.parametrize("activation", ACTIVATIONS)
    def test_finite_difference_spot_check(self, activation):
        rng = np.random.default_rng(11)
        counts = np.array([2, 0, 3])
        x = rng.normal(size=(5, 4))
        w1 = rng.normal(size=(3, 4, 5))
        w2 = rng.normal(size=(3, 5, 4))
        probe = rng.normal(size=(5, 4))

        arrays = [x, w1, w2]
        params = [Tensor(a.copy(), requires_grad=True) for a in arrays]
        (ops.grouped_ffn(*params, counts, activation) * probe).sum().backward()

        def loss_at(which, index, delta):
            shifted = [a.copy() for a in arrays]
            shifted[which][index] += delta
            return float((ops.grouped_ffn(*shifted, counts, activation).data * probe).sum())

        eps = 1e-6
        for which, index in ((0, (3, 1)), (1, (2, 0, 4)), (2, (0, 1, 2))):
            numeric = (loss_at(which, index, eps) - loss_at(which, index, -eps)) / (2 * eps)
            assert params[which].grad[index] == pytest.approx(numeric, rel=1e-5)

    def test_grad_hooks_fire_once_per_backward(self, bank, rng):
        fired = {"w1": 0, "w2": 0}
        bank.w1.register_grad_hook(lambda g: fired.__setitem__("w1", fired["w1"] + 1))
        bank.w2.register_grad_hook(lambda g: fired.__setitem__("w2", fired["w2"] + 1))
        tokens = Tensor(rng.normal(size=(7, 8)), requires_grad=True)
        for step in range(1, 3):
            bank.forward_sequential(tokens, np.array([2, 0, 4, 1])).sum().backward()
            assert fired == {"w1": step, "w2": step}


def _train_zero2(steps=6, dp=2, seed=0):
    """Losses and final parameters of a tiny ZeRO-2 data-parallel run."""
    from repro.comm import CommWorld
    from repro.dist import ZeroOptimizer

    config = TransformerConfig(
        vocab_size=64,
        hidden_size=16,
        ffn_hidden_size=8,
        num_experts=4,
        top_k=2,
        num_layers=2,
        seq_length=16,
        router_seed=seed,
    )
    replicas = [
        MoETransformerLM(config, lambda g, e, c: PaddingFreeMoELayer(g, e, c), seed=seed)
        for _ in range(dp)
    ]
    params = [m.parameters() for m in replicas]
    optimizer = ZeroOptimizer(
        params, CommWorld(num_ranks=dp).world_group(), stage=2, lr=3e-3, bucket_bytes=1 << 10
    )
    datasets = [
        SyntheticLMDataset(config.vocab_size, config.seq_length, seed=seed + 1 + r)
        for r in range(dp)
    ]
    losses = []
    for _ in range(steps):
        optimizer.zero_grad()
        for replica, dataset in zip(replicas, datasets):
            loss, lm_loss = replica.loss(dataset.sample_sequence())
            loss.backward()
            losses.append(lm_loss)
        optimizer.step()
    return losses, [p.data.copy() for p in params[0]]


def test_zero2_training_matches_composed_graph(monkeypatch):
    fused_losses, fused_params = _train_zero2()
    monkeypatch.setattr(ExpertBank, "forward_sequential", composed_forward_sequential)
    oracle_losses, oracle_params = _train_zero2()
    assert fused_losses == oracle_losses
    assert all(np.array_equal(a, b) for a, b in zip(fused_params, oracle_params))


def _tape_nodes(root):
    """Distinct autograd nodes reachable from ``root`` through ``_parents``."""
    seen, stack = set(), [root]
    while stack:
        node = stack.pop()
        if id(node) not in seen:
            seen.add(id(node))
            stack.extend(node._parents)
    return len(seen)


def test_moe_layer_tape_size_is_independent_of_expert_count():
    """One expert bank is one tape node: a regression back to per-expert
    nodes grows the graph with the number of experts used."""
    counts = {}
    for num_experts in (4, 64):
        gate = TopKGate(8, num_experts, 2, rng=np.random.default_rng(1))
        gate.weight.data /= np.linalg.norm(gate.weight.data, axis=0)
        layer = PaddingFreeMoELayer(
            gate, ExpertBank(num_experts, 8, 4, rng=np.random.default_rng(2)), 4.0
        )
        # Unit gate columns as tokens: each expert is some token's top choice.
        tokens = Tensor(np.tile(gate.weight.data.T, (2, 1)), requires_grad=True)
        output, _ = layer(tokens)
        assert np.all(layer.last_pft.tokens_per_expert > 0)
        counts[num_experts] = _tape_nodes(output)
    assert counts[4] == counts[64]
