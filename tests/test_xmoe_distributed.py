"""Tests for the multi-rank (distributed) padding-free dispatch/combine."""

import numpy as np
import pytest

from repro.comm import CommWorld
from repro.moe import TopKGate
from repro.routing import make_dispatcher
from repro.tensor import Tensor
from repro.xmoe import build_pft
from repro.xmoe.kernels import gather_kernel, scatter_kernel, sequential_gemm


def build_world(num_ranks, num_experts, hidden, ffn, top_k, tokens_per_rank, seed=0):
    """A simulated EP world with per-rank tokens, PFTs, and expert weights."""
    rng = np.random.default_rng(seed)
    world = CommWorld(num_ranks=num_ranks)
    group = world.world_group()
    gate = TopKGate(hidden, num_experts, top_k, rng=np.random.default_rng(seed + 1))
    w1 = rng.normal(size=(num_experts, hidden, ffn))
    w2 = rng.normal(size=(num_experts, ffn, hidden))
    tokens, pfts = [], []
    for _ in range(num_ranks):
        toks = rng.normal(size=(tokens_per_rank, hidden))
        gate_out = gate(Tensor(toks))
        pfts.append(build_pft(10**6, gate_out.top_experts, gate_out.top_scores, num_experts))
        tokens.append(toks)
    return world, group, w1, w2, tokens, pfts


def local_reference(tokens, pft, w1, w2, num_tokens):
    """Single-process reference for one rank's MoE layer output."""
    gathered = gather_kernel(tokens, pft.token_ids)
    out = sequential_gemm(gathered, w1, w2, pft.tokens_per_expert)
    return scatter_kernel(out, pft.token_ids, pft.combine_weights, num_tokens)


class TestDistributedDispatch:
    @pytest.mark.parametrize("num_ranks,num_experts", [(4, 8), (8, 16), (16, 32)])
    def test_roundtrip_matches_local_reference(self, num_ranks, num_experts):
        world, group, w1, w2, tokens, pfts = build_world(
            num_ranks, num_experts, hidden=12, ffn=6, top_k=3, tokens_per_rank=20
        )
        disp = make_dispatcher(group, num_experts)
        inputs, state = disp.dispatch(tokens, pfts)
        pw1 = [w1[disp.experts_on_rank(r)] for r in range(num_ranks)]
        pw2 = [w2[disp.experts_on_rank(r)] for r in range(num_ranks)]
        outputs = disp.run_experts(inputs, state, pw1, pw2)
        combined = disp.combine(outputs, state, [20] * num_ranks)
        for r in range(num_ranks):
            ref = local_reference(tokens[r], pfts[r], w1, w2, 20)
            np.testing.assert_allclose(combined[r], ref, atol=1e-10)

    def test_expert_inputs_grouped_by_expert(self):
        world, group, w1, w2, tokens, pfts = build_world(4, 8, 12, 6, 2, 16)
        disp = make_dispatcher(group, 8)
        inputs, state = disp.dispatch(tokens, pfts)
        for r in range(4):
            counts = state.tokens_per_local_expert[r]
            assert counts.sum() == inputs[r].shape[0]
            assert counts.size == 2  # 8 experts over 4 ranks

    def test_total_routed_tokens_conserved(self):
        world, group, w1, w2, tokens, pfts = build_world(8, 16, 10, 5, 4, 24)
        disp = make_dispatcher(group, 16)
        inputs, state = disp.dispatch(tokens, pfts)
        sent = sum(p.num_routed_tokens for p in pfts)
        received = sum(inp.shape[0] for inp in inputs)
        assert sent == received

    def test_no_padding_travels(self):
        """The all-to-all moves exactly the routed-token bytes, no more."""
        world, group, w1, w2, tokens, pfts = build_world(4, 8, 12, 6, 2, 16)
        disp = make_dispatcher(group, 8)
        disp.dispatch(tokens, pfts)
        dispatch_events = [e for e in world.stats.events if e.op == "dispatch_a2a"]
        assert len(dispatch_events) == 1
        expected = sum(p.num_routed_tokens for p in pfts) * 12 * 8  # float64 rows
        assert dispatch_events[0].total_bytes == pytest.approx(expected)

    def test_custom_expert_map(self):
        world, group, w1, w2, tokens, pfts = build_world(4, 8, 12, 6, 2, 16)
        # Reverse mapping: expert e lives on rank (3 - e // 2).
        expert_to_rank = np.repeat(np.arange(3, -1, -1), 2)
        disp = make_dispatcher(group, 8, expert_to_rank=expert_to_rank)
        inputs, state = disp.dispatch(tokens, pfts)
        pw1 = [w1[disp.experts_on_rank(r)] for r in range(4)]
        pw2 = [w2[disp.experts_on_rank(r)] for r in range(4)]
        outputs = disp.run_experts(inputs, state, pw1, pw2)
        combined = disp.combine(outputs, state, [16] * 4)
        for r in range(4):
            ref = local_reference(tokens[r], pfts[r], w1, w2, 16)
            np.testing.assert_allclose(combined[r], ref, atol=1e-10)

    def test_expert_count_must_divide(self):
        world = CommWorld(num_ranks=4)
        with pytest.raises(ValueError):
            make_dispatcher(world.world_group(), 6)

    def test_bad_expert_map_rejected(self):
        world = CommWorld(num_ranks=4)
        with pytest.raises(ValueError):
            make_dispatcher(world.world_group(), 8, expert_to_rank=np.full(8, 7))
        with pytest.raises(ValueError):
            make_dispatcher(world.world_group(), 8, expert_to_rank=np.zeros(5, dtype=int))
