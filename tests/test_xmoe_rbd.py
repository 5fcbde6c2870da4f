"""Tests for Redundancy-Bypassing Dispatch: correctness and traffic savings."""

import numpy as np
import pytest

from repro.cluster.topology import LinkTier
from repro.comm import CommWorld
from repro.routing import make_dispatcher
from repro.xmoe.rbd import expected_redundancy_rate, redundancy_rate
from tests.helpers import inter_node_bytes
from tests.test_xmoe_distributed import build_world, local_reference


class TestRedundancyRate:
    def test_analytic_matches_paper_fig4(self):
        """Fig. 4: 256 experts, top-8, Frontier nodes of 8 GCDs."""
        expected = {16: 0.751, 32: 0.548, 64: 0.338, 128: 0.185, 256: 0.092}
        for ep, target in expected.items():
            rate = expected_redundancy_rate(256, 8, ep // 8)
            assert rate == pytest.approx(target, abs=0.03)

    def test_single_node_redundancy(self):
        # Everything co-located: only one copy per token needed.
        assert expected_redundancy_rate(64, 8, 1) == pytest.approx(1 - 1 / 8)

    def test_monotonic_in_nodes(self):
        rates = [expected_redundancy_rate(256, 8, n) for n in (1, 2, 4, 8, 16, 32)]
        assert all(a >= b for a, b in zip(rates, rates[1:]))

    def test_empirical_matches_analytic(self, rng):
        top_experts = np.stack(
            [rng.choice(64, size=6, replace=False) for _ in range(4000)], axis=0
        )
        expert_to_rank = np.repeat(np.arange(16), 4)
        rank_to_node = np.arange(16) // 8
        empirical = redundancy_rate(top_experts, expert_to_rank, rank_to_node)
        analytic = expected_redundancy_rate(64, 6, 2)
        assert empirical == pytest.approx(analytic, abs=0.02)

    def test_validation(self):
        with pytest.raises(ValueError):
            expected_redundancy_rate(64, 0, 2)
        with pytest.raises(ValueError):
            expected_redundancy_rate(64, 4, 0)
        with pytest.raises(ValueError):
            expected_redundancy_rate(10, 4, 3)


class TestRBDDispatcher:
    @pytest.mark.parametrize("num_ranks,num_experts,top_k", [(8, 16, 4), (16, 32, 4)])
    def test_output_matches_flat_dispatch(self, num_ranks, num_experts, top_k):
        """RBD must be numerically identical to the flat uneven all-to-all."""
        world, group, w1, w2, tokens, pfts = build_world(
            num_ranks, num_experts, hidden=10, ffn=5, top_k=top_k, tokens_per_rank=20
        )
        rbd = make_dispatcher(group, num_experts, kind="rbd", seed=11)
        inputs, state = rbd.dispatch(tokens, pfts)
        pw1 = [w1[rbd.experts_on_rank(r)] for r in range(num_ranks)]
        pw2 = [w2[rbd.experts_on_rank(r)] for r in range(num_ranks)]
        outputs = rbd.run_experts(inputs, state, pw1, pw2)
        combined = rbd.combine(outputs, state, [20] * num_ranks)
        for r in range(num_ranks):
            ref = local_reference(tokens[r], pfts[r], w1, w2, 20)
            np.testing.assert_allclose(combined[r], ref, atol=1e-10)

    def test_expert_inputs_match_flat_dispatcher(self):
        """Every expert receives the same buffer either way — the plan
        engine's canonical (expert, src, row) ordering makes the inputs
        identical row for row, not merely as multisets."""
        world1, group1, w1, w2, tokens, pfts = build_world(16, 32, 8, 4, 4, 16, seed=3)
        flat = make_dispatcher(group1, 32)
        flat_inputs, _ = flat.dispatch(tokens, pfts)

        world2 = CommWorld(num_ranks=16)
        rbd = make_dispatcher(world2.world_group(), 32, kind="rbd", seed=5)
        rbd_inputs, _ = rbd.dispatch(tokens, pfts)
        for r in range(16):
            np.testing.assert_array_equal(flat_inputs[r], rbd_inputs[r])

    def test_output_bit_identical_to_flat_dispatch(self):
        """Stronger than allclose: flat and RBD combine outputs are equal
        bit for bit because both fold partial sums in the same order."""
        world1, group1, w1, w2, tokens, pfts = build_world(16, 32, 10, 5, 6, 20, seed=6)
        flat = make_dispatcher(group1, 32)
        fin, fplan = flat.dispatch(tokens, pfts)
        pw1 = [w1[flat.experts_on_rank(r)] for r in range(16)]
        pw2 = [w2[flat.experts_on_rank(r)] for r in range(16)]
        fout = flat.combine(flat.run_experts(fin, fplan, pw1, pw2), fplan, [20] * 16)

        world2 = CommWorld(num_ranks=16)
        rbd = make_dispatcher(world2.world_group(), 32, kind="rbd", seed=8)
        rin, rplan = rbd.dispatch(tokens, pfts)
        rout = rbd.combine(rbd.run_experts(rin, rplan, pw1, pw2), rplan, [20] * 16)
        for r in range(16):
            assert fout[r].tobytes() == rout[r].tobytes()

    def test_reduces_inter_node_bytes(self):
        """The headline claim of §4.2: only pilot tokens cross nodes."""
        world1, group1, w1, w2, tokens, pfts = build_world(16, 32, 12, 6, 6, 24, seed=7)
        flat = make_dispatcher(group1, 32)
        flat.dispatch(tokens, pfts)
        flat_bytes = inter_node_bytes(world1.stats, {"dispatch_a2a"})

        world2 = CommWorld(num_ranks=16)
        rbd = make_dispatcher(world2.world_group(), 32, kind="rbd", seed=7)
        rbd.dispatch(tokens, pfts)
        rbd_bytes = inter_node_bytes(world2.stats, {"rbd_s1_a2a"})

        assert rbd_bytes < flat_bytes
        measured_reduction = 1.0 - rbd_bytes / flat_bytes
        # The reduction should be in the ballpark of the redundancy rate.
        assert measured_reduction > 0.25

    def test_stage2_traffic_is_intra_node(self):
        world, group, w1, w2, tokens, pfts = build_world(16, 32, 8, 4, 4, 16, seed=9)
        rbd = make_dispatcher(group, 32, kind="rbd", seed=9)
        rbd.dispatch(tokens, pfts)
        for event in world.stats.events:
            if event.op == "rbd_s2_a2a":
                assert event.bytes_by_tier.get(LinkTier.INTER_NODE, 0.0) == 0.0
                assert event.bytes_by_tier.get(LinkTier.CROSS_RACK, 0.0) == 0.0

    def test_plan_counts(self):
        world, group, w1, w2, tokens, pfts = build_world(16, 32, 8, 4, 4, 32, seed=1)
        rbd = make_dispatcher(group, 32, kind="rbd", seed=1)
        _, plan = rbd.dispatch(tokens, pfts)
        assert plan.total_assignments == sum(p.num_routed_tokens for p in pfts)
        assert plan.total_pilots + plan.num_replicas == plan.total_assignments
        assert 0.0 <= plan.redundancy < 1.0
        # A (source rank, token) going to n distinct nodes contributes
        # exactly n pilots, and only pilots cross the stage-1 all-to-all.
        expected_pilots = 0
        for pft in pfts:
            dest_nodes = rbd.rank_to_node[rbd.expert_to_rank[pft.expert_ids]]
            expected_pilots += np.unique(np.stack([pft.token_ids, dest_nodes]), axis=1).shape[1]
        assert plan.total_pilots == expected_pilots
        assert plan.sent_rows() == expected_pilots

    def test_stats_redundancy_consistent_with_plans(self):
        world, group, w1, w2, tokens, pfts = build_world(8, 16, 8, 4, 4, 16, seed=2)
        rbd = make_dispatcher(group, 16, kind="rbd", seed=2)
        _, plan = rbd.dispatch(tokens, pfts)
        stats = plan.stats_dict(row_bytes=8 * 8)
        assert stats["pilots"] + stats["replicas"] == stats["total_assignments"]
        assert 0.0 <= stats["redundancy_rate"] <= 1.0

    def test_single_node_group_all_intra(self):
        """With every rank on one node, nothing should cross nodes at all."""
        world, group, w1, w2, tokens, pfts = build_world(8, 16, 8, 4, 2, 12, seed=4)
        rbd = make_dispatcher(group, 16, kind="rbd", seed=4)
        inputs, state = rbd.dispatch(tokens, pfts)
        assert inter_node_bytes(world.stats, {"rbd_s1_a2a", "rbd_s2_a2a"}) == 0.0
        pw1 = [w1[rbd.experts_on_rank(r)] for r in range(8)]
        pw2 = [w2[rbd.experts_on_rank(r)] for r in range(8)]
        outputs = rbd.run_experts(inputs, state, pw1, pw2)
        combined = rbd.combine(outputs, state, [12] * 8)
        for r in range(8):
            ref = local_reference(tokens[r], pfts[r], w1, w2, 12)
            np.testing.assert_allclose(combined[r], ref, atol=1e-10)
