"""Tests for the two-hop hierarchical dispatch planner (repro.routing)."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.cluster.topology import LinkTier
from repro.comm import CommWorld
from repro.config import ParallelConfig
from repro.config.hardware import MI250X_GCD, NodeSpec, SystemSpec
from repro.routing import (
    DISPATCH_KINDS,
    DISPATCH_OPS,
    FlatPlanner,
    HierarchicalPlanner,
    make_dispatcher,
    make_policy,
)
from repro.xmoe import dispatcher_for_config
from repro.xmoe.trainer import run_routing_validation, sweep_dispatch_validation
from tests.test_routing_plan import run_pipeline
from tests.test_xmoe_distributed import build_world


def tiny_system(gpus_per_node: int, num_nodes: int) -> SystemSpec:
    """A minimal system with an arbitrary GPUs-per-node count."""
    node = NodeSpec(
        name="tiny-node",
        gpu=MI250X_GCD,
        gpus_per_node=gpus_per_node,
        gpus_per_package=1,
        intra_package_bw_gbps=200.0,
        intra_node_bw_gbps=75.0,
        inter_node_bw_gbps=25.0,
    )
    return SystemSpec(
        name="tiny",
        node=node,
        num_nodes=num_nodes,
        gpus_per_rack=gpus_per_node * num_nodes,
        cross_rack_bw_gbps=12.5,
    )


def routed_workload(
    policy_name: str,
    num_ranks: int,
    num_experts: int,
    top_k: int,
    tokens_per_rank: int,
    hidden: int,
    seed: int,
):
    """Per-rank tokens + PFTs routed by a real policy, plus expert weights."""
    rng = np.random.default_rng(seed)
    policy = make_policy(
        policy_name,
        hidden,
        num_experts,
        top_k,
        rng=np.random.default_rng(seed + 1),
        seed=seed,
    )
    capacity = max(1, int(1.5 * tokens_per_rank * top_k / num_experts) + 1)
    tokens, pfts = [], []
    for _ in range(num_ranks):
        toks = rng.normal(size=(tokens_per_rank, hidden))
        decision = policy.route(toks, step=0)
        pfts.append(decision.to_pft(capacity))
        tokens.append(toks)
    w1 = rng.normal(size=(num_experts, hidden, 4))
    w2 = rng.normal(size=(num_experts, 4, hidden))
    return tokens, pfts, w1, w2


def dispatch_tier_bytes(stats, kind: str) -> dict:
    """Per-tier byte totals the named dispatch path's ops recorded."""
    out: dict = {}
    for event in stats.events:
        if event.op in DISPATCH_OPS[kind]:
            for tier, nbytes in event.bytes_by_tier.items():
                out[tier] = out.get(tier, 0.0) + nbytes
    return {tier: nbytes for tier, nbytes in out.items() if nbytes}


class TestHierOracle:
    """The tentpole guarantee: hierarchical output == flat oracle, bitwise."""

    @settings(max_examples=20, deadline=None)
    @given(
        gpus_per_node=st.integers(min_value=1, max_value=8),
        num_nodes=st.integers(min_value=1, max_value=4),
        experts_per_rank=st.integers(min_value=1, max_value=3),
        policy=st.sampled_from(
            ["softmax-topk", "switch-top1", "noisy-topk", "expert-choice"]
        ),
        seed=st.integers(min_value=0, max_value=2**16),
    )
    def test_bit_identical_across_random_topologies(
        self, gpus_per_node, num_nodes, experts_per_rank, policy, seed
    ):
        num_ranks = gpus_per_node * num_nodes
        num_experts = num_ranks * experts_per_rank
        top_k = min(4, num_experts)
        hidden = 8
        system = tiny_system(gpus_per_node, num_nodes)
        tokens, pfts, w1, w2 = routed_workload(
            policy, num_ranks, num_experts, top_k, 12, hidden, seed
        )

        flat = make_dispatcher(
            CommWorld(num_ranks=num_ranks, system=system).world_group(),
            num_experts,
            kind="flat",
        )
        hier = make_dispatcher(
            CommWorld(num_ranks=num_ranks, system=system).world_group(),
            num_experts,
            kind="hier",
        )
        flat_inputs, _ = flat.dispatch(tokens, pfts)
        hier_inputs, hier_plan = hier.dispatch(tokens, pfts)
        hier_plan.validate()
        for r in range(num_ranks):
            assert flat_inputs[r].tobytes() == hier_inputs[r].tobytes()
        flat_out, _ = run_pipeline(flat, tokens, pfts, w1, w2, 12)
        hier_out, _ = run_pipeline(hier, tokens, pfts, w1, w2, 12)
        for r in range(num_ranks):
            assert flat_out[r].tobytes() == hier_out[r].tobytes()

    @pytest.mark.parametrize(
        "policy", ["softmax-topk", "switch-top1", "noisy-topk", "expert-choice"]
    )
    def test_bit_identical_on_frontier_nodes(self, policy):
        """All four policies on the default 8-GCD Frontier topology."""
        num_ranks, num_experts, top_k = 16, 32, 4
        tokens, pfts, w1, w2 = routed_workload(
            policy, num_ranks, num_experts, top_k, 24, 10, seed=3
        )
        flat = make_dispatcher(
            CommWorld(num_ranks=num_ranks).world_group(), num_experts, kind="flat"
        )
        hier = make_dispatcher(
            CommWorld(num_ranks=num_ranks).world_group(), num_experts, kind="hier"
        )
        flat_out, _ = run_pipeline(flat, tokens, pfts, w1, w2, 24)
        hier_out, hier_plan = run_pipeline(hier, tokens, pfts, w1, w2, 24)
        hier_plan.validate()
        for r in range(num_ranks):
            assert flat_out[r].tobytes() == hier_out[r].tobytes()

    def test_partial_groups_match_flat(self):
        """All three planners agree on the (token, node) partial groups."""
        world, group, w1, w2, tokens, pfts = build_world(16, 32, 8, 4, 6, 24, seed=13)
        flat_plan = make_dispatcher(group, 32, kind="flat").plan(pfts)
        hier_plan = make_dispatcher(group, 32, kind="hier").plan(pfts)
        for r in range(16):
            np.testing.assert_array_equal(
                flat_plan.partial_token[r], hier_plan.partial_token[r]
            )
        # Hierarchical dispatch sends exactly one row per partial group.
        assert hier_plan.total_pilots == sum(
            hier_plan.num_partials(r) for r in range(16)
        )

    def test_deterministic_without_seed(self):
        """Unlike RBD, the hierarchical plan has no randomized step."""
        world, group, w1, w2, tokens, pfts = build_world(16, 32, 8, 4, 6, 24, seed=17)
        planner = HierarchicalPlanner(group, 32)
        plan_a = planner.build(pfts, step=0)
        plan_b = planner.build(pfts, step=99)
        for r in range(16):
            np.testing.assert_array_equal(plan_a.hops[0].gather[r], plan_b.hops[0].gather[r])


class TestTierAccounting:
    """Regression: per-tier byte accounting sums to total dispatch bytes."""

    @pytest.mark.parametrize("kind", DISPATCH_KINDS)
    def test_recorded_tiers_match_plan_and_total(self, kind):
        hidden = 10
        tokens, pfts, w1, w2 = routed_workload(
            "softmax-topk", 16, 32, 6, 24, hidden, seed=5
        )
        world = CommWorld(num_ranks=16)
        disp = make_dispatcher(world.world_group(), 32, kind=kind, seed=7)
        _, plan = disp.dispatch(tokens, pfts)
        row_bytes = hidden * 8

        recorded = dispatch_tier_bytes(world.stats, kind)
        expected = {t: r * row_bytes for t, r in plan.dispatch_rows_by_tier.items()}
        assert recorded == pytest.approx(expected)
        # Per-tier bytes sum to the total bytes the dispatch ops moved.
        total = sum(
            e.total_bytes for e in world.stats.events if e.op in DISPATCH_OPS[kind]
        )
        assert sum(recorded.values()) == pytest.approx(total)

    def test_plan_row_totals_per_kind(self):
        """Each kind's per-tier rows sum to its known hop-row budget."""
        tokens, pfts, w1, w2 = routed_workload("softmax-topk", 16, 32, 6, 24, 8, seed=9)
        group = CommWorld(num_ranks=16).world_group()
        flat_plan = make_dispatcher(group, 32, kind="flat").plan(pfts)
        rbd_plan = make_dispatcher(group, 32, kind="rbd", seed=3).plan(pfts)
        hier_plan = make_dispatcher(group, 32, kind="hier").plan(pfts)
        total = flat_plan.total_assignments
        assert sum(flat_plan.dispatch_rows_by_tier.values()) == total
        assert sum(rbd_plan.dispatch_rows_by_tier.values()) == total
        # hier: one hop-A + one hop-B row per group, one hop-C row per
        # assignment.
        assert (
            sum(hier_plan.dispatch_rows_by_tier.values())
            == 2 * hier_plan.total_pilots + total
        )

    def test_hier_strictly_reduces_inter_node_rows(self):
        """Deduplication sends strictly fewer rows over inter-node links."""
        tokens, pfts, w1, w2 = routed_workload("softmax-topk", 16, 32, 8, 32, 8, seed=1)
        group = CommWorld(num_ranks=16).world_group()
        flat_plan = make_dispatcher(group, 32, kind="flat").plan(pfts)
        hier_plan = make_dispatcher(group, 32, kind="hier").plan(pfts)
        assert 0 < hier_plan.inter_node_rows < flat_plan.inter_node_rows

    def test_telemetry_accumulates_tier_bytes(self):
        telemetry = run_routing_validation(
            "softmax-topk",
            num_ranks=16,
            num_experts=16,
            top_k=4,
            hidden_size=16,
            tokens_per_rank=32,
            steps=2,
            dispatch="hier",
        )
        summary = telemetry.summary()
        assert summary["inter_node_mb"] > 0
        assert summary["intra_node_mb"] > 0
        assert telemetry.comm_stats is not None
        assert telemetry.inter_node_bytes < telemetry.intra_node_bytes


class TestDispatchAxis:
    """ParallelConfig.dispatch threads through to the planner choice."""

    def test_dispatcher_for_config_threads_dispatch(self):
        world = CommWorld(num_ranks=8)
        cfg = ParallelConfig(
            world_size=8, ep_size=8, dispatch="hier", global_batch_size=8
        )
        disp = dispatcher_for_config(world.world_group(), 16, cfg)
        assert isinstance(disp.planner, HierarchicalPlanner)
        flat_cfg = cfg.with_overrides(dispatch="flat")
        assert isinstance(
            dispatcher_for_config(world.world_group(), 16, flat_cfg).planner,
            FlatPlanner,
        )

    def test_sweep_dispatch_validation_is_comparable(self):
        """The sweep sees one workload: routing stats agree across kinds."""
        sweep = sweep_dispatch_validation(
            "softmax-topk",
            num_ranks=16,
            num_experts=16,
            top_k=4,
            hidden_size=8,
            tokens_per_rank=16,
            steps=1,
        )
        assert set(sweep) == set(DISPATCH_KINDS)
        entropies = {k: t.summary()["balance_entropy"] for k, t in sweep.items()}
        assert len(set(entropies.values())) == 1
        assert sweep["hier"].inter_node_bytes < sweep["flat"].inter_node_bytes
        assert sweep["hier"].inter_node_bytes == sweep["rbd"].inter_node_bytes


class TestLinkTierSemantics:
    def test_single_node_hier_has_no_inter_node_traffic(self):
        tokens, pfts, w1, w2 = routed_workload("softmax-topk", 8, 16, 4, 16, 8, seed=2)
        world = CommWorld(num_ranks=8)
        disp = make_dispatcher(world.world_group(), 16, kind="hier")
        _, plan = disp.dispatch(tokens, pfts)
        assert plan.inter_node_rows == 0
        recorded = dispatch_tier_bytes(world.stats, "hier")
        assert recorded.get(LinkTier.INTER_NODE, 0.0) == 0.0
        assert recorded.get(LinkTier.CROSS_RACK, 0.0) == 0.0
