"""Comm priced from a plan's schedule equals comm recorded executing it.

The fused executor never moves data through the collectives, so its
``CommEvent`` list is *derived*: ``DispatchPlan.comm_schedule()`` lists the
planned all-to-alls and ``ProcessGroup.account_alltoallv`` prices each from
its splits.  The contract checked here is that the derived list equals —
dataclass ``==``, same order — what the engine records when it executes the
same plan, for every router policy and dispatch kind over random
topologies, including zero-token ranks, ragged batches and fewer experts
than ranks — on which every plan also passes its own hop-by-hop
``validate()``.  Two byte contracts ride along: a plan's stage-1 +
stage-2 bytes cover every dispatch hop, and a float32 payload's combine
exchanges move the bytes of the dispatch exchanges they reverse.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.comm import CommWorld
from repro.routing import ROUTER_POLICY_NAMES, make_dispatcher, make_policy
from repro.routing.policies import RoutingDecision
from tests.test_routing_hier import tiny_system

HIDDEN = 8


def priced_events(group, plan, row_bytes):
    """The plan's schedule priced through the collectives' own accounting."""
    return [
        group.account_alltoallv(splits, row_bytes, op_name=op, members=members)
        for op, members, splits in plan.comm_schedule()
    ]


#: one random step: dispatch kind, policy, topology, placement, capacity.
RANDOM_STEPS = st.fixed_dictionaries(
    {
        "kind": st.sampled_from(["flat", "rbd", "hier"]),
        "policy_name": st.sampled_from(ROUTER_POLICY_NAMES),
        "gpus_per_node": st.integers(min_value=1, max_value=8),
        "num_nodes": st.integers(min_value=1, max_value=3),
        "experts_per_rank": st.integers(min_value=0, max_value=2),
        "capacity": st.sampled_from([None, 2]),
        "seed": st.integers(min_value=0, max_value=2**16),
    }
)


def random_step(
    kind, policy_name, gpus_per_node, num_nodes, experts_per_rank, capacity, seed
):
    """``(world, dispatcher, tokens, sizes, pfts, plan)`` for one random step."""
    num_ranks = gpus_per_node * num_nodes
    rng = np.random.default_rng(seed)
    if experts_per_rank == 0:
        # Fewer experts than ranks: some ranks host nothing.
        num_experts = max(1, num_ranks // 2)
        expert_to_rank = np.sort(rng.choice(num_ranks, size=num_experts, replace=False))
    else:
        num_experts = num_ranks * experts_per_rank
        expert_to_rank = None
    policy = make_policy(
        policy_name, HIDDEN, num_experts, min(2, num_experts),
        rng=np.random.default_rng(seed + 1), seed=seed,
    )
    # Ragged batches; rank 0 always empty (all ranks, when there is one).
    sizes = rng.integers(0, 10, size=num_ranks)
    sizes[0] = 0
    tokens = [rng.normal(size=(int(n), HIDDEN)) for n in sizes]
    pfts = RoutingDecision.to_pfts(policy.route_batch(tokens, step=0), capacity)

    world = CommWorld(num_ranks=num_ranks, system=tiny_system(gpus_per_node, num_nodes))
    dispatcher = make_dispatcher(
        world.world_group(), num_experts, kind=kind, expert_to_rank=expert_to_rank, seed=seed
    )
    return world, dispatcher, tokens, sizes, pfts, dispatcher.plan(pfts, step=0)


@settings(max_examples=40, deadline=None)
@given(case=RANDOM_STEPS)
def test_priced_schedule_equals_engine_events(case):
    world, dispatcher, tokens, sizes, pfts, plan = random_step(**case)
    plan.validate()
    expert_inputs, _ = dispatcher.dispatch(tokens, pfts, plan=plan)
    dispatcher.combine(expert_inputs, plan, [int(n) for n in sizes])

    recorded = world.stats.events
    per_node_ops = {"flat": 0, "rbd": 2, "hier": 4}[case["kind"]]
    assert len(recorded) == 2 + per_node_ops * case["num_nodes"]
    assert priced_events(dispatcher.group, plan, HIDDEN * 8) == recorded
    # Pricing records nothing: the window still holds only the engine's events.
    assert len(world.stats.events) == len(recorded)


@settings(max_examples=25, deadline=None)
@given(case=RANDOM_STEPS)
def test_stage_bytes_cover_every_dispatch_hop(case):
    """Stage 1 + stage 2 is the whole dispatch payload, for every kind."""
    plan = random_step(**case)[-1]
    stats = plan.stats_dict(HIDDEN * 8)
    assert stats["stage1_bytes"] + stats["stage2_bytes"] == HIDDEN * 8 * sum(
        plan.dispatch_rows_by_tier.values()
    )


@pytest.mark.parametrize("kind", ["flat", "rbd", "hier"])
def test_float32_combine_bytes_mirror_dispatch(kind):
    """Each combine exchange moves the bytes of the dispatch it reverses."""
    world = CommWorld(num_ranks=16)  # two 8-GCD Frontier nodes
    policy = make_policy(
        "softmax-topk", HIDDEN, 16, 2, rng=np.random.default_rng(0), seed=0
    )
    rng = np.random.default_rng(1)
    tokens = [rng.normal(size=(8, HIDDEN)).astype(np.float32) for _ in range(16)]
    pfts = RoutingDecision.to_pfts(policy.route_batch(tokens, step=0), None)
    dispatcher = make_dispatcher(world.world_group(), 16, kind=kind)
    expert_inputs, plan = dispatcher.dispatch(tokens, pfts, step=0)
    outputs = dispatcher.combine(expert_inputs, plan, [8] * 16)
    assert all(out.dtype == np.float32 for out in outputs)

    events = world.stats.events
    half = len(events) // 2
    # Node hops issue one exchange per node, in node order, both ways.
    blocks = [len(plan.hop_members(hop)) for hop in plan.hops]
    ends = np.cumsum(blocks)
    dispatch = [events[end - n : end] for n, end in zip(blocks, ends)]
    ends = half + np.cumsum(blocks[::-1])
    combine = [events[end - n : end] for n, end in zip(blocks[::-1], ends)][::-1]
    for hop, sent, returned in zip(plan.hops, dispatch, combine):
        assert [e.op for e in sent] == [hop.op] * len(sent)
        assert [e.op for e in returned] == [hop.combine_op] * len(returned)
        assert [e.total_bytes for e in returned] == [e.total_bytes for e in sent]
    assert sum(e.total_bytes for e in events[:half]) > 0


def test_schedule_members_and_splits_shapes():
    """Whole-group hops list every rank; node hops one node's members."""
    world = CommWorld(num_ranks=16)  # two 8-GCD Frontier nodes
    policy = make_policy(
        "softmax-topk", HIDDEN, 16, 2, rng=np.random.default_rng(0), seed=0
    )
    rng = np.random.default_rng(1)
    tokens = [rng.normal(size=(6, HIDDEN)) for _ in range(16)]
    pfts = RoutingDecision.to_pfts(policy.route_batch(tokens, step=0), None)
    plan = make_dispatcher(world.world_group(), 16, kind="hier").plan(pfts, step=0)
    schedule = plan.comm_schedule()
    assert [op for op, _, _ in schedule] == (
        ["hier_gather_a2a"] * 2 + ["hier_inter_a2a"] + ["hier_scatter_a2a"] * 2
        + ["hier_c_gather_a2a"] * 2 + ["hier_c_inter_a2a"] + ["hier_c_scatter_a2a"] * 2
    )
    for _, members, splits in schedule:
        assert splits.shape == (members.size, members.size)
    assert [m.tolist() for _, m, _ in schedule[:3]] == [
        list(range(8)), list(range(8, 16)), list(range(16))
    ]
    # A combine hop sends what its dispatch hop received.
    assert np.array_equal(schedule[2][2].T, schedule[7][2])
