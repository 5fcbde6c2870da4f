"""Comm priced from a plan's schedule equals comm recorded executing it.

The fused executor never moves data through the collectives, so its
``CommEvent`` list is *derived*: ``DispatchPlan.comm_schedule()`` lists the
planned all-to-alls and ``ProcessGroup.account_alltoallv`` prices each from
its splits.  The contract checked here is that the derived list equals —
dataclass ``==``, same order — what the engine records when it executes the
same plan, for every router policy and dispatch kind over random
topologies, including zero-token ranks, ragged batches and fewer experts
than ranks — on which every plan also passes its own hop-by-hop
``validate()``.
"""

import numpy as np
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


@settings(max_examples=40, deadline=None)
@given(
    kind=st.sampled_from(["flat", "rbd", "hier"]),
    policy_name=st.sampled_from(ROUTER_POLICY_NAMES),
    gpus_per_node=st.integers(min_value=1, max_value=8),
    num_nodes=st.integers(min_value=1, max_value=3),
    experts_per_rank=st.integers(min_value=0, max_value=2),
    capacity=st.sampled_from([None, 2]),
    seed=st.integers(min_value=0, max_value=2**16),
)
def test_priced_schedule_equals_engine_events(
    kind, policy_name, gpus_per_node, num_nodes, experts_per_rank, capacity, seed
):
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
    group = world.world_group()
    dispatcher = make_dispatcher(
        group, num_experts, kind=kind, expert_to_rank=expert_to_rank, seed=seed
    )
    plan = dispatcher.plan(pfts, step=0)
    plan.validate()
    expert_inputs, _ = dispatcher.dispatch(tokens, pfts, plan=plan)
    dispatcher.combine(expert_inputs, plan, [int(n) for n in sizes])

    recorded = world.stats.events
    per_node_ops = {"flat": 0, "rbd": 2, "hier": 4}[kind]
    assert len(recorded) == 2 + per_node_ops * num_nodes
    assert priced_events(group, plan, HIDDEN * 8) == recorded
    # Pricing records nothing: the window still holds only the engine's events.
    assert len(world.stats.events) == len(recorded)


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
