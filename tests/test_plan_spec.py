"""One planner function builds the plans the per-kind code paths built.

The library compiles flat, RBD and hier plans with one function that reads
each kind's row of ``PLAN_SPECS``.  ``tests.helpers.reference_plan`` keeps
the two functions that compiled them before.  Over random topologies —
zero-token and ragged ranks, fewer experts than ranks, every router policy
and every kind — the two must agree on everything outside the planner:
per-hop ops, scope, ``append`` and splits, the plan statistics,
``partial_token``, the canonical expert inputs and the combined outputs,
bit for bit.  Every plan's fused program is checked against the plan by
``tests.helpers.verify_program``, and that check is shown to catch a
doctored plan.
"""

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings

from repro.routing import ROUTER_POLICY_NAMES, ExecProgram
from repro.routing.planner import PLAN_SPECS
from tests.helpers import reference_plan, verify_program
from tests.test_comm_schedule import RANDOM_STEPS, random_step

STATS = (
    "kind",
    "total_assignments",
    "total_pilots",
    "num_replicas",
    "cross_node_assignments",
    "cross_node_pilots",
    "dispatch_rows_by_tier",
)


def assert_same_per_rank(got, want):
    assert len(got) == len(want)
    for g, w in zip(got, want):
        np.testing.assert_array_equal(g, w)


def run(dispatcher, tokens, sizes, pfts, plan):
    """Canonical expert inputs and combined outputs of ``plan``, as bytes."""
    inputs, _ = dispatcher.dispatch(tokens, pfts, plan=plan)
    outputs = dispatcher.combine(
        [np.tanh(x) * 1.7 for x in inputs], plan, [int(n) for n in sizes]
    )
    return [x.tobytes() for x in inputs], [y.tobytes() for y in outputs]


@pytest.mark.parametrize("policy_name", ROUTER_POLICY_NAMES)
@pytest.mark.parametrize("kind", sorted(PLAN_SPECS))
@settings(max_examples=12, deadline=None)
@given(case=RANDOM_STEPS)
def test_plan_matches_reference(kind, policy_name, case):
    case = dict(case, kind=kind, policy_name=policy_name)
    world, dispatcher, tokens, sizes, pfts, plan = random_step(**case)
    want = reference_plan(kind, dispatcher.planner, pfts, step=0)
    plan.validate()
    want.validate()

    for name in STATS:
        assert getattr(plan, name) == getattr(want, name), name
    assert len(plan.hops) == len(want.hops)
    for hop, ref in zip(plan.hops, want.hops):
        assert (hop.op, hop.combine_op, hop.per_node, hop.append) == (
            ref.op, ref.combine_op, ref.per_node, ref.append,
        )
        assert_same_per_rank(hop.send_splits, ref.send_splits)
        assert_same_per_rank(hop.recv_splits, ref.recv_splits)
    assert_same_per_rank(plan.partial_token, want.partial_token)
    assert_same_per_rank(plan.tokens_per_local_expert, want.tokens_per_local_expert)

    assert run(dispatcher, tokens, sizes, pfts, plan) == run(
        dispatcher, tokens, sizes, pfts, want
    )
    verify_program(ExecProgram.build(pfts, plan, sizes), plan)


def _checked_step(kind):
    case = dict(
        kind=kind, policy_name="softmax-topk", gpus_per_node=4, num_nodes=2,
        experts_per_rank=2, capacity=None, seed=3,
    )
    world, dispatcher, tokens, sizes, pfts, plan = random_step(**case)
    program = ExecProgram.build(pfts, plan, sizes)
    verify_program(program, plan)
    return program, plan


@pytest.mark.parametrize("kind", sorted(PLAN_SPECS))
def test_verify_program_catches_swapped_sort_order(kind):
    program, plan = _checked_step(kind)
    d = max(range(plan.size), key=lambda r: plan.sort_order[r].size)
    order = plan.sort_order[d].copy()
    order[[0, 1]] = order[[1, 0]]
    sort_order = [*plan.sort_order]
    sort_order[d] = order
    with pytest.raises(AssertionError, match="canonical order"):
        verify_program(program, replace(plan, sort_order=sort_order))


@pytest.mark.parametrize("kind", sorted(PLAN_SPECS))
def test_verify_program_catches_dropped_partial_group(kind):
    program, plan = _checked_step(kind)
    r = max(range(plan.size), key=lambda s: plan.partial_token[s].size)
    partial = [*plan.partial_token]
    partial[r] = partial[r][:-1]
    with pytest.raises(AssertionError, match="partial groups"):
        verify_program(program, replace(plan, partial_token=partial))
