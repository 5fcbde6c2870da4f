"""Equivalence and behavior tests for the rank-batched step runtime.

The contract everything in ``repro.runtime`` rests on: the batched stages —
:meth:`RouterPolicy.route_batch`, :func:`build_pft_flat_batched` /
:meth:`RoutingDecision.to_pfts`, and the full :class:`StepRuntime` step —
are **bit-identical** to a sequential per-rank loop over the reference
selection bodies and PFT builder in ``tests/helpers.py``, for every router
policy, every dispatch kind, and randomized shapes, seeds, and skews
(including expert-choice's non-rectangular selections, weight ties, and
duplicate assignments).  Plus the runtime's own behavior: workspace
buffer reuse, trace hooks, dtype-derived payload accounting, and the ragged
fallback.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.comm import CommWorld
from repro.moe.layer import compute_capacity
from repro.routing import ROUTER_POLICY_NAMES, make_dispatcher, make_policy
from repro.routing.policies import RoutingDecision, skewed_router_tokens
from repro.routing.telemetry import RoutingTelemetry
from repro.runtime import StepRuntime, StepWorkspace
from repro.xmoe.pft import build_pft_flat_batched
from tests.helpers import reference_pft_flat, reference_route, reference_to_pft


def _assert_decisions_equal(a: RoutingDecision, b: RoutingDecision) -> None:
    assert a.num_tokens == b.num_tokens and a.num_experts == b.num_experts
    assert np.array_equal(a.token_ids, b.token_ids)
    assert np.array_equal(a.expert_ids, b.expert_ids)
    assert np.array_equal(a.scores, b.scores)
    assert np.array_equal(a.dropped, b.dropped)
    assert np.array_equal(a.probs, b.probs)
    # equal_nan: zero-token batches yield nan aux losses on *both* paths
    # (mean over an empty probs array, the per-rank behavior too).
    assert np.array_equal(a.aux_loss, b.aux_loss, equal_nan=True)
    assert np.array_equal(a.z_loss, b.z_loss, equal_nan=True)


def _assert_pfts_equal(a, b) -> None:
    assert np.array_equal(a.token_ids, b.token_ids)
    assert np.array_equal(a.expert_ids, b.expert_ids)
    assert np.array_equal(a.tokens_per_expert, b.tokens_per_expert)
    assert np.array_equal(a.combine_weights, b.combine_weights)
    assert a.num_source_tokens == b.num_source_tokens
    assert a.dropped_assignments == b.dropped_assignments


def _policy_and_hidden(name, *, num_ranks, tokens, hidden, experts, top_k, seed, skew):
    policy = make_policy(
        name, hidden, experts, top_k, rng=np.random.default_rng(seed), seed=seed
    )
    batches = [
        skewed_router_tokens(
            np.random.default_rng((seed, 0, rank)), tokens, policy.weight, skew=skew
        )
        for rank in range(num_ranks)
    ]
    return policy, batches


# ----------------------------------------------------------------------
# route_batch / to_pfts vs the per-rank reference loop
# ----------------------------------------------------------------------
class TestRouteBatchEquivalence:
    @pytest.mark.parametrize("name", ROUTER_POLICY_NAMES)
    @settings(max_examples=12, deadline=None)
    @given(
        num_ranks=st.integers(min_value=1, max_value=9),
        tokens=st.integers(min_value=1, max_value=40),
        experts=st.integers(min_value=2, max_value=17),
        seed=st.integers(min_value=0, max_value=2**16),
        step=st.integers(min_value=0, max_value=50),
        skew=st.sampled_from([0.0, 0.8, 1.5]),
    )
    def test_bit_identical_decisions_and_pfts(
        self, name, num_ranks, tokens, experts, seed, step, skew
    ):
        top_k = min(3, experts)
        policy, batches = _policy_and_hidden(
            name,
            num_ranks=num_ranks,
            tokens=tokens,
            hidden=8,
            experts=experts,
            top_k=top_k,
            seed=seed,
            skew=skew,
        )
        sequential = [reference_route(policy, h, step=step) for h in batches]
        batched = policy.route_batch(batches, step=step)
        assert len(batched) == num_ranks
        for a, b, h in zip(sequential, batched, batches):
            _assert_decisions_equal(a, b)
            _assert_decisions_equal(a, policy.route(h, step=step))
            b.validate()
        for capacity in (1, 7, None):
            per_rank = [reference_to_pft(d, capacity) for d in sequential]
            stacked = RoutingDecision.to_pfts(batched, capacity)
            for a, b, d in zip(per_rank, stacked, batched):
                _assert_pfts_equal(a, b)
                _assert_pfts_equal(a, d.to_pft(capacity))
                b.validate()

    @pytest.mark.parametrize("name", ROUTER_POLICY_NAMES)
    def test_ragged_rank_batches_fall_back(self, name):
        """Unequal per-rank token counts (zero-token ranks included) still
        route, one R=1 batch per rank."""
        policy = make_policy(name, 8, 6, 2, rng=np.random.default_rng(0), seed=3)
        rng = np.random.default_rng(1)
        batches = [rng.normal(size=(s, 8)) for s in (5, 9, 1, 5, 0, 1)]
        sequential = [reference_route(policy, h, step=2) for h in batches]
        batched = policy.route_batch(batches, step=2)
        for a, b in zip(sequential, batched):
            _assert_decisions_equal(a, b)

    def test_route_batch_requires_weight(self):
        policy = make_policy("softmax-topk", 8, 4, 2)
        with pytest.raises(ValueError, match="router weight"):
            policy.route_batch([np.zeros((3, 8))])

    def test_route_batch_empty_and_shape_checks(self):
        policy = make_policy("softmax-topk", 8, 4, 2, rng=np.random.default_rng(0))
        assert policy.route_batch([]) == []
        with pytest.raises(ValueError, match="expected \\[S, 8\\]"):
            policy.route_batch([np.zeros((3, 5))])

    @pytest.mark.filterwarnings("ignore:Mean of empty slice")
    @pytest.mark.filterwarnings("ignore:invalid value encountered")
    @pytest.mark.parametrize("name", ROUTER_POLICY_NAMES)
    def test_zero_token_batches_route_like_the_loop(self, name):
        """S=0 ranks must not crash the stacked path (drained data shards)."""
        policy = make_policy(name, 8, 4, 2, rng=np.random.default_rng(0), seed=1)
        batches = [np.zeros((0, 8)), np.zeros((0, 8))]
        sequential = [reference_route(policy, h, step=0) for h in batches]
        batched = policy.route_batch(batches, step=0)
        for a, b in zip(sequential, batched):
            _assert_decisions_equal(a, b)
        for a, b in zip(
            [reference_to_pft(d, 3) for d in sequential],
            RoutingDecision.to_pfts(batched, 3),
        ):
            _assert_pfts_equal(a, b)

    def test_decide_batch_rejects_2d(self):
        policy = make_policy("softmax-topk", 8, 4, 2, rng=np.random.default_rng(0))
        with pytest.raises(ValueError, match="R, S, E"):
            policy.decide_batch(np.zeros((3, 4)))

    def test_to_pfts_rejects_mismatched_experts(self):
        a = make_policy("softmax-topk", 8, 4, 2, rng=np.random.default_rng(0))
        b = make_policy("softmax-topk", 8, 5, 2, rng=np.random.default_rng(0))
        hidden = np.random.default_rng(1).normal(size=(3, 8))
        with pytest.raises(ValueError, match="num_experts"):
            RoutingDecision.to_pfts(
                [a.route(hidden, step=0), b.route(hidden, step=0)]
            )

    def test_to_pfts_empty(self):
        assert RoutingDecision.to_pfts([]) == []


# ----------------------------------------------------------------------
# The batched PFT builder vs the per-rank reference builder
# ----------------------------------------------------------------------
class TestBatchedPFTBuilder:
    @settings(max_examples=60, deadline=None)
    @given(
        num_ranks=st.integers(min_value=1, max_value=6),
        experts=st.integers(min_value=1, max_value=8),
        tokens=st.integers(min_value=1, max_value=12),
        capacity=st.integers(min_value=1, max_value=6),
        seed=st.integers(min_value=0, max_value=2**16),
        tie_weights=st.booleans(),
    )
    def test_bit_identical_to_per_rank_builder(
        self, num_ranks, experts, tokens, capacity, seed, tie_weights
    ):
        """Random ragged assignments, duplicates and weight ties included."""
        rng = np.random.default_rng(seed)
        counts = rng.integers(0, 3 * tokens, size=num_ranks)
        total = int(counts.sum())
        rank_ids = np.repeat(np.arange(num_ranks, dtype=np.int64), counts)
        token_ids = rng.integers(0, tokens, size=total).astype(np.int64)
        expert_ids = rng.integers(0, experts, size=total).astype(np.int64)
        if tie_weights:  # force exact ties to exercise the stable fallback
            weights = rng.choice([0.25, 0.5, 0.5, 0.75], size=total)
        else:
            weights = rng.uniform(0.0, 1.0, size=total)

        batched = build_pft_flat_batched(
            capacity, rank_ids, token_ids, expert_ids, weights,
            experts, [tokens] * num_ranks,
        )
        assert len(batched) == num_ranks
        for rank in range(num_ranks):
            mask = rank_ids == rank
            reference = reference_pft_flat(
                capacity, token_ids[mask], expert_ids[mask], weights[mask],
                experts, tokens,
            )
            _assert_pfts_equal(reference, batched[rank])
            batched[rank].validate()

    def test_rejects_bad_inputs(self):
        with pytest.raises(ValueError, match="positive"):
            build_pft_flat_batched(0, [], [], [], [], 2, [4])
        with pytest.raises(ValueError, match="equal length"):
            build_pft_flat_batched(1, [0], [0, 1], [0], [0.5], 2, [4])
        with pytest.raises(ValueError, match="rank_ids out of range"):
            build_pft_flat_batched(1, [3], [0], [0], [0.5], 2, [4])

    def test_trailing_empty_ranks_get_empty_pfts(self):
        pfts = build_pft_flat_batched(
            2, [0], [1], [0], [0.5], num_experts=2, num_source_tokens=[4, 4, 4]
        )
        assert len(pfts) == 3
        assert pfts[0].num_routed_tokens == 1
        assert pfts[1].num_routed_tokens == 0
        assert pfts[2].num_routed_tokens == 0
        assert pfts[2].tokens_per_expert.shape == (2,)


# ----------------------------------------------------------------------
# The full StepRuntime vs the legacy manual drive loop
# ----------------------------------------------------------------------
class TestStepRuntimeEquivalence:
    @pytest.mark.parametrize("name", ROUTER_POLICY_NAMES)
    @pytest.mark.parametrize("kind", ("flat", "rbd", "hier"))
    def test_step_outputs_match_manual_loop(self, name, kind):
        """One runtime step == the pre-runtime per-rank drive loop, exactly."""
        num_ranks, tokens, hidden, experts, top_k, seed = 8, 16, 8, 16, 2, 11
        policy, batches = _policy_and_hidden(
            name,
            num_ranks=num_ranks,
            tokens=tokens,
            hidden=hidden,
            experts=experts,
            top_k=top_k,
            seed=seed,
            skew=1.0,
        )
        capacity = compute_capacity(tokens, top_k, experts, 1.25)

        # The manual loop every workload used before the runtime existed, on
        # the per-rank reference selection and PFT builder.
        manual_world = CommWorld(num_ranks=num_ranks)
        manual = make_dispatcher(
            manual_world.world_group(), experts, kind=kind, seed=seed
        )
        decisions = [reference_route(policy, h, step=0) for h in batches]
        pfts = [reference_to_pft(d, capacity) for d in decisions]
        plan = manual.plan(pfts, step=0)
        expert_inputs, _ = manual.dispatch(batches, pfts, plan=plan)
        outputs = manual.combine(
            [buf.copy() for buf in expert_inputs], plan, [tokens] * num_ranks
        )

        runtime_world = CommWorld(num_ranks=num_ranks)
        runtime = StepRuntime(
            policy,
            make_dispatcher(runtime_world.world_group(), experts, kind=kind, seed=seed),
            capacity=capacity,
        )
        result = runtime.run_step(batches, step=0)

        for a, b in zip(decisions, result.decisions):
            _assert_decisions_equal(a, b)
        for a, b in zip(pfts, result.pfts):
            _assert_pfts_equal(a, b)
        for a, b in zip(expert_inputs, result.expert_inputs):
            assert np.array_equal(a, b)
        for a, b in zip(outputs, result.outputs):
            assert np.array_equal(a, b)

    def test_real_experts_match_manual_run_experts(self):
        num_ranks, tokens, hidden, experts, top_k = 4, 8, 8, 8, 2
        policy, batches = _policy_and_hidden(
            "softmax-topk",
            num_ranks=num_ranks,
            tokens=tokens,
            hidden=hidden,
            experts=experts,
            top_k=top_k,
            seed=5,
            skew=0.0,
        )
        rng = np.random.default_rng(9)
        experts_per_rank = experts // num_ranks
        w1 = [rng.normal(size=(experts_per_rank, hidden, 4)) for _ in range(num_ranks)]
        w2 = [rng.normal(size=(experts_per_rank, 4, hidden)) for _ in range(num_ranks)]

        world = CommWorld(num_ranks=num_ranks)
        dispatcher = make_dispatcher(world.world_group(), experts, kind="flat")
        runtime = StepRuntime(policy, dispatcher, expert_weights=(w1, w2))
        result = runtime.run_step(batches, step=0)

        pfts = [policy.route(h, step=0).to_pft() for h in batches]
        plan = dispatcher.plan(pfts, step=0)
        expert_inputs, _ = dispatcher.dispatch(batches, pfts, plan=plan)
        expected = dispatcher.run_experts(expert_inputs, plan, w1, w2)
        for a, b in zip(expected, result.expert_outputs):
            assert np.array_equal(a, b)
        assert all(o.shape == (tokens, hidden) for o in result.outputs)

    def test_steps_are_reproducible(self):
        policy, batches = _policy_and_hidden(
            "noisy-topk",
            num_ranks=4, tokens=8, hidden=8, experts=8, top_k=2, seed=2, skew=0.5,
        )
        world = CommWorld(num_ranks=4)
        runtime = StepRuntime(
            policy, make_dispatcher(world.world_group(), 8, kind="rbd", seed=2)
        )
        first = runtime.run_step(batches, step=7)
        second = runtime.run_step(batches, step=7)
        for a, b in zip(first.outputs, second.outputs):
            assert np.array_equal(a, b)

    def test_activation_the_kernel_lacks_is_rejected_at_construction(self):
        """``gelu`` is an ``ExpertBank`` activation but not a
        ``sequential_gemm`` one: refuse it before any step runs."""
        policy, _ = _policy_and_hidden(
            "softmax-topk",
            num_ranks=2, tokens=4, hidden=8, experts=4, top_k=2, seed=0, skew=0.0,
        )
        dispatcher = make_dispatcher(CommWorld(num_ranks=2).world_group(), 4, kind="flat")
        with pytest.raises(ValueError, match="gelu"):
            StepRuntime(policy, dispatcher, activation="gelu")
        assert StepRuntime(policy, dispatcher, activation="identity").activation == "identity"


# ----------------------------------------------------------------------
# Runtime behavior: workspace, telemetry, traces, payload sizing
# ----------------------------------------------------------------------
class TestStepRuntimeBehavior:
    def _runtime(self, *, hidden=8, telemetry=None, trace_hooks=()):
        policy, batches = _policy_and_hidden(
            "softmax-topk",
            num_ranks=4, tokens=8, hidden=hidden, experts=8, top_k=2,
            seed=1, skew=0.0,
        )
        world = CommWorld(num_ranks=4)
        runtime = StepRuntime(
            policy,
            make_dispatcher(world.world_group(), 8, kind="flat"),
            capacity=compute_capacity(8, 2, 8, 1.25),
            telemetry=telemetry,
            trace_hooks=tuple(trace_hooks),
        )
        return runtime, batches

    def test_workspace_buffers_are_reused_across_steps(self):
        runtime, batches = self._runtime()
        runtime.run_step(batches, step=0)
        assert runtime.workspace.hidden_reuses == 0
        runtime.run_step(batches, step=1)
        runtime.run_step(batches, step=2)
        assert runtime.workspace.hidden_reuses == 2
        assert runtime.workspace.logits_reuses == 2
        assert runtime.steps_run == 3

    def test_workspace_regrows_on_shape_change(self):
        workspace = StepWorkspace()
        a = workspace.stacked_hidden(4, 3)
        assert workspace.stacked_hidden(4, 3) is a
        b = workspace.stacked_hidden(6, 3)
        assert b.shape == (6, 3) and b is not a

    def test_scratch_parks_only_shape_stable_arenas(self):
        """A shape must repeat before its arena is pinned; churn pins nothing."""
        workspace = StepWorkspace()
        first = workspace.scratch("a", (4, 3))
        second = workspace.scratch("a", (4, 3))  # repeated: parked from here on
        assert second is not first
        assert workspace.scratch("a", (4, 3)) is second
        assert (workspace.scratch_reuses, workspace.scratch_regrows) == (1, 2)
        # A shape change releases the parked arena and parks nothing new...
        grown = workspace.scratch("a", (6, 3))
        assert grown.shape == (6, 3) and "a" not in workspace._scratch
        # ...and a shape that changes every request is never pinned or reused.
        for rows in (5, 7, 5, 7):
            workspace.scratch("a", (rows, 3))
        assert "a" not in workspace._scratch
        assert (workspace.scratch_reuses, workspace.scratch_regrows) == (1, 7)
        # dtype is part of the shape key.
        workspace.scratch("b", (2, 2))
        parked = workspace.scratch("b", (2, 2))
        assert workspace.scratch("b", (2, 2), dtype=np.float32) is not parked

    def test_trace_hooks_fire_with_dtype_derived_bytes(self):
        traces = []
        runtime, batches = self._runtime(trace_hooks=[traces.append])
        runtime.add_trace_hook(traces.append)  # registered twice -> 2 per step
        result = runtime.run_step(batches, step=0)
        assert len(traces) == 2 and traces[0] is traces[1]
        trace = traces[0]
        assert trace.step == 0
        assert trace.num_ranks == 4
        assert trace.tokens_per_rank == [8, 8, 8, 8]
        # float64 payload: 8 doubles per row.
        assert trace.row_bytes == 8 * 8
        assert trace.dispatched_rows == sum(p.num_routed_tokens for p in result.pfts)
        assert trace.dispatch_bytes == trace.dispatched_rows * trace.row_bytes
        assert trace.seconds > 0.0

    def test_telemetry_row_bytes_follow_payload_dtype(self):
        """The satellite fix: byte accounting derives from the token dtype."""
        telemetry = RoutingTelemetry(8)
        runtime, batches = self._runtime(telemetry=telemetry)
        result = runtime.run_step([b.astype(np.float32) for b in batches], step=0)
        # 8 hidden columns of float32: 32 bytes per dispatched row, not the
        # hardcoded float64 sizing the old driver assumed.
        assert result.trace.row_bytes == 8 * 4
        assert telemetry.stage1_bytes > 0
        assert (
            telemetry.stage1_bytes
            == result.plan.stats_dict(8 * 4)["stage1_bytes"]
        )

    def test_empty_rank_list_rejected(self):
        runtime, _ = self._runtime()
        with pytest.raises(ValueError, match="at least one rank"):
            runtime.run_step([], step=0)

    def test_failing_trace_hook_is_isolated(self, caplog):
        """A raising hook is logged and skipped; the step and later hooks survive."""
        import logging

        seen = []

        def bad_hook(trace):
            raise RuntimeError("hook exploded")

        runtime, batches = self._runtime(trace_hooks=[bad_hook, seen.append])
        with caplog.at_level(logging.ERROR, logger="repro.runtime.step"):
            result = runtime.run_step(batches, step=3)
        # The step completed, the broken hook did not starve the next one.
        assert runtime.steps_run == 1
        assert len(seen) == 1 and seen[0] is result.trace
        records = [r for r in caplog.records if "trace hook" in r.message]
        assert records and records[0].exc_info is not None
        # A healthy runtime keeps stepping after a hook failure.
        runtime.run_step(batches, step=4)
        assert runtime.steps_run == 2 and len(seen) == 2

    def test_dispatched_rows_count_assignments_not_wire_rows(self):
        """StepTrace rows/bytes under expert-choice routing + hierarchical plans.

        ``dispatched_rows`` counts the surviving assignment population (the
        PFT rows entering dispatch); hierarchical plans move rows over two
        hops and RBD dedups them, so the wire-row figures live on the plan,
        not the trace.
        """
        for name, kind in (("expert-choice", "flat"), ("expert-choice", "hier"),
                           ("softmax-topk", "hier")):
            policy, batches = _policy_and_hidden(
                name, num_ranks=8, tokens=16, hidden=8, experts=16, top_k=2,
                seed=5, skew=1.0,
            )
            world = CommWorld(num_ranks=8)
            runtime = StepRuntime(
                policy, make_dispatcher(world.world_group(), 16, kind=kind, seed=5)
            )
            result = runtime.run_step(batches, step=0)
            trace = result.trace
            assert trace.dispatched_rows == sum(
                int(p.num_routed_tokens) for p in result.pfts
            )
            assert trace.dispatched_rows == result.plan.total_assignments
            assert trace.dispatch_bytes == trace.dispatched_rows * trace.row_bytes
            if kind == "hier":
                # Two-hop dispatch: node leaders fan replicas out locally, so
                # the collectives carry fewer pilot rows than assignments.
                assert result.plan.sent_rows() < trace.dispatched_rows

    def test_dispatched_rows_shrink_under_capacity(self):
        """Capacity truncation shows up in the trace's assignment population."""
        policy, batches = _policy_and_hidden(
            "softmax-topk", num_ranks=8, tokens=16, hidden=8, experts=16,
            top_k=2, seed=5, skew=2.0,
        )
        world = CommWorld(num_ranks=8)
        capped = StepRuntime(
            policy,
            make_dispatcher(world.world_group(), 16, kind="flat", seed=5),
            capacity=2,
        )
        result = capped.run_step(batches, step=0)
        routed = sum(d.num_assignments for d in result.decisions)
        dropped = sum(int(p.dropped_assignments) for p in result.pfts)
        assert dropped > 0
        assert result.trace.dispatched_rows == routed - dropped
