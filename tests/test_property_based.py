"""Property-based tests (hypothesis) for core data structures and invariants."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.comm import CommWorld
from repro.moe.layer import compute_capacity
from repro.routing import make_dispatcher
from tests.helpers import inter_node_bytes
from repro.tensor import Tensor, ops
from repro.xmoe import build_pft, build_pft_reference, gather_kernel, scatter_kernel
from repro.xmoe.rbd import expected_redundancy_rate


# ----------------------------------------------------------------------
# Strategies
# ----------------------------------------------------------------------
@st.composite
def routing_decisions(draw):
    """Random (top_experts, combine_weights, num_experts) triples."""
    num_experts = draw(st.integers(min_value=2, max_value=16))
    top_k = draw(st.integers(min_value=1, max_value=min(4, num_experts)))
    num_tokens = draw(st.integers(min_value=0, max_value=40))
    seed = draw(st.integers(min_value=0, max_value=2**16))
    rng = np.random.default_rng(seed)
    top_experts = np.stack(
        [rng.choice(num_experts, size=top_k, replace=False) for _ in range(num_tokens)],
        axis=0,
    ) if num_tokens else np.zeros((0, top_k), dtype=np.int64)
    weights = rng.uniform(0.0, 1.0, size=(num_tokens, top_k))
    return top_experts, weights, num_experts


class TestPFTProperties:
    @settings(max_examples=60, deadline=None)
    @given(routing_decisions(), st.integers(min_value=1, max_value=50))
    def test_pft_invariants(self, routing, capacity):
        top_experts, weights, num_experts = routing
        pft = build_pft(capacity, top_experts, weights, num_experts)
        # Invariant 1: internal consistency.
        pft.validate()
        # Invariant 2: capacity respected per expert.
        assert (pft.tokens_per_expert <= capacity).all()
        # Invariant 3: retained + dropped == all assignments.
        assert pft.num_routed_tokens + pft.dropped_assignments == top_experts.size
        # Invariant 4: sorted by expert id.
        if pft.num_routed_tokens:
            assert (np.diff(pft.expert_ids) >= 0).all()
        # Invariant 5: every retained (token, expert) pair was requested.
        requested = set(
            (int(t), int(e))
            for t in range(top_experts.shape[0])
            for e in top_experts[t]
        )
        for t, e in zip(pft.token_ids, pft.expert_ids):
            assert (int(t), int(e)) in requested

    @settings(max_examples=40, deadline=None)
    @given(routing_decisions(), st.integers(min_value=1, max_value=20))
    def test_reference_and_optimized_identical(self, routing, capacity):
        top_experts, weights, num_experts = routing
        a = build_pft(capacity, top_experts, weights, num_experts)
        b = build_pft_reference(capacity, top_experts, weights, num_experts)
        np.testing.assert_array_equal(a.token_ids, b.token_ids)
        np.testing.assert_array_equal(a.expert_ids, b.expert_ids)
        np.testing.assert_allclose(a.combine_weights, b.combine_weights)


class TestKernelProperties:
    @settings(max_examples=40, deadline=None)
    @given(
        st.integers(min_value=1, max_value=30),
        st.integers(min_value=1, max_value=12),
        st.integers(min_value=0, max_value=60),
        st.integers(min_value=0, max_value=2**16),
    )
    def test_gather_then_scatter_is_count_weighted_identity(self, s, h, b, seed):
        """scatter(gather(x, ids), ids, 1) == x scaled by how often each row
        was gathered."""
        rng = np.random.default_rng(seed)
        x = rng.normal(size=(s, h))
        ids = rng.integers(0, s, size=b)
        gathered = gather_kernel(x, ids)
        back = scatter_kernel(gathered, ids, np.ones(b), s)
        counts = np.bincount(ids, minlength=s).astype(float)
        np.testing.assert_allclose(back, x * counts[:, None], atol=1e-10)

    @settings(max_examples=30, deadline=None)
    @given(
        st.integers(min_value=1, max_value=2048),
        st.integers(min_value=1, max_value=16),
        st.integers(min_value=1, max_value=512),
        st.floats(min_value=1.0, max_value=4.0),
    )
    def test_capacity_at_least_average_load(self, tokens, k, experts, factor):
        capacity = compute_capacity(tokens, k, experts, factor)
        assert capacity >= 1
        assert capacity * experts >= tokens * k  # no forced dropping at c >= 1


class TestAutogradProperties:
    @settings(max_examples=30, deadline=None)
    @given(
        st.integers(min_value=1, max_value=6),
        st.integers(min_value=1, max_value=6),
        st.integers(min_value=0, max_value=2**16),
    )
    def test_softmax_grad_rows_sum_to_zero(self, n, m, seed):
        """d(sum of weighted softmax)/dx rows sum to ~0 (softmax is shift-invariant)."""
        rng = np.random.default_rng(seed)
        x = Tensor(rng.normal(size=(n, m)), requires_grad=True)
        w = Tensor(rng.normal(size=(n, m)))
        (ops.softmax(x) * w).sum().backward()
        np.testing.assert_allclose(x.grad.sum(axis=-1), 0.0, atol=1e-10)

    @settings(max_examples=30, deadline=None)
    @given(
        st.integers(min_value=1, max_value=5),
        st.integers(min_value=1, max_value=5),
        st.integers(min_value=0, max_value=2**16),
    )
    def test_matmul_linearity_of_gradients(self, n, m, seed):
        """grad of sum(x @ W) w.r.t. x equals the row-broadcast of W's column sums."""
        rng = np.random.default_rng(seed)
        w = rng.normal(size=(m, 3))
        x = Tensor(rng.normal(size=(n, m)), requires_grad=True)
        (x @ Tensor(w)).sum().backward()
        np.testing.assert_allclose(x.grad, np.tile(w.sum(axis=1), (n, 1)), atol=1e-10)


class TestCollectiveProperties:
    @settings(max_examples=20, deadline=None)
    @given(
        st.integers(min_value=2, max_value=8),
        st.integers(min_value=0, max_value=2**16),
    )
    def test_alltoallv_conserves_rows_and_values(self, size, seed):
        """No rows are created or destroyed by the uneven all-to-all."""
        rng = np.random.default_rng(seed)
        world = CommWorld(num_ranks=size)
        group = world.world_group()
        buffers, splits = [], []
        for _ in range(size):
            counts = rng.integers(0, 4, size=size)
            buffers.append(rng.normal(size=(int(counts.sum()), 3)))
            splits.append(counts)
        received, recv_splits = group.alltoallv(buffers, splits)
        sent_rows = sum(b.shape[0] for b in buffers)
        recv_rows = sum(r.shape[0] for r in received)
        assert sent_rows == recv_rows
        sent_sum = sum(b.sum() for b in buffers)
        recv_sum = sum(r.sum() for r in received)
        assert sent_sum == pytest.approx(recv_sum)
        # Split bookkeeping is the transpose of the send splits.
        for i in range(size):
            for j in range(size):
                assert recv_splits[j][i] == splits[i][j]


class TestDispatchOracleProperties:
    """Randomized flat-vs-RBD equivalence (the routing-plan engine oracle)."""

    @settings(max_examples=12, deadline=None)
    @given(
        st.integers(min_value=1, max_value=2),  # nodes (8 ranks per node)
        st.integers(min_value=1, max_value=3),  # experts per rank
        st.integers(min_value=1, max_value=8),  # top-k
        st.integers(min_value=1, max_value=12),  # tokens per rank
        st.integers(min_value=1, max_value=6),  # per-expert capacity (drops!)
        st.integers(min_value=0, max_value=2**16),
    )
    def test_rbd_bit_identical_to_flat_with_capacity_drops(
        self, nodes, experts_per_rank, top_k, tokens_per_rank, capacity, seed
    ):
        num_ranks = 8 * nodes
        num_experts = experts_per_rank * num_ranks
        top_k = min(top_k, num_experts)
        hidden, ffn = 6, 3
        rng = np.random.default_rng(seed)
        w1 = rng.normal(size=(num_experts, hidden, ffn))
        w2 = rng.normal(size=(num_experts, ffn, hidden))
        tokens, pfts = [], []
        for _ in range(num_ranks):
            toks = rng.normal(size=(tokens_per_rank, hidden))
            top_experts = np.argsort(
                rng.random((tokens_per_rank, num_experts)), axis=1
            )[:, :top_k]
            weights = rng.uniform(0.05, 1.0, size=(tokens_per_rank, top_k))
            pfts.append(build_pft(capacity, top_experts, weights, num_experts))
            tokens.append(toks)

        def run(world, kind):
            disp = make_dispatcher(world.world_group(), num_experts, kind=kind, seed=seed)
            inputs, plan = disp.dispatch(tokens, pfts)
            pw1 = [w1[disp.experts_on_rank(r)] for r in range(num_ranks)]
            pw2 = [w2[disp.experts_on_rank(r)] for r in range(num_ranks)]
            outputs = disp.run_experts(inputs, plan, pw1, pw2)
            return disp.combine(outputs, plan, [tokens_per_rank] * num_ranks), plan

        world_f = CommWorld(num_ranks=num_ranks)
        world_r = CommWorld(num_ranks=num_ranks)
        flat_out, flat_plan = run(world_f, "flat")
        rbd_out, rbd_plan = run(world_r, "rbd")
        # Property 1: RBD output is bit-identical to the flat oracle.
        for r in range(num_ranks):
            assert flat_out[r].tobytes() == rbd_out[r].tobytes()
        # Property 2: recorded inter-node bytes shrink by exactly the
        # cross-node replica count times the row bytes.
        row_bytes = hidden * 8
        saved = inter_node_bytes(world_f.stats, {"dispatch_a2a"}) - inter_node_bytes(
            world_r.stats, {"rbd_s1_a2a"}
        )
        assert saved == rbd_plan.cross_node_replicas * row_bytes
        # Property 3: both plans agree on the assignment population.
        assert flat_plan.total_assignments == rbd_plan.total_assignments


class TestRedundancyProperties:
    @settings(max_examples=40, deadline=None)
    @given(
        st.integers(min_value=1, max_value=6),
        st.integers(min_value=1, max_value=8),
        st.integers(min_value=1, max_value=8),
    )
    def test_redundancy_rate_bounds(self, experts_per_node, num_nodes, top_k):
        num_experts = experts_per_node * num_nodes
        if top_k > num_experts:
            top_k = num_experts
        rate = expected_redundancy_rate(num_experts, top_k, num_nodes)
        assert 0.0 <= rate <= 1.0 - 1.0 / top_k + 1e-12
