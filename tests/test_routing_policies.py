"""Tests for the pluggable router-policy subsystem (repro.routing.policies)."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.comm import CommWorld
from repro.config import MoEModelConfig, ParallelConfig, small_config
from repro.moe import ExpertBank, TopKGate, TransformerConfig
from repro.routing import (
    ROUTER_POLICY_NAMES,
    ExpertChoicePolicy,
    NoisyTopKPolicy,
    RoutingTelemetry,
    SoftmaxTopKPolicy,
    SwitchTop1Policy,
    load_balance_entropy,
    make_dispatcher,
    make_policy,
)
from repro.tensor import Tensor
from repro.xmoe import build_pft_reference
from repro.xmoe.trainer import policy_for_config, run_routing_validation
from tests.helpers import reference_decide

HIDDEN, EXPERTS, TOP_K = 16, 8, 3


@pytest.fixture
def hidden(rng):
    return rng.normal(size=(32, HIDDEN))


def _noise_policies():
    return [
        make_policy("switch-top1", HIDDEN, EXPERTS, TOP_K, rng=np.random.default_rng(3), seed=9),
        make_policy("noisy-topk", HIDDEN, EXPERTS, TOP_K, rng=np.random.default_rng(3), seed=9),
    ]


class TestDefaultPolicyOracle:
    """The refactored softmax top-k must match the pre-policy gate bit for bit."""

    def test_standalone_policy_matches_gate(self, hidden):
        gate = TopKGate(HIDDEN, EXPERTS, TOP_K, rng=np.random.default_rng(0))
        out = gate(Tensor(hidden))
        policy = SoftmaxTopKPolicy(HIDDEN, EXPERTS, TOP_K, weight=gate.weight.data.copy())
        decision = policy.route(hidden, step=0)
        np.testing.assert_array_equal(out.top_experts, decision.top_experts)
        np.testing.assert_array_equal(out.top_scores, decision.top_scores)
        np.testing.assert_array_equal(out.probs.data, decision.probs)
        np.testing.assert_array_equal(out.drop_eligible, decision.drop_mask)
        assert float(out.aux_loss.data) == decision.aux_loss

    def test_score_threshold_matches_gate(self, hidden):
        gate = TopKGate(
            HIDDEN, EXPERTS, EXPERTS, rng=np.random.default_rng(0),
            policy=SoftmaxTopKPolicy(HIDDEN, EXPERTS, EXPERTS, score_threshold=True),
        )
        out = gate(Tensor(hidden))
        raw = np.take_along_axis(out.logits.data, out.top_experts, axis=-1)
        np.testing.assert_array_equal(out.drop_eligible, raw < 0)
        assert out.drop_eligible.any()

    def test_decision_pft_matches_legacy_build_pft(self, hidden):
        """The decision's PFT equals Listing 1's reference construction."""
        gate = TopKGate(HIDDEN, EXPERTS, TOP_K, rng=np.random.default_rng(0))
        out = gate(Tensor(hidden))
        for capacity in (1, 5, 10**6):
            via_decision = out.decision.to_pft(capacity)
            legacy = build_pft_reference(
                capacity, out.top_experts, out.top_scores, EXPERTS
            )
            np.testing.assert_array_equal(via_decision.token_ids, legacy.token_ids)
            np.testing.assert_array_equal(via_decision.expert_ids, legacy.expert_ids)
            np.testing.assert_array_equal(
                via_decision.combine_weights, legacy.combine_weights
            )
            np.testing.assert_array_equal(
                via_decision.tokens_per_expert, legacy.tokens_per_expert
            )
            assert via_decision.dropped_assignments == legacy.dropped_assignments


    @pytest.mark.parametrize("name", ROUTER_POLICY_NAMES)
    def test_gate_decision_matches_reference_decide(self, name, hidden):
        """The gate's logits-only ``decide`` call (an R=1 ``decide_batch``)
        equals the per-rank reference selection on the same logits."""
        policy = make_policy(name, HIDDEN, EXPERTS, TOP_K, seed=4)
        gate = TopKGate(HIDDEN, EXPERTS, TOP_K, rng=np.random.default_rng(0), policy=policy)
        out = gate(Tensor(hidden), step=3)
        expected = reference_decide(policy, out.logits.data, step=3)
        decision = out.decision
        np.testing.assert_array_equal(decision.token_ids, expected.token_ids)
        np.testing.assert_array_equal(decision.expert_ids, expected.expert_ids)
        np.testing.assert_array_equal(decision.scores, expected.scores)
        np.testing.assert_array_equal(decision.dropped, expected.dropped)
        np.testing.assert_array_equal(decision.probs, expected.probs)
        assert decision.aux_loss == expected.aux_loss
        assert decision.z_loss == expected.z_loss


class TestDeterminism:
    @pytest.mark.parametrize("name", ROUTER_POLICY_NAMES)
    def test_same_seed_step_identical(self, name, hidden):
        policy = make_policy(
            name, HIDDEN, EXPERTS, TOP_K, rng=np.random.default_rng(3), seed=11
        )
        d1 = policy.route(hidden, step=5)
        d2 = policy.route(hidden, step=5)
        np.testing.assert_array_equal(d1.token_ids, d2.token_ids)
        np.testing.assert_array_equal(d1.expert_ids, d2.expert_ids)
        np.testing.assert_array_equal(d1.scores, d2.scores)
        np.testing.assert_array_equal(d1.dropped, d2.dropped)
        assert d1.aux_loss == d2.aux_loss and d1.z_loss == d2.z_loss
        d1.validate()

    def test_noise_policies_vary_with_step(self, hidden):
        for policy in _noise_policies():
            d5 = policy.route(hidden, step=5)
            d6 = policy.route(hidden, step=6)
            assert not (
                np.array_equal(d5.expert_ids, d6.expert_ids)
                and np.array_equal(d5.scores, d6.scores)
            ), f"{policy.name} noise did not vary with step"

    def test_noise_policies_vary_with_seed(self, hidden):
        for cls in (SwitchTop1Policy, NoisyTopKPolicy):
            kwargs = {} if cls is SwitchTop1Policy else {"top_k": TOP_K}
            w = np.random.default_rng(3).normal(size=(HIDDEN, EXPERTS))
            a = cls(HIDDEN, EXPERTS, weight=w, seed=1, **kwargs).route(hidden, step=0)
            b = cls(HIDDEN, EXPERTS, weight=w, seed=2, **kwargs).route(hidden, step=0)
            assert not np.array_equal(a.scores, b.scores)


class TestExpertChoice:
    @settings(max_examples=40, deadline=None)
    @given(
        s=st.integers(min_value=1, max_value=48),
        e=st.integers(min_value=1, max_value=8),
        k=st.integers(min_value=1, max_value=4),
        seed=st.integers(min_value=0, max_value=2**31 - 1),
    )
    def test_never_exceeds_capacity_never_unbalances_past_one(self, s, e, k, seed):
        rng = np.random.default_rng(seed)
        policy = ExpertChoicePolicy(HIDDEN, e, k, weight=rng.normal(size=(HIDDEN, e)))
        decision = policy.route(rng.normal(size=(s, HIDDEN)), step=0)
        decision.validate()
        load = decision.expert_load()
        capacity = math.ceil(s * k / e)
        assert load.max() <= capacity, "an expert exceeded its capacity"
        assert load.max() - load.min() <= 1, "load spread exceeded one token"

    def test_unique_tokens_per_expert(self, hidden):
        policy = ExpertChoicePolicy(
            HIDDEN, EXPERTS, TOP_K, rng=np.random.default_rng(3)
        )
        decision = policy.route(hidden, step=0)
        for e in range(EXPERTS):
            tokens = decision.token_ids[decision.expert_ids == e]
            assert len(set(tokens.tolist())) == tokens.size

    def test_perfect_entropy_under_skew(self):
        rng = np.random.default_rng(0)
        weight = rng.normal(size=(HIDDEN, EXPERTS))
        # All tokens near one expert direction: worst case for token choice.
        hidden = np.tile(weight[:, 0], (64, 1)) + 0.01 * rng.normal(size=(64, HIDDEN))
        policy = ExpertChoicePolicy(HIDDEN, EXPERTS, 2, weight=weight)
        assert policy.route(hidden, step=0).balance_entropy() >= 0.999


class TestGatePolicyContract:
    def test_invariant_asserted_on_gate_call(self, hidden):
        # A policy claiming drops_early=False must not emit drops; the gate
        # asserts this in exactly one place.
        lying = SoftmaxTopKPolicy(HIDDEN, EXPERTS, EXPERTS, score_threshold=True)
        lying.drops_early = False
        gate = TopKGate(HIDDEN, EXPERTS, EXPERTS, rng=np.random.default_rng(0), policy=lying)
        with pytest.raises(AssertionError, match="drops_early"):
            gate(Tensor(hidden))

    def test_policy_expert_count_checked(self):
        policy = SoftmaxTopKPolicy(HIDDEN, EXPERTS + 1, 1)
        with pytest.raises(ValueError, match="expert count"):
            TopKGate(HIDDEN, EXPERTS, 1, policy=policy)


class TestTelemetry:
    def test_accumulates_decisions_and_plans(self, hidden):
        policy = make_policy(
            "softmax-topk", HIDDEN, EXPERTS, TOP_K, rng=np.random.default_rng(3)
        )
        telemetry = RoutingTelemetry(EXPERTS)
        for step in range(3):
            decision = policy.route(hidden, step=step)
            telemetry.record(decision, pfts=decision.to_pft(4))
        assert telemetry.steps == 3
        assert telemetry.assignments == 3 * 32 * TOP_K
        assert telemetry.load.sum() == telemetry.assignments  # no policy drops
        assert telemetry.capacity_dropped > 0
        assert 0.0 < telemetry.drop_rate < 1.0
        assert 0.0 <= telemetry.balance_entropy() <= 1.0
        summary = telemetry.summary()
        assert summary["steps"] == 3 and summary["capacity_dropped"] > 0

    def test_entropy_bounds(self):
        assert load_balance_entropy(np.array([5, 5, 5, 5])) == pytest.approx(1.0)
        assert load_balance_entropy(np.array([20, 0, 0, 0])) == pytest.approx(0.0)
        assert load_balance_entropy(np.zeros(4)) == 1.0

    def test_expert_count_mismatch_rejected(self, hidden):
        policy = make_policy(
            "softmax-topk", HIDDEN, EXPERTS, TOP_K, rng=np.random.default_rng(3)
        )
        telemetry = RoutingTelemetry(EXPERTS + 1)
        with pytest.raises(ValueError, match="experts"):
            telemetry.record(policy.route(hidden, step=0))


class TestMoELayersAcceptAnyPolicy:
    @pytest.mark.parametrize("router", ["switch-top1", "noisy-topk", "expert-choice"])
    def test_padding_free_layer(self, router, rng):
        from repro.xmoe import PaddingFreeMoELayer

        policy = make_policy(router, HIDDEN, EXPERTS, 2, seed=1)
        gate = TopKGate(HIDDEN, EXPERTS, 2, rng=np.random.default_rng(5), policy=policy)
        experts = ExpertBank(EXPERTS, HIDDEN, 12, rng=np.random.default_rng(6))
        layer = PaddingFreeMoELayer(gate, experts, capacity_factor=1.5)
        tokens = Tensor(rng.normal(size=(24, HIDDEN)), requires_grad=True)
        out, aux = layer(tokens)
        assert out.shape == (24, HIDDEN)
        (out.sum() + aux).backward()
        assert gate.weight.grad is not None

    @pytest.mark.parametrize("router", ["switch-top1", "noisy-topk", "expert-choice"])
    def test_padded_baseline_layer(self, router, rng):
        from repro.baselines import PaddedMoELayer

        policy = make_policy(router, HIDDEN, EXPERTS, 2, seed=1)
        gate = TopKGate(HIDDEN, EXPERTS, 2, rng=np.random.default_rng(5), policy=policy)
        experts = ExpertBank(EXPERTS, HIDDEN, 12, rng=np.random.default_rng(6))
        layer = PaddedMoELayer(gate, experts, capacity_factor=1.5)
        tokens = Tensor(rng.normal(size=(24, HIDDEN)))
        out, _ = layer(tokens)
        assert out.shape == (24, HIDDEN)
        assert layer.last_stats.num_assignments > 0

    @pytest.mark.parametrize("router", ["switch-top1", "expert-choice"])
    def test_megablocks_dispatcher(self, router, rng):
        from repro.xmoe import PaddingFreeMoELayer

        policy = make_policy(router, HIDDEN, EXPERTS, 2, seed=1)
        gate = TopKGate(HIDDEN, EXPERTS, 2, rng=np.random.default_rng(5), policy=policy)
        experts = ExpertBank(EXPERTS, HIDDEN, 12, rng=np.random.default_rng(6))
        layer = PaddingFreeMoELayer(gate, experts, capacity_factor=None)
        tokens = Tensor(rng.normal(size=(24, HIDDEN)))
        out, _ = layer(tokens)
        assert out.shape == (24, HIDDEN)
        assert layer.last_stats.block_padded_rows(4) >= layer.last_stats.kept_assignments > 0

    def test_stepless_gate_calls_get_fresh_noise(self, rng):
        # Legacy callers that never pass step= must not freeze the policy's
        # exploration noise: the gate substitutes an internal counter.
        policy = make_policy("noisy-topk", HIDDEN, EXPERTS, 2, seed=1)
        gate = TopKGate(HIDDEN, EXPERTS, 2, rng=np.random.default_rng(5), policy=policy)
        tokens = Tensor(rng.normal(size=(24, HIDDEN)))
        first = gate(tokens)
        second = gate(tokens)
        assert not np.array_equal(first.top_scores, second.top_scores)

    def test_transformer_config_router(self):
        from repro.moe import MoETransformerLM
        from repro.xmoe import PaddingFreeMoELayer

        config = TransformerConfig(
            vocab_size=64, hidden_size=16, ffn_hidden_size=8, num_experts=4,
            top_k=2, num_layers=1, seq_length=16, router="expert-choice",
        )
        model = MoETransformerLM(
            config, lambda g, e, c: PaddingFreeMoELayer(g, e, c), seed=3
        )
        loss, lm_loss = model.loss(np.arange(16) % 64)
        assert np.isfinite(lm_loss)
        with pytest.raises(ValueError, match="router"):
            TransformerConfig(router="bogus")

    def test_score_threshold_reaches_the_gate_policy(self):
        from repro.moe import MoETransformerLM
        from repro.xmoe import PaddingFreeMoELayer

        config = TransformerConfig(
            vocab_size=64, hidden_size=16, ffn_hidden_size=8, num_experts=4,
            top_k=2, num_layers=1, seq_length=16, score_threshold=True,
        )
        model = MoETransformerLM(
            config, lambda g, e, c: PaddingFreeMoELayer(g, e, c), seed=3
        )
        policy = model.layers[0].moe.gate.policy
        assert isinstance(policy, SoftmaxTopKPolicy) and policy.score_threshold

    @pytest.mark.parametrize("router", ["switch-top1", "noisy-topk", "expert-choice"])
    def test_score_threshold_rejected_for_routers_without_it(self, router):
        from repro.moe import MoETransformerLM
        from repro.xmoe import PaddingFreeMoELayer

        config = TransformerConfig(
            vocab_size=64, hidden_size=16, ffn_hidden_size=8, num_experts=4,
            top_k=2, num_layers=1, seq_length=16, router=router,
            score_threshold=True,
        )
        with pytest.raises(TypeError, match="score_threshold"):
            MoETransformerLM(config, lambda g, e, c: PaddingFreeMoELayer(g, e, c))


class TestPlannerBridge:
    """Policies × planners: dropped tokens flow as exact zero rows."""

    def _route_all(self, router, num_ranks, tokens_per_rank, capacity):
        policy = make_policy(router, HIDDEN, EXPERTS, 2, rng=np.random.default_rng(2), seed=5)
        tokens, pfts = [], []
        for rank in range(num_ranks):
            rng = np.random.default_rng((7, rank))
            hidden = rng.normal(size=(tokens_per_rank, HIDDEN))
            decision = policy.route(hidden, step=0)
            pfts.append(decision.to_pft(capacity))
            tokens.append(hidden)
        return tokens, pfts

    @pytest.mark.parametrize("router", ROUTER_POLICY_NAMES)
    def test_flat_and_rbd_bit_identical(self, router):
        num_ranks, s = 8, 24
        tokens, pfts = self._route_all(router, num_ranks, s, capacity=4)
        world = CommWorld(num_ranks=num_ranks)
        flat = make_dispatcher(world.world_group(), EXPERTS)
        rbd = make_dispatcher(world.world_group(), EXPERTS, kind="rbd", seed=1)
        out_flat = flat.combine(
            [b.copy() for b in flat.dispatch(tokens, pfts)[0]],
            flat.plan(pfts),
            [s] * num_ranks,
        )
        out_rbd = rbd.combine(
            [b.copy() for b in rbd.dispatch(tokens, pfts)[0]],
            rbd.plan(pfts),
            [s] * num_ranks,
        )
        for a, b in zip(out_flat, out_rbd):
            np.testing.assert_array_equal(a, b)

    def test_dropped_tokens_produce_exact_zero_rows(self):
        # switch-top1 drops whole tokens (top-1 + tight capacity): their
        # combine rows must be exactly zero on both dispatch paths.
        num_ranks, s = 4, 32
        policy = make_policy(
            "switch-top1", HIDDEN, EXPERTS, 1,
            rng=np.random.default_rng(2), seed=5, capacity_factor=0.5,
        )
        tokens, pfts, routed = [], [], []
        for rank in range(num_ranks):
            rng = np.random.default_rng((8, rank))
            hidden = rng.normal(size=(s, HIDDEN))
            decision = policy.route(hidden, step=0)
            assert decision.num_dropped > 0
            pft = decision.to_pft(None)
            routed.append(np.unique(pft.token_ids))
            pfts.append(pft)
            tokens.append(hidden)
        world = CommWorld(num_ranks=num_ranks)
        dispatcher = make_dispatcher(world.world_group(), EXPERTS, kind="rbd")
        inputs, plan = dispatcher.dispatch(tokens, pfts)
        outputs = dispatcher.combine([b.copy() for b in inputs], plan, [s] * num_ranks)
        for rank in range(num_ranks):
            dropped_rows = np.setdiff1d(np.arange(s), routed[rank])
            assert dropped_rows.size > 0
            np.testing.assert_array_equal(
                outputs[rank][dropped_rows], np.zeros((dropped_rows.size, HIDDEN))
            )
            # Surviving tokens must carry non-zero expert output.
            assert np.abs(outputs[rank][routed[rank]]).sum() > 0


class TestConfigWiring:
    def test_model_config_validates_router(self):
        with pytest.raises(ValueError, match="router"):
            small_config().scaled(router="nope")
        assert small_config().router == "softmax-topk"
        assert small_config().scaled(router="expert-choice").summary()["router"] == (
            "expert-choice"
        )

    def test_policy_for_config(self):
        model = MoEModelConfig(
            name="tiny", seq_length=32, hidden_size=HIDDEN, ffn_hidden_size=8,
            num_experts=EXPERTS, top_k=2, num_layers=2, router="switch-top1",
        )
        parallel = ParallelConfig(world_size=8, ep_size=8, router_seed=13)
        policy = policy_for_config(model, parallel)
        assert isinstance(policy, SwitchTop1Policy)
        assert policy.seed == 13
        assert policy.capacity_factor == model.capacity_factor
        assert policy.weight is not None and policy.weight.shape == (HIDDEN, EXPERTS)

    def test_trainer_validate_routing(self):
        model = MoEModelConfig(
            name="tiny", seq_length=32, hidden_size=HIDDEN, ffn_hidden_size=8,
            num_experts=EXPERTS, top_k=2, num_layers=2, router="noisy-topk",
        )
        parallel = ParallelConfig(world_size=8, ep_size=8, dispatch="rbd")
        telemetry = run_routing_validation(
            model.router,
            num_ranks=parallel.ep_size,
            num_experts=model.num_experts,
            top_k=model.top_k,
            hidden_size=model.hidden_size,
            tokens_per_rank=16,
            steps=2,
            capacity_factor=model.capacity_factor,
            dispatch=parallel.dispatch,
            seed=parallel.router_seed,
        )
        assert telemetry.steps == 2
        assert telemetry.assignments == 2 * 8 * 16 * 2
        assert telemetry.stage1_bytes > 0

    def test_run_routing_validation_deterministic(self):
        kwargs = dict(
            num_ranks=8, num_experts=EXPERTS, top_k=2, hidden_size=HIDDEN,
            tokens_per_rank=16, steps=2, dispatch="flat", seed=3, skew=1.0,
        )
        a = run_routing_validation("switch-top1", **kwargs)
        b = run_routing_validation("switch-top1", **kwargs)
        np.testing.assert_array_equal(a.load, b.load)
        assert a.summary() == b.summary()

    def test_analysis_table(self):
        from repro.analysis import policy_load_balance_table

        rows = policy_load_balance_table(num_tokens=128, num_experts=8, skew=1.5)
        assert {r["policy"] for r in rows} == set(ROUTER_POLICY_NAMES)
        by_name = {r["policy"]: r for r in rows}
        assert by_name["expert-choice"]["balance_entropy"] >= (
            by_name["switch-top1"]["balance_entropy"]
        )
