"""Tests for ParallelConfig validation and derived sizes."""

import numpy as np
import pytest

from repro.config import ParallelConfig, PlacementOrder, ZeroStage


class TestParallelConfig:
    def test_derived_group_sizes(self):
        cfg = ParallelConfig(world_size=256, ep_size=64, tp_size=2, global_batch_size=1024)
        assert cfg.dp_size == 128
        assert cfg.edp_size == 4
        assert cfg.experts_per_rank(256) == 4

    def test_invalid_tp_rejected(self):
        with pytest.raises(ValueError):
            ParallelConfig(world_size=10, tp_size=3)

    def test_invalid_ep_rejected(self):
        with pytest.raises(ValueError):
            ParallelConfig(world_size=16, ep_size=5)

    def test_global_batch_must_divide_dp(self):
        with pytest.raises(ValueError):
            ParallelConfig(world_size=8, tp_size=1, global_batch_size=9)

    def test_experts_per_rank_requires_divisibility(self):
        cfg = ParallelConfig(world_size=16, ep_size=16, global_batch_size=16)
        with pytest.raises(ValueError):
            cfg.experts_per_rank(17)

    def test_gradient_accumulation(self):
        cfg = ParallelConfig(
            world_size=64, ep_size=8, micro_batch_size=1, global_batch_size=256
        )
        assert cfg.gradient_accumulation_steps == 4

    def test_ssmb_shard_degree(self):
        cfg = ParallelConfig(world_size=8, tp_size=4, use_ssmb=True, global_batch_size=8)
        assert cfg.moe_sequence_shard_degree == 4
        cfg_off = cfg.with_overrides(use_ssmb=False)
        assert cfg_off.moe_sequence_shard_degree == 1

    def test_with_overrides_preserves_other_fields(self):
        cfg = ParallelConfig(world_size=32, ep_size=8, zero_stage=ZeroStage.GRADIENTS)
        new = cfg.with_overrides(ep_size=16)
        assert new.ep_size == 16
        assert new.zero_stage == ZeroStage.GRADIENTS
        assert cfg.ep_size == 8

    def test_describe_mentions_key_dims(self):
        cfg = ParallelConfig(world_size=16, ep_size=8, tp_size=2, use_ssmb=True, global_batch_size=8)
        text = cfg.describe()
        assert "ep=8" in text and "tp=2" in text and "ssmb=on" in text

    def test_placement_enum_values(self):
        assert PlacementOrder.DP_FIRST.value == "dp-first"
        assert PlacementOrder.EP_FIRST.value == "ep-first"

    def test_zero_stage_ordering(self):
        assert ZeroStage.NONE < ZeroStage.OPTIMIZER < ZeroStage.GRADIENTS < ZeroStage.PARAMS


class TestDispatchReconciliation:
    """``dispatch`` is the one field that picks flat / rbd / hier."""

    def test_default_is_flat(self):
        cfg = ParallelConfig(world_size=8, global_batch_size=8)
        assert cfg.dispatch == "flat"

    def test_explicit_dispatch_wins_without_legacy_flag(self):
        for kind in ("flat", "rbd", "hier"):
            cfg = ParallelConfig(world_size=8, dispatch=kind, global_batch_size=8)
            assert cfg.dispatch == kind
            assert f"dispatch={kind}" in cfg.describe()

    def test_consistent_rbd_spellings_coexist(self):
        """Config, planner, plan and recorded ops all spell it ``"rbd"``."""
        from repro.comm import CommWorld
        from repro.routing import DISPATCH_OPS
        from repro.xmoe import build_pft, dispatcher_for_config

        cfg = ParallelConfig(world_size=8, ep_size=8, dispatch="rbd", global_batch_size=8)
        world = CommWorld(num_ranks=8)
        dispatcher = dispatcher_for_config(world.world_group(), 8, cfg)
        pft = build_pft(10**6, np.array([[0, 1], [2, 7]]), np.full((2, 2), 0.5), 8)
        tokens = [np.ones((2, 4))] * 8
        _, plan = dispatcher.dispatch(tokens, [pft] * 8)
        assert dispatcher.planner.kind == plan.kind == cfg.dispatch
        assert {e.op for e in world.stats.events} == set(DISPATCH_OPS[cfg.dispatch])

    def test_conflict_raises_through_with_overrides(self):
        cfg = ParallelConfig(world_size=8, global_batch_size=8)
        with pytest.raises(ValueError, match="must be one of"):
            cfg.with_overrides(dispatch="mesh")

    def test_unknown_dispatch_rejected(self):
        with pytest.raises(ValueError, match="must be one of"):
            ParallelConfig(world_size=8, dispatch="mesh", global_batch_size=8)
        with pytest.raises(ValueError, match="must be one of"):
            ParallelConfig(world_size=8, dispatch=None, global_batch_size=8)
