"""Tests for plan pricing, the paper's config sweep, and the placement planner."""

import numpy as np
import pytest

from repro.cluster import Topology
from repro.config import (
    ParallelConfig,
    PlacementOrder,
    dgx_cluster,
    frontier_system,
    paper_config,
)
from repro.tuner import MemoizingEvaluator, TuningCandidate, sweep_best_config
from repro.xmoe import plan_placement
from repro.xmoe.memory_model import SystemKind
from repro.xmoe.parallelism import build_parallel_groups, expert_to_rank_map


class TestSimulatedTrainer:
    """Simulated training verdicts: one plan priced, and the paper's sweep."""

    @staticmethod
    def score(model, parallel, system, kind):
        candidate = TuningCandidate(parallel, model.router, model.capacity_factor)
        return MemoizingEvaluator(model, system, kind=kind).evaluate(candidate)

    def test_trainable_result_has_throughput(self):
        result = self.score(
            paper_config("small"),
            ParallelConfig(world_size=256, ep_size=64, global_batch_size=1024),
            frontier_system(32),
            SystemKind.XMOE,
        )
        assert result.feasible
        assert result.tflops_per_gpu > 0
        assert result.step_seconds > 0
        assert result.aggregated_pflops == pytest.approx(result.tflops_per_gpu * 256 / 1e3)

    def test_oom_result(self):
        result = self.score(
            paper_config("large"),
            ParallelConfig(world_size=256, ep_size=64, global_batch_size=1024),
            frontier_system(32),
            SystemKind.DEEPSPEED_MOE,
        )
        assert not result.feasible
        assert result.tflops_per_gpu is None
        assert result.aggregated_pflops is None

    def test_fig9_sweep_verdicts(self):
        """The headline Fig. 9 result: every baseline OOMs on the Large model
        at 256 GPUs; X-MoE trains it.  On the Small model everyone trains and
        X-MoE has the highest throughput."""
        sys256 = frontier_system(32)
        large = paper_config("large")
        for kind in (SystemKind.DEEPSPEED_MOE, SystemKind.DEEPSPEED_TED, SystemKind.TUTEL):
            assert not sweep_best_config(large, 256, kind, sys256).feasible
        assert sweep_best_config(large, 256, SystemKind.XMOE, sys256).feasible

        small = paper_config("small")
        results = {
            kind: sweep_best_config(small, 256, kind, sys256)
            for kind in (SystemKind.DEEPSPEED_MOE, SystemKind.TUTEL, SystemKind.XMOE)
        }
        assert all(r.feasible for r in results.values())
        assert (
            results[SystemKind.XMOE].tflops_per_gpu
            > results[SystemKind.TUTEL].tflops_per_gpu
            > 0
        )

    def test_super_model_only_trains_with_xmoe(self):
        sys1024 = frontier_system(128)
        sup = paper_config("super")
        assert not sweep_best_config(sup, 1024, SystemKind.TUTEL, sys1024).feasible
        result = sweep_best_config(sup, 1024, SystemKind.XMOE, sys1024)
        assert result.feasible
        assert result.aggregated_pflops > 1.0

    def test_table5_xmoe_trains_small_on_a100(self):
        dgx = dgx_cluster(1)
        result = sweep_best_config(
            paper_config("small"), 8, SystemKind.XMOE, dgx, global_batch_size=64
        )
        assert result.feasible

    def test_sweep_requires_valid_candidates(self):
        with pytest.raises(ValueError):
            sweep_best_config(
                paper_config("small"), 8, SystemKind.XMOE, global_batch_size=7
            )


class TestPlacementPlanning:
    def test_expert_to_rank_map(self):
        mapping = expert_to_rank_map(16, 4)
        assert mapping.shape == (16,)
        np.testing.assert_array_equal(np.bincount(mapping), [4, 4, 4, 4])
        with pytest.raises(ValueError):
            expert_to_rank_map(10, 4)

    def test_group_construction_ep_first_vs_dp_first(self):
        parallel = ParallelConfig(world_size=16, ep_size=4, global_batch_size=16)
        ep_first = build_parallel_groups(parallel, PlacementOrder.EP_FIRST)
        dp_first = build_parallel_groups(parallel, PlacementOrder.DP_FIRST)
        # EP-first: consecutive ranks form an EP group.
        assert ep_first["ep_groups"][0] == [0, 1, 2, 3]
        # DP-first: consecutive ranks form an expert-DP group.
        assert dp_first["expert_dp_groups"][0] == [0, 1, 2, 3]
        # Both partition the world.
        for groups in (ep_first, dp_first):
            all_ranks = sorted(r for g in groups["ep_groups"] for r in g)
            assert all_ranks == list(range(16))

    def test_dp_first_wins_for_large_moe_on_frontier(self):
        """Appendix C.1: for a large MoE the DP gradient volume dominates, so
        keeping DP traffic intra-node (DP-first) is the better placement."""
        model = paper_config("large")
        parallel = ParallelConfig(world_size=64, ep_size=8, global_batch_size=64)
        topo = Topology(frontier_system(8), 64)
        ep_first, dp_first, recommended = plan_placement(model, parallel, topo)
        assert dp_first.dp_allreduce_seconds < ep_first.dp_allreduce_seconds
        assert ep_first.ep_alltoall_seconds <= dp_first.ep_alltoall_seconds
        assert recommended == PlacementOrder.DP_FIRST

    def test_plan_returns_both_costs(self):
        model = paper_config("small")
        parallel = ParallelConfig(world_size=16, ep_size=8, global_batch_size=16)
        topo = Topology(frontier_system(2), 16)
        ep_first, dp_first, recommended = plan_placement(model, parallel, topo)
        for plan in (ep_first, dp_first):
            assert plan.total_seconds > 0
            assert plan.total_seconds == pytest.approx(
                plan.ep_alltoall_seconds + plan.dp_allreduce_seconds
            )
        assert recommended in (PlacementOrder.EP_FIRST, PlacementOrder.DP_FIRST)
