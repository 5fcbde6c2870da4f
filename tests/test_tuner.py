"""Tests for the auto-tuning subsystem (repro.tuner)."""

import json

import numpy as np
import pytest

from repro.comm import CommWorld
from repro.config import ParallelConfig, dgx_cluster, frontier_system, paper_config
from repro.tuner import (
    Calibration,
    MemoizingEvaluator,
    SearchSpace,
    TuningCandidate,
    load_calibration,
    pareto_frontier,
    sweep_best_config,
    tune,
)
from repro.runtime import StepRuntime
from repro.xmoe import dispatcher_for_config, policy_for_config
from repro.xmoe.memory_model import MoEMemoryModel, SystemKind
from tests.helpers import reference_paper_configs, reference_sweep_best_config

SMALL = paper_config("small")
SYS16 = frontier_system(num_nodes=16)  # 128 GCDs


def small_space(**overrides):
    defaults = dict(
        system=SYS16,
        model=SMALL,
        tokens_per_step=1024 * SMALL.seq_length,
    )
    defaults.update(overrides)
    return SearchSpace(**defaults)


class TestSearchSpace:
    def test_candidates_satisfy_structural_constraints(self):
        space = small_space()
        count = 0
        for candidate in space.candidates():
            p = candidate.parallel
            count += 1
            assert p.world_size % p.tp_size == 0
            assert p.world_size % p.ep_size == 0
            assert SMALL.num_experts % p.ep_size == 0
            assert p.global_batch_size % p.dp_size == 0
            assert p.dispatch in ("flat", "rbd", "hier")
        assert count >= 200  # the acceptance-scale space

    def test_ssmb_only_offered_with_tp(self):
        for candidate in small_space().candidates():
            if candidate.parallel.use_ssmb:
                assert candidate.parallel.tp_size > 1

    def test_token_budget_must_be_seq_multiple(self):
        with pytest.raises(ValueError, match="multiple of seq_length"):
            small_space(tokens_per_step=SMALL.seq_length + 1)

    def test_world_size_bounded_by_system(self):
        with pytest.raises(ValueError, match="out of range"):
            small_space(world_size=SYS16.total_gpus + 8)

    def test_unknown_router_rejected(self):
        with pytest.raises(ValueError, match="unknown router"):
            small_space(router_options=("no-such-policy",))

    def test_custom_predicates_filter(self):
        space = small_space(
            predicates=[lambda c: c.parallel.dispatch == "hier"]
        )
        kinds = {c.parallel.dispatch for c in space.candidates()}
        assert kinds == {"hier"}

    def test_model_for_applies_router_and_capacity(self):
        candidate = next(iter(small_space().candidates()))
        tuned = candidate.model_for(SMALL)
        assert tuned.router == candidate.router
        assert tuned.capacity_factor == candidate.capacity_factor


class TestMemoizingEvaluator:
    def _candidate(self, **overrides):
        fields = dict(
            world_size=128, ep_size=16, micro_batch_size=1, global_batch_size=1024
        )
        fields.update(overrides)
        return TuningCandidate(
            parallel=ParallelConfig(**fields), router="softmax-topk", capacity_factor=1.25
        )

    def test_cost_inert_axes_share_one_costing(self):
        """Router / placement / (X-MoE) capacity variants hit the cache."""
        evaluator = MemoizingEvaluator(SMALL, SYS16)
        base = self._candidate()
        first = evaluator.evaluate(base)
        assert evaluator.stats.perf_misses == 1
        variants = [
            TuningCandidate(base.parallel, "expert-choice", 1.25),
            TuningCandidate(base.parallel, "softmax-topk", 1.0),
            TuningCandidate(
                base.parallel.with_overrides(
                    placement=base.parallel.placement.__class__.EP_FIRST
                ),
                "softmax-topk",
                1.25,
            ),
        ]
        for variant in variants:
            score = evaluator.evaluate(variant)
            assert score.step_seconds == first.step_seconds
        assert evaluator.stats.perf_misses == 1
        assert evaluator.stats.perf_hits == len(variants)

    def test_distinct_layouts_are_costed_separately(self):
        evaluator = MemoizingEvaluator(SMALL, SYS16)
        evaluator.evaluate(self._candidate(ep_size=16))
        evaluator.evaluate(self._candidate(ep_size=32))
        evaluator.evaluate(self._candidate(ep_size=16, dispatch="hier"))
        assert evaluator.stats.perf_misses == 3

    def test_pruning_uses_memory_model_predicate(self):
        """Infeasible plans carry exactly the MoEMemoryModel verdict."""
        large = paper_config("large")
        evaluator = MemoizingEvaluator(large, dgx_cluster(num_nodes=16))
        candidate = TuningCandidate(
            parallel=ParallelConfig(
                world_size=128, ep_size=64, micro_batch_size=1, global_batch_size=1024
            ),
            router="softmax-topk",
            capacity_factor=1.25,
        )
        score = evaluator.evaluate(candidate)
        report = MoEMemoryModel(
            candidate.model_for(large),
            candidate.parallel,
            dgx_cluster(num_nodes=16).node.gpu,
        ).report(SystemKind.XMOE)
        assert not report.fits
        assert not score.feasible
        assert score.step_seconds is None
        assert score.peak_memory_gb == pytest.approx(report.total_gb)

    def test_calibration_adds_plan_overhead(self):
        calibration = Calibration(
            plan_build_seconds_per_assignment={"rbd": 1e-6, "flat": 1e-7}
        )
        plain = MemoizingEvaluator(SMALL, SYS16)
        calibrated = MemoizingEvaluator(SMALL, SYS16, calibration=calibration)
        candidate = self._candidate(dispatch="rbd")
        base = plain.evaluate(candidate)
        scored = calibrated.evaluate(candidate)
        assert scored.plan_overhead_seconds > 0
        assert scored.step_seconds == pytest.approx(
            base.step_seconds + scored.plan_overhead_seconds
        )

    def test_hier_calibration_falls_back_to_rbd(self):
        calibration = Calibration(plan_build_seconds_per_assignment={"rbd": 1e-6})
        assert calibration.plan_overhead_seconds("hier", 100) == pytest.approx(1e-4)
        assert calibration.plan_overhead_seconds("flat", 100) == 0.0

    def test_zero_overlap_discounts_grad_sync(self):
        """Measured ZeRO overlap shaves grad-sync time off stage>=1 plans."""
        from repro.xmoe.perf_model import MoEPerformanceModel

        calibration = Calibration(zero_overlap_ratio=0.6)
        assert calibration.grad_sync_exposed_fraction() == pytest.approx(0.4)
        plain = MemoizingEvaluator(SMALL, SYS16)
        calibrated = MemoizingEvaluator(SMALL, SYS16, calibration=calibration)
        sharded = self._candidate(zero_stage=2)
        base = plain.evaluate(sharded)
        scored = calibrated.evaluate(sharded)
        perf = MoEPerformanceModel(
            sharded.model_for(SMALL), sharded.parallel, SYS16, SystemKind.XMOE
        )
        assert scored.step_seconds == pytest.approx(
            base.step_seconds - 0.6 * perf.grad_sync_time()
        )
        # Stage-0 candidates run unsharded grad sync: no discount applies.
        unsharded = self._candidate(zero_stage=0)
        assert calibrated.evaluate(unsharded).step_seconds == pytest.approx(
            plain.evaluate(unsharded).step_seconds
        )


class TestCalibrationLoading:
    def test_missing_path_yields_identity(self, tmp_path):
        calibration = load_calibration(tmp_path / "does-not-exist")
        assert calibration.is_identity

    def test_micro_record_parsed(self, tmp_path):
        record = {
            "seconds": {"flat_plan_build": 0.006, "rbd_plan_build": 0.009},
            "workload": {"assignments": 30000},
        }
        path = tmp_path / "dispatch_plan_micro.json"
        path.write_text(json.dumps(record))
        calibration = load_calibration(path)
        assert not calibration.is_identity
        assert calibration.plan_build_seconds_per_assignment["rbd"] == pytest.approx(
            0.009 / 30000
        )
        assert calibration.source == str(path)

    def test_directory_scan_and_garbage_tolerance(self, tmp_path):
        (tmp_path / "broken.json").write_text("{not json")
        (tmp_path / "useless.json").write_text(json.dumps({"seconds": {}}))
        record = {
            "seconds": {"flat_plan_build": 0.004, "rbd_plan_build": 0.008},
            "workload": {"assignments": 10000},
        }
        (tmp_path / "zz_micro.json").write_text(json.dumps(record))
        calibration = load_calibration(tmp_path)
        assert not calibration.is_identity

    def test_zero_record_parsed(self, tmp_path):
        record = {
            "seconds": {},
            "workload": {},
            "zero": {"overlap_ratio": 0.55, "dp": 16},
        }
        path = tmp_path / "zero_micro.json"
        path.write_text(json.dumps(record))
        calibration = load_calibration(path)
        assert not calibration.is_identity
        assert calibration.zero_overlap_ratio == pytest.approx(0.55)
        assert calibration.grad_sync_exposed_fraction() == pytest.approx(0.45)

    def test_malformed_zero_record_warns_and_skips(self, tmp_path):
        bad = {"seconds": {}, "workload": {}, "zero": {"overlap_ratio": 7.0}}
        (tmp_path / "zero_micro.json").write_text(json.dumps(bad))
        with pytest.warns(UserWarning, match="zero payload"):
            calibration = load_calibration(tmp_path)
        assert calibration.is_identity

        (tmp_path / "zero_micro.json").write_text(
            json.dumps({"seconds": {}, "workload": {}, "zero": "oops"})
        )
        with pytest.warns(UserWarning, match="zero payload"):
            assert load_calibration(tmp_path).is_identity


class TestTuneAndReport:
    def test_ranking_sorted_and_feasible(self):
        report = tune(SMALL, SYS16)
        assert report.num_enumerated >= 200
        times = [s.step_seconds for s in report.ranked]
        assert times == sorted(times)
        assert all(s.feasible for s in report.ranked)
        assert report.best.step_seconds <= report.worst.step_seconds

    def test_pareto_members_are_non_dominated(self):
        report = tune(SMALL, SYS16)
        assert report.pareto
        for member in report.pareto:
            assert not any(
                other.dominates(member) for other in report.ranked if other is not member
            )

    def test_pareto_frontier_dedupes_ties(self):
        report = tune(SMALL, SYS16)
        seen = set()
        for member in report.pareto:
            key = (
                member.step_seconds,
                member.peak_memory_gb,
                member.inter_node_gb_per_step,
            )
            assert key not in seen
            seen.add(key)

    def test_report_describe_and_rows(self):
        report = tune(SMALL, SYS16)
        text = report.describe()
        assert "candidates" in text and "best plan" in text
        rows = report.table_rows(5)
        assert len(rows) == 5
        assert rows[0]["rank"] == 1

    def test_all_infeasible_raises_on_best(self):
        report = tune(paper_config("super"), dgx_cluster(num_nodes=2), world_size=16)
        assert report.num_feasible == 0
        with pytest.raises(ValueError, match="no feasible candidate"):
            _ = report.best

    def test_winner_consumable_by_dispatcher_and_policy(self):
        """The tuned plan drives the functional dispatch engine directly."""
        report = tune(SMALL, SYS16)
        plan = report.best_parallel_config()
        tuned_model = report.best_model_config()
        world = CommWorld(num_ranks=plan.ep_size)
        group = world.world_group()
        dispatcher = dispatcher_for_config(group, tuned_model.num_experts, plan)
        assert dispatcher.planner.__class__.__name__.lower().startswith(
            {"flat": "flat", "rbd": "rbd", "hier": "hierarchical"}[plan.dispatch]
        )
        policy = policy_for_config(
            tuned_model.scaled(hidden_size=32), plan, rng=np.random.default_rng(0)
        )
        tokens = [
            np.random.default_rng(r).normal(size=(16, 32))
            for r in range(plan.ep_size)
        ]
        result = StepRuntime(policy, dispatcher).run_step(tokens, step=0)
        assert result.plan.kind == plan.dispatch
        assert all(o.shape == (16, 32) for o in result.outputs)


def test_pareto_frontier_empty_input():
    assert pareto_frontier([]) == []


def _paper_sweeps():
    """The 46 sweeps behind Fig. 9, Fig. 20 and Table 5."""
    baselines = (SystemKind.DEEPSPEED_MOE, SystemKind.DEEPSPEED_TED, SystemKind.TUTEL)
    sys256, sys1024, dgx = frontier_system(32), frontier_system(128), dgx_cluster(1)
    sweeps = []
    for name in ("small", "medium", "large"):
        for kind in (*baselines, SystemKind.XMOE):
            sweeps.append((f"fig9-{name}", paper_config(name), 256, kind, sys256, 1024))
    for kind in (SystemKind.TUTEL, SystemKind.XMOE):
        sweeps.append(("fig9-super", paper_config("super"), 1024, kind, sys1024, 1024))
    for layers in (8, 12, 16, 20, 24):
        model = paper_config("large").scaled(num_layers=layers)
        for kind in (SystemKind.DEEPSPEED_MOE, SystemKind.TUTEL, SystemKind.XMOE):
            sweeps.append((f"fig20-{layers}L", model, 256, kind, sys256, 1024))
    for k in (4, 8, 12, 16):
        model = paper_config("large").scaled(top_k=k, num_layers=16)
        for kind in (SystemKind.TUTEL, SystemKind.XMOE):
            sweeps.append((f"fig20-k{k}", model, 256, kind, sys256, 1024))
    for name in ("small", "small-sr", "small-lr"):
        for kind in (SystemKind.DEEPSPEED_MOE, SystemKind.TUTEL, SystemKind.XMOE):
            sweeps.append((f"table5-{name}", paper_config(name), 8, kind, dgx, 64))
    return [
        pytest.param(*rest, id=f"{label}-{rest[2].value}") for label, *rest in sweeps
    ]


PAPER_SWEEPS = _paper_sweeps()


class TestPaperSweepPreset:
    """The paper's sweep (§5.2) as a tuner preset equals the plain loop."""

    @pytest.mark.parametrize("model, world, kind, system, batch", PAPER_SWEEPS)
    def test_matches_plain_sweep(self, model, world, kind, system, batch):
        space = SearchSpace.paper_sweep(
            model, system, kind, world_size=world, global_batch_size=batch
        )
        candidates = list(space.candidates())
        assert [c.parallel for c in candidates] == reference_paper_configs(
            model, world, kind, global_batch_size=batch
        )
        assert {(c.router, c.capacity_factor) for c in candidates} == {
            (model.router, model.capacity_factor)
        }

        oracle = reference_sweep_best_config(
            model, world, kind, system, global_batch_size=batch
        )
        result = sweep_best_config(model, world, kind, system, global_batch_size=batch)
        assert result.feasible is not oracle.oom
        assert result.tflops_per_gpu == oracle.tflops_per_gpu
        if oracle.oom:
            assert result.peak_memory_gb == oracle.peak_memory_gb
            assert result.candidate.parallel == oracle.parallel
        else:
            # Ties in step time go to the plan that needs less memory.
            assert result.peak_memory_gb <= oracle.peak_memory_gb

    def test_default_system_is_the_smallest_frontier_slice(self):
        assert sweep_best_config(SMALL, 16, SystemKind.XMOE) == sweep_best_config(
            SMALL, 16, SystemKind.XMOE, frontier_system(2)
        )
