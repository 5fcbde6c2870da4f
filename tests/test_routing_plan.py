"""Tests for the vectorized routing-plan engine (repro.routing)."""

import numpy as np
import pytest

from repro.comm import CommWorld
from repro.routing import (
    Dispatcher,
    FlatPlanner,
    PlanDispatcher,
    RBDPlanner,
    make_dispatcher,
)
from repro.xmoe import dispatcher_for_config
from repro.config import ParallelConfig
from tests.helpers import inter_node_bytes
from tests.test_xmoe_distributed import build_world, local_reference


def run_pipeline(dispatcher, tokens, pfts, w1, w2, num_tokens, *, step=None):
    """Drive the full Dispatcher protocol and return the combined outputs."""
    size = dispatcher.group.size
    inputs, plan = dispatcher.dispatch(tokens, pfts, step=step)
    pw1 = [w1[dispatcher.experts_on_rank(r)] for r in range(size)]
    pw2 = [w2[dispatcher.experts_on_rank(r)] for r in range(size)]
    outputs = dispatcher.run_experts(inputs, plan, pw1, pw2)
    return dispatcher.combine(outputs, plan, [num_tokens] * size), plan


class TestPlanConstruction:
    @pytest.mark.parametrize("rbd", [False, True])
    def test_plan_invariants(self, rbd):
        world, group, w1, w2, tokens, pfts = build_world(16, 32, 8, 4, 6, 24, seed=11)
        kind = "rbd" if rbd else "flat"
        disp = make_dispatcher(group, 32, kind=kind, seed=1)
        plan = disp.plan(pfts)
        plan.validate()
        assert plan.kind == kind
        assert plan.total_assignments == sum(p.num_routed_tokens for p in pfts)
        if not rbd:
            assert plan.total_pilots == plan.total_assignments
            assert plan.num_replicas == 0
        else:
            assert 0 < plan.total_pilots < plan.total_assignments

    def test_flat_and_rbd_share_partial_structure(self):
        """Both planners agree on the (token, node) partial groups — the
        invariant behind the bit-identical combine."""
        world, group, w1, w2, tokens, pfts = build_world(16, 32, 8, 4, 6, 24, seed=13)
        flat_plan = make_dispatcher(group, 32).plan(pfts)
        rbd_plan = make_dispatcher(group, 32, kind="rbd", seed=5).plan(pfts)
        for r in range(16):
            np.testing.assert_array_equal(
                flat_plan.partial_token[r], rbd_plan.partial_token[r]
            )
        # RBD sends exactly one row per partial group.
        assert rbd_plan.total_pilots == sum(
            rbd_plan.num_partials(r) for r in range(16)
        )

    def test_rbd_pilot_slots_match_reference(self):
        """The searchsorted pilot-slot index agrees with a dict-based
        reference reconstruction of the arrival buffers."""
        world, group, w1, w2, tokens, pfts = build_world(8, 16, 8, 4, 4, 16, seed=17)
        planner = RBDPlanner(group, 16, seed=3)
        plan = planner.build(pfts)
        size = group.size
        pilots, replicas = plan.hops
        num_pilot_arrivals = [int(n.sum()) for n in pilots.recv_splits]
        # Reference: replay the stage-1 sends per destination.
        slot_of = [{} for _ in range(size)]
        for d in range(size):
            for i, (s, row) in enumerate(zip(plan.arrival_src[d], plan.arrival_row[d])):
                if i < num_pilot_arrivals[d]:
                    slot_of[d][(int(s), int(row))] = i
        for p in range(size):
            # Every stage-2 source slot must point at a pilot arrival whose
            # replica rows (same token, same node) exist in the plan.
            for slot in replicas.gather[p]:
                assert 0 <= slot < num_pilot_arrivals[p]
                src = int(plan.arrival_src[p][slot])
                row = int(plan.arrival_row[p][slot])
                assert slot_of[p][(src, row)] == int(slot)

    def test_arrival_tables_cover_every_assignment_once(self):
        world, group, w1, w2, tokens, pfts = build_world(8, 16, 8, 4, 4, 16, seed=19)
        for kind in ("flat", "rbd"):
            plan = make_dispatcher(group, 16, kind=kind, seed=2).plan(pfts)
            seen = set()
            for d in range(8):
                for s, row in zip(plan.arrival_src[d], plan.arrival_row[d]):
                    seen.add((int(s), int(row)))
            expected = {
                (r, i) for r in range(8) for i in range(pfts[r].num_routed_tokens)
            }
            assert seen == expected

    def test_empty_pfts(self):
        from repro.xmoe import build_pft

        world = CommWorld(num_ranks=4)
        group = world.world_group()
        empty = build_pft(4, np.zeros((0, 2), dtype=np.int64), np.zeros((0, 2)), 8)
        tokens = [np.zeros((0, 6)) for _ in range(4)]
        for kind in ("flat", "rbd", "hier"):
            disp = make_dispatcher(group, 8, kind=kind)
            out, plan = run_pipeline(
                disp, tokens, [empty] * 4, np.zeros((8, 6, 3)), np.zeros((8, 3, 6)), 0
            )
            plan.validate()
            assert all(o.shape == (0, 6) for o in out)


class TestDispatcherProtocol:
    def test_plan_dispatcher_satisfies_protocol(self):
        world = CommWorld(num_ranks=4)
        disp = make_dispatcher(world.world_group(), 8)
        assert isinstance(disp, Dispatcher)
        assert isinstance(disp, PlanDispatcher)

    def test_make_dispatcher_picks_planner(self):
        world = CommWorld(num_ranks=4)
        assert isinstance(make_dispatcher(world.world_group(), 8).planner, FlatPlanner)
        assert isinstance(
            make_dispatcher(world.world_group(), 8, kind="rbd").planner, RBDPlanner
        )

    def test_dispatcher_for_config_threads_rbd(self):
        world = CommWorld(num_ranks=8)
        rbd_cfg = ParallelConfig(world_size=8, ep_size=8, dispatch="rbd", global_batch_size=8)
        flat_cfg = ParallelConfig(world_size=8, ep_size=8, global_batch_size=8)
        assert isinstance(
            dispatcher_for_config(world.world_group(), 16, rbd_cfg).planner, RBDPlanner
        )
        assert isinstance(
            dispatcher_for_config(world.world_group(), 16, flat_cfg).planner, FlatPlanner
        )

    @pytest.mark.parametrize("rbd", [False, True])
    def test_engine_matches_local_reference(self, rbd):
        world, group, w1, w2, tokens, pfts = build_world(8, 16, 12, 6, 4, 20, seed=23)
        disp = make_dispatcher(group, 16, kind="rbd" if rbd else "flat", seed=7)
        out, plan = run_pipeline(disp, tokens, pfts, w1, w2, 20)
        for r in range(8):
            ref = local_reference(tokens[r], pfts[r], w1, w2, 20)
            np.testing.assert_allclose(out[r], ref, atol=1e-10)

    def test_prebuilt_plan_is_reused(self):
        world, group, w1, w2, tokens, pfts = build_world(8, 16, 8, 4, 4, 16, seed=29)
        disp = make_dispatcher(group, 16, kind="rbd", seed=1)
        plan = disp.plan(pfts)
        inputs, plan_out = disp.dispatch(tokens, pfts, plan=plan)
        assert plan_out is plan


class TestRBDDeterminism:
    def test_same_step_same_pilots(self):
        """Dispatching the same PFTs twice picks the same pilots (no hidden
        RNG state mutates across calls)."""
        world, group, w1, w2, tokens, pfts = build_world(16, 32, 8, 4, 6, 24, seed=31)
        planner = RBDPlanner(group, 32, seed=9)
        plan_a = planner.build(pfts)
        plan_b = planner.build(pfts)
        for r in range(16):
            np.testing.assert_array_equal(plan_a.hops[0].gather[r], plan_b.hops[0].gather[r])
        plan_c = planner.build(pfts, step=4)
        plan_d = planner.build(pfts, step=4)
        for r in range(16):
            np.testing.assert_array_equal(plan_c.hops[0].gather[r], plan_d.hops[0].gather[r])

    def test_different_steps_decorrelate(self):
        world, group, w1, w2, tokens, pfts = build_world(16, 32, 8, 4, 6, 24, seed=37)
        planner = RBDPlanner(group, 32, seed=9)
        plans = [planner.build(pfts, step=s) for s in range(4)]
        rows = [np.concatenate(p.hops[0].gather) for p in plans]
        assert any(not np.array_equal(rows[0], r) for r in rows[1:])
        # Pilot *counts* are step-independent: one per (token, node) group.
        assert len({p.total_pilots for p in plans}) == 1

    def test_outputs_identical_across_repeat_dispatch(self):
        world, group, w1, w2, tokens, pfts = build_world(8, 16, 8, 4, 4, 16, seed=41)
        rbd = make_dispatcher(group, 16, kind="rbd", seed=13)
        out_a, _ = run_pipeline(rbd, tokens, pfts, w1, w2, 16)
        out_b, _ = run_pipeline(rbd, tokens, pfts, w1, w2, 16)
        for r in range(8):
            np.testing.assert_array_equal(out_a[r], out_b[r])


class TestPlannedAllToAll:
    def test_matches_legacy_alltoallv(self, rng):
        """alltoallv_planned delivers the same rows and records the same
        bytes as the legacy payload-derived alltoallv."""
        world_a = CommWorld(num_ranks=4)
        world_b = CommWorld(num_ranks=4)
        buffers, splits = [], []
        for _ in range(4):
            counts = rng.integers(0, 5, size=4)
            buffers.append(rng.normal(size=(int(counts.sum()), 3)))
            splits.append(counts.astype(np.int64))
        legacy, legacy_splits = world_a.world_group().alltoallv(buffers, splits)
        planned, planned_splits = world_b.world_group().alltoallv_planned(
            buffers, splits
        )
        for j in range(4):
            np.testing.assert_array_equal(legacy[j], planned[j])
            np.testing.assert_array_equal(legacy_splits[j], planned_splits[j])
        ev_a, ev_b = world_a.stats.events[-1], world_b.stats.events[-1]
        assert ev_a.total_bytes == ev_b.total_bytes
        assert ev_a.bytes_by_tier == ev_b.bytes_by_tier
        assert ev_a.seconds == ev_b.seconds

    def test_rejects_bad_splits(self):
        world = CommWorld(num_ranks=2)
        group = world.world_group()
        with pytest.raises(ValueError):
            group.alltoallv_planned(
                [np.zeros((3, 2)), np.zeros((1, 2))],
                [np.array([1, 1]), np.array([1, 0])],
            )


class TestOracle:
    @pytest.mark.parametrize("num_ranks,num_experts,top_k", [(8, 16, 4), (16, 32, 8)])
    def test_rbd_bit_identical_to_flat(self, num_ranks, num_experts, top_k):
        """The tentpole guarantee: RBD output == flat oracle, bit for bit."""
        world, group, w1, w2, tokens, pfts = build_world(
            num_ranks, num_experts, 10, 5, top_k, 20, seed=43
        )
        flat = make_dispatcher(group, num_experts)
        world2 = CommWorld(num_ranks=num_ranks)
        rbd = make_dispatcher(world2.world_group(), num_experts, kind="rbd", seed=17)

        flat_inputs, _ = flat.dispatch(tokens, pfts)
        rbd_inputs, _ = rbd.dispatch(tokens, pfts)
        for r in range(num_ranks):
            # Canonical (expert, src, row) arrival ordering makes even the
            # expert input buffers identical, not just the outputs.
            assert flat_inputs[r].tobytes() == rbd_inputs[r].tobytes()

        flat_out, _ = run_pipeline(flat, tokens, pfts, w1, w2, 20)
        rbd_out, _ = run_pipeline(rbd, tokens, pfts, w1, w2, 20)
        for r in range(num_ranks):
            assert flat_out[r].tobytes() == rbd_out[r].tobytes()

    def test_inter_node_savings_equal_cross_node_replicas(self):
        """Recorded inter-node dispatch bytes shrink by exactly
        (cross-node replica count) x (row bytes)."""
        hidden = 12
        world_f, group_f, w1, w2, tokens, pfts = build_world(
            16, 32, hidden, 6, 8, 24, seed=47
        )
        flat = make_dispatcher(group_f, 32)
        flat.dispatch(tokens, pfts)

        world_r = CommWorld(num_ranks=16)
        rbd = make_dispatcher(world_r.world_group(), 32, kind="rbd", seed=19)
        _, plan = rbd.dispatch(tokens, pfts)

        row_bytes = hidden * 8
        flat_inter = inter_node_bytes(world_f.stats, {"dispatch_a2a"})
        rbd_inter = inter_node_bytes(world_r.stats, {"rbd_s1_a2a"})
        assert flat_inter == plan.cross_node_assignments * row_bytes
        assert rbd_inter == plan.cross_node_pilots * row_bytes
        assert flat_inter - rbd_inter == plan.cross_node_replicas * row_bytes
        assert plan.cross_node_replicas > 0
