"""Auto-tuner acceptance benchmark (this repo's own experiment).

Reference scenario: the 201B "Large" model on a 32-node Frontier partition
(256 GCDs), searching the full plan space — EP/TP/ZeRO degrees × dispatch
∈ {flat, rbd, hier} × router policy × capacity factor × placement order.

Assertions (the acceptance criteria of the tuner subsystem):

* the space holds >= 200 candidates and the memoized evaluation ranks it
  in seconds, with the cache serving the bulk of the lookups;
* memory pruning bites (the Large model OOMs in many layouts) and every
  *ranked* plan fits in device HBM — the tuner can never recommend an OOM;
* the #1 plan strictly dominates at least the worst feasible candidate on
  modeled step time;
* the winning plan is runnable end to end through the functional substrate
  via ``dispatcher_for_config`` + ``policy_for_config``, driven by the
  shared rank-batched :class:`repro.runtime.StepRuntime`.
"""

import time

import numpy as np

from conftest import print_table

from repro.comm import CommWorld
from repro.config import frontier_system, paper_config
from repro.runtime import StepRuntime
from repro.tuner import tune
from repro.xmoe import dispatcher_for_config, policy_for_config

NODES = 32  # 256 GCDs: the paper's Fig. 9 scale
WALL_CLOCK_BUDGET_S = 30.0  # "ranks the space in seconds", CI-safe


def test_autotune_large_on_frontier():
    model = paper_config("large")
    system = frontier_system(num_nodes=NODES)

    start = time.perf_counter()
    report = tune(model, system)
    elapsed = time.perf_counter() - start

    # ---- scale and speed --------------------------------------------
    assert report.num_enumerated >= 200
    assert elapsed < WALL_CLOCK_BUDGET_S, (
        f"tuning took {elapsed:.1f}s for {report.num_enumerated} candidates"
    )
    assert report.evaluator_stats["hit_rate"] > 0.5, (
        "memoization is not pulling its weight"
    )

    # ---- memory safety ----------------------------------------------
    assert report.num_infeasible > 0, (
        "the Large model should OOM in part of the space"
    )
    capacity_gb = system.node.gpu.memory_bytes / 2**30
    for score in report.ranked:
        assert score.peak_memory_gb <= capacity_gb

    # ---- ranking quality --------------------------------------------
    best, worst = report.best, report.worst
    assert best.step_seconds < worst.step_seconds, (
        "the #1 plan must dominate at least the worst feasible candidate"
    )
    assert best in report.pareto or any(
        best.step_seconds == p.step_seconds for p in report.pareto
    )

    # ---- the winner is runnable -------------------------------------
    plan = report.best_parallel_config()
    tuned_model = report.best_model_config()
    ep = plan.ep_size
    hidden, tokens_per_rank = 32, 16
    world = CommWorld(num_ranks=ep, system=system)
    dispatcher = dispatcher_for_config(
        world.world_group(), tuned_model.num_experts, plan
    )
    policy = policy_for_config(
        tuned_model.scaled(hidden_size=hidden), plan, rng=np.random.default_rng(0)
    )
    tokens = [
        np.random.default_rng(r).normal(size=(tokens_per_rank, hidden))
        for r in range(ep)
    ]
    result = StepRuntime(policy, dispatcher).run_step(tokens, step=0)
    assert result.plan.kind == plan.dispatch
    assert all(o.shape == (tokens_per_rank, hidden) for o in result.outputs)

    # ---- report ------------------------------------------------------
    rows = report.table_rows(8)
    rows.append(
        {
            "rank": f"... of {report.num_feasible} feasible "
            f"({report.num_infeasible} pruned, {elapsed:.2f}s)",
        }
    )
    print_table(
        f"Auto-tune: Large on {NODES * 8} GCDs "
        f"(hit rate {report.evaluator_stats['hit_rate']:.0%})",
        rows,
    )
