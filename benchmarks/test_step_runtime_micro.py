"""Step-runtime micro-benchmark: per-rank drive loop vs batched runtime.

The :class:`repro.runtime.StepRuntime` replaces the per-rank
``policy.route()`` Python loops every driver used to carry.  This benchmark
measures exactly what that refactor bought: the wall-clock of the routing
front half (``route`` + PFT construction for all ranks, the stages the
runtime batches) under the sequential per-rank loop vs the rank-batched
path, at EP group sizes 8 and 32 (one and four Frontier nodes), plus the
full ``run_step`` time (plan + dispatch + combine included) for context.

Outputs are checked **bit-identical** between the two paths before any
timing is trusted, and the batched path must beat the per-rank loop by
>= 2x at 32 ranks (tunable via ``STEP_RUNTIME_MIN_SPEEDUP`` for throttled
CI runners).

Each run (re)writes a machine-local JSON record
(``benchmarks/results/step_runtime_micro.json``, gitignored — the same
schema family as ``dispatch_plan_micro.json``) so the repo tracks a
step-level perf trajectory; :func:`repro.tuner.load_calibration` folds the
measured per-assignment routing cost into tuner scoring.
"""

import gc
import os
import time

import numpy as np
from conftest import print_table, write_record

from repro.comm import CommWorld
from repro.moe.layer import compute_capacity
from repro.routing import make_dispatcher, make_policy
from repro.routing.policies import skewed_router_tokens
from repro.runtime import StepRuntime

EP_SIZES = (8, 32)  # 1 and 4 Frontier nodes (8 GCDs each)
# One expert per rank (the dispatch-plan micro-benchmark's convention) and
# the validation drivers' per-rank batch: S=64 tokens of hidden 32, top-4.
EXPERTS_PER_RANK, TOP_K = 1, 4
TOKENS_PER_RANK, HIDDEN = 64, 32
SKEW, SEED, STEPS = 1.2, 0, 3
ROUTER = "softmax-topk"

MIN_SPEEDUP = float(os.environ.get("STEP_RUNTIME_MIN_SPEEDUP", "2.0"))


def _time(fn, repeats=9):
    best, result = float("inf"), None
    gc.disable()
    try:
        for _ in range(repeats):
            t0 = time.perf_counter()
            result = fn()
            best = min(best, time.perf_counter() - t0)
    finally:
        gc.enable()
    return best, result


def _workload(ep: int):
    num_experts = ep * EXPERTS_PER_RANK
    policy = make_policy(
        ROUTER,
        HIDDEN,
        num_experts,
        TOP_K,
        rng=np.random.default_rng(SEED),
        seed=SEED,
    )
    capacity = compute_capacity(TOKENS_PER_RANK, TOP_K, num_experts, 1.25)
    hidden = [
        skewed_router_tokens(
            np.random.default_rng((SEED, 0, rank)),
            TOKENS_PER_RANK,
            policy.weight,
            skew=SKEW,
        )
        for rank in range(ep)
    ]
    return policy, capacity, hidden


def _per_rank_loop(policy, capacity, hidden, step=0):
    """The drive loop every workload used before the step runtime."""
    decisions, pfts = [], []
    for batch in hidden:
        decision = policy.route(batch, step=step)
        decisions.append(decision)
        pfts.append(decision.to_pft(capacity))
    return decisions, pfts


def _assert_bit_identical(seq, bat):
    seq_decisions, seq_pfts = seq
    bat_decisions, bat_pfts = bat
    for a, b in zip(seq_decisions, bat_decisions):
        assert np.array_equal(a.token_ids, b.token_ids)
        assert np.array_equal(a.expert_ids, b.expert_ids)
        assert np.array_equal(a.scores, b.scores)
        assert np.array_equal(a.dropped, b.dropped)
        assert a.aux_loss == b.aux_loss and a.z_loss == b.z_loss
    for a, b in zip(seq_pfts, bat_pfts):
        assert np.array_equal(a.token_ids, b.token_ids)
        assert np.array_equal(a.expert_ids, b.expert_ids)
        assert np.array_equal(a.tokens_per_expert, b.tokens_per_expert)
        assert np.array_equal(a.combine_weights, b.combine_weights)
        assert a.dropped_assignments == b.dropped_assignments


def test_step_runtime_micro():
    rows, seconds_record, speedups = [], {}, {}
    for ep in EP_SIZES:
        policy, capacity, hidden = _workload(ep)
        num_experts = ep * EXPERTS_PER_RANK
        world = CommWorld(num_ranks=ep)
        dispatcher = make_dispatcher(world.world_group(), num_experts, kind="flat")
        runtime = StepRuntime(policy, dispatcher, capacity=capacity)

        # Correctness first: the batched path must be bit-identical.
        _assert_bit_identical(
            _per_rank_loop(policy, capacity, hidden), runtime.route(hidden, step=0)
        )

        runtime.route(hidden, step=0)  # warm the workspace buffers
        loop_s, _ = _time(lambda: _per_rank_loop(policy, capacity, hidden))
        batched_s, _ = _time(lambda: runtime.route(hidden, step=0))
        step_s, _ = _time(lambda: runtime.run_step(hidden, step=0), repeats=3)

        assignments = ep * TOKENS_PER_RANK * TOP_K
        speedup = loop_s / batched_s
        speedups[ep] = speedup
        seconds_record[f"per_rank_route_pft_ep{ep}"] = round(loop_s, 6)
        seconds_record[f"batched_route_pft_ep{ep}"] = round(batched_s, 6)
        seconds_record[f"full_step_ep{ep}"] = round(step_s, 6)
        rows.append(
            {
                "ep": ep,
                "experts": num_experts,
                "assignments": assignments,
                "per_rank_ms": loop_s * 1e3,
                "batched_ms": batched_s * 1e3,
                "speedup": speedup,
                "full_step_ms": step_s * 1e3,
            }
        )

    print_table(
        f"Step-runtime micro-benchmark (S={TOKENS_PER_RANK}/rank, H={HIDDEN}, "
        f"k={TOP_K}, E/rank={EXPERTS_PER_RANK}, router={ROUTER})",
        rows,
    )

    record = {
        "workload": {
            "router": ROUTER,
            "tokens_per_rank": TOKENS_PER_RANK,
            "hidden": HIDDEN,
            "top_k": TOP_K,
            "experts_per_rank": EXPERTS_PER_RANK,
            "ep_sizes": list(EP_SIZES),
            "skew": SKEW,
            # The per-assignment routing rate the tuner's calibration reads:
            # measured at the largest EP, over all (token, expert) pairs.
            "assignments": max(EP_SIZES) * TOKENS_PER_RANK * TOP_K,
        },
        "seconds": {
            **seconds_record,
            "batched_route_pft": seconds_record[f"batched_route_pft_ep{max(EP_SIZES)}"],
        },
        "speedup_vs_per_rank_loop": {str(ep): round(s, 2) for ep, s in speedups.items()},
    }
    write_record("step_runtime_micro", record)

    # The acceptance bar: batching must pay off where it matters most.
    assert speedups[32] >= MIN_SPEEDUP, (
        f"batched route+PFT only {speedups[32]:.2f}x faster than the per-rank "
        f"loop at 32 ranks (need >= {MIN_SPEEDUP}x)"
    )
