"""Plan-cache micro-benchmark: steady-state warm steps vs cold rebuilds.

Between consecutive training steps the routing assignment multiset barely
moves, and :class:`repro.routing.plan_cache.PlanCache` exploits exactly
that: fingerprint the step, reuse (or weight-patch) a cached PFTs + plan, and
run the back half through the fused executor.  This benchmark measures the
steady-state payoff under the scenario the cache is built for — a fixed
batch whose gate scores drift a tiny amount each step (every step re-routes
**zero** assignments; the measured per-step reroute rate is asserted ≤ 5%)
— for all three dispatch kinds at EP 8 and 32.

Before any timing is trusted, cached steps (exact hits, weight patches,
*and* a re-routed step that misses) are checked bit-identical to a
cache-less runtime for every kind.  The acceptance bar: the cached
steady-state full step must beat the cache-less full step by >= 2x at
EP=32 (tunable via ``PLAN_CACHE_MIN_SPEEDUP`` for throttled CI runners).

Each run (re)writes ``benchmarks/results/plan_cache_micro.json``
(gitignored, same schema family as ``step_runtime_micro.json``) including
a ``plan_cache`` block — the measured steady-state hit rate and the warm
resolve cost relative to a cold PFT+plan build — which
:func:`repro.tuner.load_calibration` folds into tuner scoring so
steady-state workloads stop being over-charged for plan builds.
"""

import gc
import os
import time

import numpy as np
from conftest import print_table, write_record

from repro.comm import CommWorld
from repro.routing import PlanCache, make_dispatcher, make_policy
from repro.routing.plan_cache import StepSignature
from repro.routing.policies import RoutingDecision, skewed_router_tokens
from repro.runtime import StepRuntime

EP_SIZES = (8, 32)  # 1 and 4 Frontier nodes (8 GCDs each)
KINDS = ("flat", "rbd", "hier")
EXPERTS_PER_RANK, TOP_K = 1, 4
TOKENS_PER_RANK, HIDDEN = 64, 32
SKEW, SEED = 1.2, 0
ROUTER = "softmax-topk"
#: fraction of each rank's token rows nudged by ~1e-9 every step — enough
#: to drift every perturbed token's gate scores bitwise (forcing a real
#: weight patch, not an exact hit) without flipping any expert choice.
PERTURB_FRACTION = 0.03
#: distinct perturbed steps in the steady-state cycle.
CYCLE = 8

MIN_SPEEDUP = float(os.environ.get("PLAN_CACHE_MIN_SPEEDUP", "2.0"))


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


def _runtimes(ep: int, kind: str, *, cached: bool):
    num_experts = ep * EXPERTS_PER_RANK
    policy = make_policy(
        ROUTER, HIDDEN, num_experts, TOP_K,
        rng=np.random.default_rng(SEED), seed=SEED,
    )
    world = CommWorld(num_ranks=ep)
    dispatcher = make_dispatcher(world.world_group(), num_experts, kind=kind, seed=SEED)
    cache = PlanCache(maxsize=2 * CYCLE) if cached else None
    # capacity=None: the paper's padding-free pipeline needs no per-expert
    # cap, and it keeps every steady-state step weight-patchable.
    return StepRuntime(policy, dispatcher, plan_cache=cache), policy


def _base_batches(ep: int, policy):
    return [
        skewed_router_tokens(
            np.random.default_rng((SEED, 0, rank)),
            TOKENS_PER_RANK,
            policy.weight,
            skew=SKEW,
        )
        for rank in range(ep)
    ]


def _perturbed_cycle(base, rng):
    """CYCLE steady-state variants: tiny score drift on ≤5% of each batch."""
    out = []
    rows = max(1, int(PERTURB_FRACTION * TOKENS_PER_RANK))
    for _ in range(CYCLE):
        arrs = [b.copy() for b in base]
        for a in arrs:
            sel = rng.choice(TOKENS_PER_RANK, size=rows, replace=False)
            a[sel] += 1e-9 * rng.normal(size=(rows, HIDDEN))
        out.append(arrs)
    return out


def _reroute_rate(policy, previous, current):
    """Fraction of kept assignments whose (rank, token, expert) changed."""
    shape = [a.shape[0] for a in previous]
    sig_a = StepSignature.from_decisions(policy.route_batch(previous), shape)
    sig_b = StepSignature.from_decisions(policy.route_batch(current), shape)
    keys_a = np.sort(sig_a.keys[~sig_a.dropped])
    keys_b = np.sort(sig_b.keys[~sig_b.dropped])
    total = max(1, max(keys_a.size, keys_b.size))
    common = np.intersect1d(keys_a, keys_b, assume_unique=True).size
    return (keys_a.size - common + keys_b.size - common) / (2 * total)


def _assert_bit_identical(warm_result, cold_result, context):
    for a, b in zip(warm_result.outputs, cold_result.outputs):
        assert np.array_equal(a, b), f"{context}: combined outputs differ"
    for a, b in zip(warm_result.expert_inputs, cold_result.expert_inputs):
        assert np.array_equal(a, b), f"{context}: expert inputs differ"
    for a, b in zip(warm_result.pfts, cold_result.pfts):
        assert np.array_equal(a.combine_weights, b.combine_weights), context
        assert np.array_equal(a.token_ids, b.token_ids), context
        assert np.array_equal(a.expert_ids, b.expert_ids), context


def _check_identity(ep: int, kind: str, steady):
    """Warm hits, weight patches, and a re-routed miss vs cold builds."""
    warm, policy = _runtimes(ep, kind, cached=True)
    cold, _ = _runtimes(ep, kind, cached=False)
    step_arg = None if kind == "rbd" else 0
    outcomes = []
    flipped = [a.copy() for a in steady[0]]
    flipped[1][:2] *= -1.0  # re-route a couple of tokens: a cold build
    for arrs in [steady[0], steady[0], steady[1], flipped, steady[0]]:
        warm_result = warm.run_step([a.copy() for a in arrs], step=step_arg)
        cold_result = cold.run_step([a.copy() for a in arrs], step=step_arg)
        outcomes.append(warm_result.trace.cache_outcome)
        _assert_bit_identical(warm_result, cold_result, f"{kind} ep={ep}")
    assert outcomes[0] == "miss" and outcomes[1] == "hit", outcomes
    assert "weight_patch" in outcomes, outcomes
    assert outcomes[3] == "miss", outcomes
    return warm, step_arg


def test_plan_cache_micro():
    rows, seconds_record, speedups = [], {}, {}
    cache_block = {}
    for ep in EP_SIZES:
        for kind in KINDS:
            warm, _ = _runtimes(ep, kind, cached=True)
            cold, policy = _runtimes(ep, kind, cached=False)
            base = _base_batches(ep, policy)
            steady = _perturbed_cycle(base, np.random.default_rng((SEED, 1)))
            step_arg = None if kind == "rbd" else 0

            # Correctness before timing: every cache tier is bit-identical.
            _check_identity(ep, kind, steady)

            # The scenario's honesty check: the steady-state workload must
            # actually be a low-reroute workload (the bar the tentpole
            # targets is <= 5% per step; score drift alone re-routes 0%).
            rate = _reroute_rate(policy, steady[0], steady[1])
            assert rate <= 0.05, f"steady-state reroute rate {rate:.3f} > 5%"

            # Prime the cache (cold miss + fused-executor compile), then
            # time warm steady-state steps vs the cache-less runtime on the
            # identical perturbed inputs.
            warm.run_step(steady[0], step=step_arg)
            warm.run_step(steady[0], step=step_arg)
            counter = {"i": 0}

            def next_arrs():
                arrs = steady[counter["i"] % CYCLE]
                counter["i"] += 1
                return arrs

            warm_s, _ = _time(lambda: warm.run_step(next_arrs(), step=step_arg))
            counter["i"] = 0
            cold_s, _ = _time(lambda: cold.run_step(next_arrs(), step=step_arg))

            speedup = cold_s / warm_s
            speedups[(ep, kind)] = speedup
            seconds_record[f"{kind}_cold_step_ep{ep}"] = round(cold_s, 6)
            seconds_record[f"{kind}_warm_step_ep{ep}"] = round(warm_s, 6)
            rows.append(
                {
                    "ep": ep,
                    "kind": kind,
                    "reroute_rate": round(rate, 4),
                    "cold_ms": cold_s * 1e3,
                    "warm_ms": warm_s * 1e3,
                    "speedup": speedup,
                    "hit_rate": warm.plan_cache.stats()["hit_rate"],
                }
            )

            if ep == max(EP_SIZES) and kind == "flat":
                # Calibration inputs: the steady-state hit rate and the
                # cost of a warm resolve relative to a cold PFT+plan build.
                decisions = policy.route_batch(base, step=step_arg)
                cache = warm.plan_cache
                resolve = lambda: cache.resolve(  # noqa: E731
                    decisions,
                    dispatcher=warm.dispatcher,
                    capacity=None,
                    tokens_per_rank=[TOKENS_PER_RANK] * ep,
                    row_signature=(HIDDEN, "<f8"),
                    step=step_arg,
                )
                resolve()  # ensure the entry exists: timed resolves hit
                warm_resolve_s, _ = _time(resolve)
                cold_build_s, _ = _time(
                    lambda: warm.dispatcher.plan(
                        RoutingDecision.to_pfts(decisions, None), step=step_arg
                    )
                )
                cache_block = {
                    "hit_rate": warm.plan_cache.stats()["hit_rate"],
                    "warm_cost_ratio": round(
                        min(1.0, warm_resolve_s / max(cold_build_s, 1e-12)), 4
                    ),
                }

    print_table(
        f"Plan-cache micro-benchmark (S={TOKENS_PER_RANK}/rank, H={HIDDEN}, "
        f"k={TOP_K}, E/rank={EXPERTS_PER_RANK}, router={ROUTER}, "
        f"perturb={PERTURB_FRACTION:.0%}/step)",
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
            "kinds": list(KINDS),
            "skew": SKEW,
            "perturb_fraction": PERTURB_FRACTION,
            "assignments": max(EP_SIZES) * TOKENS_PER_RANK * TOP_K,
        },
        "seconds": seconds_record,
        "speedup_warm_vs_cold": {
            f"{kind}_ep{ep}": round(s, 2) for (ep, kind), s in speedups.items()
        },
        "plan_cache": cache_block,
    }
    write_record("plan_cache_micro", record)

    # The acceptance bar: warm steady-state steps must pay off at scale for
    # every dispatch kind.
    for kind in KINDS:
        assert speedups[(32, kind)] >= MIN_SPEEDUP, (
            f"cached steady-state step only {speedups[(32, kind)]:.2f}x faster "
            f"than cold builds for kind={kind} at EP=32 (need >= {MIN_SPEEDUP}x)"
        )
