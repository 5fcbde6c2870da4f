"""Observability overhead micro-benchmark: tracing must be ~free when off.

The ``repro.obs`` span instrumentation lives permanently inside the hot
step path (``StepRuntime.run_step`` phases, ``PlanCache.resolve`` tiers,
every ``ProcessGroup`` collective), so its disabled fast path — one
module-global load returning a shared no-op singleton — is a standing tax
on every step ever run.  This benchmark holds three bars:

1. **Disabled-path unit cost**: a ``span()`` enter/exit with no tracer
   attached is timed directly, and the per-warm-step span budget
   (span calls x unit cost) must stay under 3% of the warm-step baseline
   — a deterministic bound that cannot be blamed on timer noise.
2. **End-to-end overhead**: a warm cached EP=32 flat step (the exact
   steady-state workload of ``test_plan_cache_micro.py``) with no
   collector attached must stay within ``OBS_MAX_OVERHEAD`` (default
   1.2x) of a baseline this benchmark measures itself: the same runtime
   and batches with ``obs.span`` swapped for a stub that returns the
   no-op span without consulting the tracer switchboard, in timing
   windows interleaved with the instrumented ones.  (It used to read the
   plan-cache benchmark's JSON record, which does not exist yet when this
   file runs first on a fresh checkout — the bar was silently skipped.)
   The bar is looser than bar 1 because scheduler noise swings a 4 ms
   step by ~10%, while the instrumentation's true cost — bounded
   deterministically above — is ~0.05%.
3. **Tracing-on fidelity**: with a tracer attached, the per-step phase
   spans must account for >= 95% of each step span's wall time, the
   plan-cache resolution tier and comm per-tier byte splits must be
   visible as span attributes, and the Chrome-trace export must be
   structurally loadable by Perfetto (trace-event JSON, complete events
   with µs timestamps, per-rank comm tracks).

Each run writes ``benchmarks/results/obs_overhead_micro.json`` (plus its
``.history.jsonl`` trajectory) with the measured unit cost, step times,
and overhead ratio.
"""

import gc
import json
import os
import time

import numpy as np
from conftest import print_table, write_record

from repro.comm import CommWorld
from repro.obs import Tracer, chrome_trace, use_tracer
from repro.obs import tracer as obs
from repro.routing import PlanCache, make_dispatcher, make_policy
from repro.routing.policies import skewed_router_tokens
from repro.runtime import StepRuntime

EP, KIND = 32, "flat"
EXPERTS_PER_RANK, TOP_K = 1, 4
TOKENS_PER_RANK, HIDDEN = 64, 32
SKEW, SEED = 1.2, 0
ROUTER = "softmax-topk"
PERTURB_FRACTION = 0.03
CYCLE = 8

#: allowed instrumented/stubbed warm-step ratio (noise bar; the span-budget
#: bound below is the hard instrumentation-cost one).
MAX_OVERHEAD = float(os.environ.get("OBS_MAX_OVERHEAD", "1.2"))
#: the disabled span budget may cost at most this fraction of a warm step.
SPAN_BUDGET_FRACTION = 0.03


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


def _runtime():
    num_experts = EP * EXPERTS_PER_RANK
    policy = make_policy(
        ROUTER, HIDDEN, num_experts, TOP_K,
        rng=np.random.default_rng(SEED), seed=SEED,
    )
    world = CommWorld(num_ranks=EP)
    dispatcher = make_dispatcher(world.world_group(), num_experts, kind=KIND, seed=SEED)
    return StepRuntime(policy, dispatcher, plan_cache=PlanCache(maxsize=2 * CYCLE)), policy


def _steady_batches(policy):
    base = [
        skewed_router_tokens(
            np.random.default_rng((SEED, 0, rank)),
            TOKENS_PER_RANK,
            policy.weight,
            skew=SKEW,
        )
        for rank in range(EP)
    ]
    rng = np.random.default_rng((SEED, 1))
    rows = max(1, int(PERTURB_FRACTION * TOKENS_PER_RANK))
    steady = []
    for _ in range(CYCLE):
        arrs = [b.copy() for b in base]
        for a in arrs:
            sel = rng.choice(TOKENS_PER_RANK, size=rows, replace=False)
            a[sel] += 1e-9 * rng.normal(size=(rows, HIDDEN))
        steady.append(arrs)
    return steady


def _disabled_span_cost():
    """Best-of per-call seconds of a span enter/exit with tracing off."""
    assert not obs.enabled(), "tracing must be off for the disabled-path timing"
    n = 50_000
    span = obs.span

    def burn():
        for _ in range(n):
            with span("bench", "bench"):
                pass

    best, _ = _time(burn, repeats=5)
    return best / n


def _validate_chrome_trace(doc):
    """Structural checks on the trace-event document Perfetto would load."""
    assert set(doc) == {"traceEvents", "displayTimeUnit"}
    events = doc["traceEvents"]
    assert isinstance(events, list) and events
    json.dumps(doc)  # serializable end to end
    comm_tids = set()
    for event in events:
        assert event["ph"] in ("X", "M"), event
        assert isinstance(event["pid"], int) and isinstance(event["tid"], int)
        if event["ph"] == "X":
            assert isinstance(event["ts"], float) and event["ts"] >= 0.0
            assert isinstance(event["dur"], float) and event["dur"] >= 0.0
            if event["cat"] == "comm":
                comm_tids.add(event["tid"])
    # comm spans were duplicated onto per-rank tracks with name metadata.
    assert comm_tids, "expected comm events on per-rank tracks"
    named = {
        e["tid"]: e["args"]["name"]
        for e in events
        if e["ph"] == "M" and e["name"] == "thread_name"
    }
    for tid in comm_tids:
        assert named.get(tid, "").startswith("rank "), (tid, named.get(tid))


def _stub_span(name, category="default", **attrs):
    """``obs.span`` with the switchboard lookup removed (the baseline)."""
    return obs._NOOP


def test_obs_overhead_micro(monkeypatch):
    per_call = _disabled_span_cost()

    warm, policy = _runtime()
    steady = _steady_batches(policy)
    warm.run_step(steady[0], step=0)  # cold miss: compiles, then runs fused
    warm.run_step(steady[0], step=0)  # exact hit
    counter = {"i": 0}

    def next_arrs():
        arrs = steady[counter["i"] % CYCLE]
        counter["i"] += 1
        return arrs

    # Warm every cache tier and the CPU caches before trusting the timer,
    # then take the best over several timing windows, instrumented and
    # stubbed windows interleaved so both floors see the same machine.
    for _ in range(2 * CYCLE):
        warm.run_step(next_arrs(), step=0)
    warm_windows, baseline_windows = [], []
    for _ in range(3):
        warm_windows.append(
            _time(lambda: warm.run_step(next_arrs(), step=0), repeats=11)[0]
        )
        with monkeypatch.context() as patched:
            patched.setattr(obs, "span", _stub_span)
            baseline_windows.append(
                _time(lambda: warm.run_step(next_arrs(), step=0), repeats=11)[0]
            )
    warm_s, baseline_s = min(warm_windows), min(baseline_windows)

    # --- tracing-on fidelity on a fresh runtime ----------------------------
    traced, traced_policy = _runtime()
    tracer = Tracer()
    with use_tracer(tracer):
        for i in range(4):
            traced.run_step(steady[i % CYCLE], step=0)
    step_spans = tracer.named("step")
    assert len(step_spans) == 4
    tiers = [s.attrs.get("cache_tier") for s in step_spans]
    assert tiers[0] == "miss" and set(tiers[1:]) <= {"hit", "weight_patch"}, tiers
    coverages = []
    for span in step_spans:
        children = tracer.children(span)
        assert children, "step span has no phase children"
        coverages.append(sum(c.seconds for c in children) / span.seconds)
    # Aggregate across the recording: phase spans must account for >= 95%
    # of step wall time (aggregating keeps one preempted step from failing
    # an otherwise airtight decomposition).
    total_coverage = sum(
        c.seconds for s in step_spans for c in tracer.children(s)
    ) / sum(s.seconds for s in step_spans)
    assert total_coverage >= 0.95, (
        f"phase spans cover only {total_coverage:.1%} of step wall time"
    )
    resolve_tiers = {
        s.attrs.get("cache_tier") for s in tracer.named("plan_resolve")
    }
    assert "miss" in resolve_tiers and resolve_tiers & {"hit", "weight_patch"}
    comm_spans = [s for s in tracer.spans if s.category == "comm"]
    assert len(comm_spans) == 2 * len(step_spans), "one span per flat collective"
    for span in comm_spans:
        assert span.attrs["bytes"] > 0
        assert isinstance(span.attrs["bytes_by_tier"], dict) and span.attrs[
            "bytes_by_tier"
        ], span.attrs
    _validate_chrome_trace(chrome_trace(tracer))

    # spans per warm step, counted from an actual traced warm step.
    warm_span = step_spans[-1]
    spans_per_step = 1 + sum(
        1 for s in tracer.spans if s is not warm_span and s.start >= warm_span.start
    )

    # --- the bars ----------------------------------------------------------
    span_budget = spans_per_step * per_call
    assert span_budget <= SPAN_BUDGET_FRACTION * warm_s, (
        f"{spans_per_step} disabled span calls cost {span_budget * 1e6:.2f} µs "
        f"— more than {SPAN_BUDGET_FRACTION:.0%} of a {warm_s * 1e3:.3f} ms warm step"
    )

    ratio = warm_s / baseline_s
    assert ratio <= MAX_OVERHEAD, (
        f"instrumented warm step {warm_s * 1e3:.3f} ms is {ratio:.3f}x the "
        f"stubbed-span baseline {baseline_s * 1e3:.3f} ms (max {MAX_OVERHEAD}x)"
    )

    print_table(
        f"Observability overhead (EP={EP}, {KIND}, warm cached steps)",
        [
            {
                "disabled_span_ns": per_call * 1e9,
                "spans_per_step": spans_per_step,
                "span_budget_us": span_budget * 1e6,
                "warm_step_ms": warm_s * 1e3,
                "baseline_ms": baseline_s * 1e3,
                "overhead_ratio": ratio,
                "min_coverage": min(coverages),
            }
        ],
    )

    write_record(
        "obs_overhead_micro",
        {
            "workload": {
                "router": ROUTER,
                "ep": EP,
                "kind": KIND,
                "tokens_per_rank": TOKENS_PER_RANK,
                "hidden": HIDDEN,
                "top_k": TOP_K,
                "perturb_fraction": PERTURB_FRACTION,
            },
            "seconds": {
                "disabled_span_call": per_call,
                "warm_step_instrumented": round(warm_s, 6),
                "warm_step_baseline": round(baseline_s, 6),
            },
            "spans_per_warm_step": spans_per_step,
            "overhead_ratio": round(ratio, 4),
            "min_step_span_coverage": round(min(coverages), 4),
        },
    )
