"""Determinism suite: same seed + same arrival trace ⇒ the same serve, twice.

Two fully independent engine runs over the identical (seed, arrival trace)
pair must agree on *everything observable*: every request's token stream
(ids and raw output vectors, bit for bit), the scheduler's complete
decision log (admissions, retirements, slot occupancy per step), and the
per-request drop attributions — and the plan cache must be invisible: a
cached engine and a cache-less engine produce the same serve bit for bit
(only faster), because every cache tier is bit-identical by construction.
"""

import numpy as np
import pytest

from repro.serving import (
    StaticBatchAdmission,
    bursty_arrivals,
    make_serving_engine,
    poisson_arrivals,
    run_trace,
    synth_requests,
)

SLOTS, HIDDEN, TOP_K, SEED = 4, 16, 2, 5


def _requests(pattern):
    rng = np.random.default_rng(SEED + 100)
    if pattern == "poisson":
        arrivals = poisson_arrivals(rng, 12, 1.1)
    else:
        arrivals = bursty_arrivals(12, burst_size=6, gap_steps=8)
    return synth_requests(
        rng, arrivals, HIDDEN, prompt_len=(1, 6), max_new_tokens=(2, 6)
    )


def _serve(pattern, **engine_kwargs):
    engine_kwargs.setdefault("num_slots", SLOTS)
    engine_kwargs.setdefault("top_k", TOP_K)
    engine_kwargs.setdefault("hidden_size", HIDDEN)
    engine_kwargs.setdefault("seed", SEED)
    # Force real drops so the attribution comparison is non-trivial.
    engine_kwargs.setdefault("capacity_factor", 0.5)
    engine = make_serving_engine(**engine_kwargs)
    run_trace(engine, _requests(pattern))
    return engine


def _streams(engine):
    return {
        rid: [(c.index, c.token_id, c.vector.tobytes()) for c in s.stream.history]
        for rid, s in engine.states.items()
    }


def _drop_ledgers(engine):
    per_state = {
        rid: (s.policy_drops, s.capacity_drops)
        for rid, s in engine.states.items()
    }
    return per_state, engine.runtime.telemetry.request_drop_attribution()


def _assert_identical_serves(a, b):
    assert _streams(a) == _streams(b), "token streams diverged"
    assert a.decision_log == b.decision_log, "scheduler decisions diverged"
    assert _drop_ledgers(a) == _drop_ledgers(b), "drop attributions diverged"
    assert {r: s.summary() for r, s in a.states.items()} == {
        r: s.summary() for r, s in b.states.items()
    }


@pytest.mark.parametrize("pattern", ("poisson", "bursty"))
def test_two_runs_are_identical(pattern):
    """Independent engines over the same trace agree on every observable."""
    first = _serve(pattern)
    second = _serve(pattern)
    # Sanity: the comparison is not vacuous.
    assert any(_streams(first).values())
    per_state, attribution = _drop_ledgers(first)
    assert sum(p + c for p, c in per_state.values()) > 0
    assert attribution, "no drops attributed — attribution path untested"
    _assert_identical_serves(first, second)


def test_plan_cache_is_invisible_to_the_serve():
    """Cache on vs off: identical streams, decisions, and attributions."""
    cached = _serve("poisson", plan_cache=True)
    uncached = _serve("poisson", plan_cache=False)
    # The cached run actually exercised the cache...
    outcomes = cached.runtime.telemetry.plan_cache_outcomes
    assert sum(outcomes.values()) > 0
    # ...and the cache-less run never saw one.
    assert not uncached.runtime.telemetry.plan_cache_outcomes
    _assert_identical_serves(cached, uncached)


def test_static_baseline_is_deterministic_too():
    """The fixed-batch baseline replays exactly as well (benchmark honesty)."""
    first = _serve("bursty", admission=StaticBatchAdmission())
    second = _serve("bursty", admission=StaticBatchAdmission())
    _assert_identical_serves(first, second)


def test_decision_log_reflects_continuous_admission():
    """The log shows mid-flight admissions — the continuous-batching shape."""
    engine = _serve("bursty")
    joined_mid_flight = any(
        decision.admitted
        and any(
            occupant is not None and occupant not in decision.admitted
            for occupant in decision.occupancy
        )
        for decision in engine.decision_log
    )
    assert joined_mid_flight, "no request ever joined an in-flight batch"


# ---------------------------------------------------------------------------
# PR 9: online monitoring must not perturb the serve
# ---------------------------------------------------------------------------


def _monitored_serve(pattern, **engine_kwargs):
    from repro.obs import default_serving_monitor

    engine_kwargs.setdefault("num_slots", SLOTS)
    engine_kwargs.setdefault("top_k", TOP_K)
    engine_kwargs.setdefault("hidden_size", HIDDEN)
    engine_kwargs.setdefault("seed", SEED)
    engine_kwargs.setdefault("capacity_factor", 0.5)
    engine = make_serving_engine(**engine_kwargs)
    engine.monitor = default_serving_monitor(
        engine.registry, telemetry=engine.runtime.telemetry
    )
    run_trace(engine, _requests(pattern))
    return engine


@pytest.mark.parametrize("pattern", ("poisson", "bursty"))
def test_monitoring_does_not_perturb_the_serve(pattern):
    """Token streams are bit-identical with monitoring on vs off."""
    plain = _serve(pattern)
    monitored = _monitored_serve(pattern)
    # The monitor actually ran every step...
    assert monitored.monitor.steps_observed == monitored.step_index
    assert monitored.monitor.sampler.series
    # ...and changed nothing observable about the serve.
    _assert_identical_serves(plain, monitored)


def _skewed_requests(engine, num_requests=48):
    """Balanced head, expert-aligned prefill-heavy tail (the injected drift)."""
    from repro.routing.policies import skewed_router_tokens
    from repro.serving import Request

    rng = np.random.default_rng(SEED + 100)
    arrivals = poisson_arrivals(rng, num_requests, 1.0)
    base = synth_requests(
        rng, arrivals, HIDDEN, prompt_len=(2, 8), max_new_tokens=(2, 12)
    )
    weight = engine.runtime.policy.weight
    cut = max(1, int(len(base) * 0.4))
    out = list(base[:cut])
    for request in base[cut:]:
        rows = max(int(request.prompt.shape[0]), 12)
        out.append(
            Request(
                request_id=request.request_id,
                prompt=skewed_router_tokens(
                    rng, rows, weight, skew=3.0, boost=8.0
                ),
                max_new_tokens=min(request.max_new_tokens, 2),
                arrival=request.arrival,
                deadline_steps=request.deadline_steps,
            )
        )
    return out


def _drifted_monitor(retune_hook=None):
    from repro.obs import default_serving_monitor

    engine = make_serving_engine(
        num_slots=SLOTS,
        top_k=TOP_K,
        hidden_size=HIDDEN,
        seed=SEED,
        capacity_factor=0.5,
    )
    engine.monitor = default_serving_monitor(
        engine.registry,
        telemetry=engine.runtime.telemetry,
        retune_hook=retune_hook,
    )
    run_trace(engine, _skewed_requests(engine))
    return engine.monitor


def test_forced_skew_fires_deterministic_drift_alert():
    """Injected expert skew fires the CUSUM — at the same step every run."""
    first = _drifted_monitor()
    second = _drifted_monitor()
    drift = [a for a in first.alerts if a.kind == "drift"]
    assert drift, "forced skew fired no drift alert"
    assert any(a.source == "load_imbalance" for a in drift)
    assert first.alerts.as_dicts() == second.alerts.as_dicts()
    assert "critical" in {a.severity for a in drift}, (
        "sustained skew must escalate to critical"
    )


def test_retune_hook_recommends_a_different_plan_on_drift():
    """The critical drift alert makes the tuner propose a non-active plan."""
    from repro.config import ParallelConfig, frontier_system, paper_config
    from repro.obs import TunerReTuneHook
    from repro.routing import DISPATCH_KINDS
    from repro.tuner import SearchSpace

    model = paper_config("small")
    system = frontier_system(num_nodes=2)
    space = SearchSpace(
        system=system,
        model=model,
        tokens_per_step=64 * model.seq_length,
        router_options=("softmax-topk",),
        capacity_factors=(1.0, 1.25),
    )
    # A deliberately naive active plan: no expert parallelism, flat
    # dispatch — exactly what a skew-drift re-tune should replace.
    naive = ParallelConfig(
        world_size=system.total_gpus, ep_size=1, dispatch="flat"
    )
    hook = TunerReTuneHook(model, system, naive, space=space)
    monitor = _drifted_monitor(retune_hook=hook)
    assert monitor.recommendations, "critical drift produced no re-tune"
    recommendation = monitor.recommendations[0]
    assert recommendation.differs, (
        f"tuner proposed the active plan back: {recommendation.plan}"
    )
    assert recommendation.plan.ep_size > 1
    assert hook.recommendations == monitor.recommendations
    # The summary reads the proposed config's fields, never a silent None.
    summary_plan = recommendation.summary()["plan"]
    assert summary_plan["dispatch"] in DISPATCH_KINDS
    assert summary_plan["ep_size"] == recommendation.plan.ep_size
    assert summary_plan["tp_size"] == recommendation.plan.tp_size
    # deterministic: the same drift yields the same proposal.
    again = _drifted_monitor(
        retune_hook=TunerReTuneHook(model, system, naive, space=space)
    )
    assert again.recommendations[0].summary() == recommendation.summary()
