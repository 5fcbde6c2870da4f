"""Property suite for the serving engine: the scheduler's three theorems.

A continuous-batching scheduler is exactly the kind of component that looks
right and is subtly wrong, so its core guarantees are stated as properties
and swept, not spot-checked:

1. **Batching invariance** — a request's token stream under continuous
   batching is bit-identical to serving the same request alone, for every
   router policy × dispatch kind (the engine pins the routing salt and maps
   one request per EP rank slot, so co-batched traffic cannot leak into a
   request's routing), and across hypothesis-generated arrival patterns.
2. **FCFS no-starvation** — admission order equals submission order, and
   every request's queue wait is bounded by the total service demand of the
   requests ahead of it (work conservation: slots never idle while the
   queue is non-empty).
3. **Queue conservation** — every submitted request terminates exactly
   once: completed or rejected, never lost, never duplicated, stream
   finished exactly once.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.routing import ROUTER_POLICY_NAMES
from repro.serving import (
    Request,
    RequestStatus,
    bursty_arrivals,
    make_serving_engine,
    poisson_arrivals,
    run_trace,
    synth_requests,
)

DISPATCH_KINDS = ("flat", "rbd", "hier")
SLOTS, HIDDEN, TOP_K, SEED = 4, 16, 2, 3


def _engine(router, dispatch, **kwargs):
    kwargs.setdefault("num_slots", SLOTS)
    kwargs.setdefault("top_k", TOP_K)
    kwargs.setdefault("hidden_size", HIDDEN)
    kwargs.setdefault("seed", SEED)
    return make_serving_engine(router=router, dispatch=dispatch, **kwargs)


def _requests(arrival_seed, *, count=10, pattern="poisson"):
    rng = np.random.default_rng(arrival_seed)
    if pattern == "poisson":
        arrivals = poisson_arrivals(rng, count, 0.9)
    elif pattern == "bursty":
        arrivals = bursty_arrivals(count, burst_size=SLOTS + 2, gap_steps=6)
    else:  # simultaneous: everything lands at step 0
        arrivals = [0] * count
    return synth_requests(
        rng, arrivals, HIDDEN, prompt_len=(1, 6), max_new_tokens=(1, 5)
    )


def _stream_pairs(state):
    return [(c.token_id, c.vector.tobytes()) for c in state.stream.history]


def _assert_solo_identical(router, dispatch, requests, batched_states, **engine_kwargs):
    """The oracle: each request re-served alone must match bit for bit."""
    for request in requests:
        solo = _engine(router, dispatch, **engine_kwargs)
        solo.submit(
            Request(
                request_id=request.request_id,
                prompt=request.prompt.copy(),
                max_new_tokens=request.max_new_tokens,
            )
        )
        solo.run_until_drained()
        solo_state = solo.states[request.request_id]
        batched_state = batched_states[request.request_id]
        assert _stream_pairs(batched_state) == _stream_pairs(solo_state), (
            f"{router}/{dispatch}: request {request.request_id} decoded "
            "differently under continuous batching than alone"
        )
        assert batched_state.policy_drops == solo_state.policy_drops
        assert batched_state.capacity_drops == solo_state.capacity_drops


@pytest.mark.parametrize("dispatch", DISPATCH_KINDS)
@pytest.mark.parametrize("router", ROUTER_POLICY_NAMES)
def test_batching_invariance_across_policies_and_dispatch(router, dispatch):
    """Continuous-batch outputs == isolated runs for every policy × kind."""
    requests = _requests(11, count=8, pattern="poisson")
    engine = _engine(router, dispatch)
    report = run_trace(engine, requests)
    assert report.completed == len(requests)
    _assert_solo_identical(router, dispatch, requests, engine.states)


@pytest.mark.parametrize("router", ("switch-top1", "expert-choice"))
def test_batching_invariance_with_capacity_drops(router):
    """Invariance survives real drops: capped PFTs drop per rank, so a
    request's drop pattern is its own whichever slot it lands in."""
    requests = _requests(12, count=8, pattern="simultaneous")
    engine = _engine(router, "flat", capacity_factor=0.5)
    run_trace(engine, requests)
    total_drops = sum(
        s.policy_drops + s.capacity_drops for s in engine.states.values()
    )
    assert total_drops > 0, "workload produced no drops — property untested"
    _assert_solo_identical(
        router, "flat", requests, engine.states, capacity_factor=0.5
    )


@pytest.mark.parametrize("capacity_factor", (None, 1.25))
def test_nonpositive_prefill_chunk_rejected(capacity_factor):
    """The capacity is computed from ``prefill_chunk`` before the engine is
    built; a chunk of 0 is a ``ValueError`` with or without a cap."""
    with pytest.raises(ValueError):
        _engine("softmax-topk", "flat", prefill_chunk=0, capacity_factor=capacity_factor)


@settings(max_examples=12, deadline=None)
@given(
    pattern=st.sampled_from(("poisson", "bursty", "simultaneous")),
    arrival_seed=st.integers(min_value=0, max_value=2**16),
    count=st.integers(min_value=2, max_value=9),
)
def test_batching_invariance_over_arrival_patterns(pattern, arrival_seed, count):
    """Invariance is arrival-schedule-independent (hypothesis sweep)."""
    requests = _requests(arrival_seed, count=count, pattern=pattern)
    engine = _engine("noisy-topk", "rbd")
    run_trace(engine, requests)
    # Re-serving every request would square the runtime; two suffice per
    # example because the engine treats all slots identically.
    sample = [requests[0], requests[count // 2]]
    _assert_solo_identical("noisy-topk", "rbd", sample, engine.states)


@settings(max_examples=15, deadline=None)
@given(
    pattern=st.sampled_from(("poisson", "bursty", "simultaneous")),
    arrival_seed=st.integers(min_value=0, max_value=2**16),
    count=st.integers(min_value=3, max_value=14),
)
def test_fcfs_never_starves(pattern, arrival_seed, count):
    """FCFS admits in submission order with a provable wait bound."""
    requests = _requests(arrival_seed, count=count, pattern=pattern)
    engine = _engine("softmax-topk", "flat")
    run_trace(engine, requests)
    states = list(engine.states.values())
    assert all(s.status is RequestStatus.COMPLETED for s in states)

    # Admission never reorders: the ledger iterates in submission order, so
    # FCFS means admission steps are non-decreasing along it.
    admitted_steps = [s.admitted_step for s in states]
    assert admitted_steps == sorted(admitted_steps), (
        "a later submission was admitted before an earlier one"
    )

    # Work conservation bound: while a request queues, every slot is busy
    # serving requests submitted before it, so its wait never exceeds the
    # total service demand ahead of it.
    chunk = engine.prefill_chunk
    for i, state in enumerate(states):
        bound = sum(e.service_steps(chunk) for e in states[:i]) + 1
        assert state.queue_steps is not None and state.queue_steps <= bound, (
            f"request {state.request_id} waited {state.queue_steps} steps "
            f"(> bound {bound}) — starvation"
        )


@settings(max_examples=15, deadline=None)
@given(
    pattern=st.sampled_from(("poisson", "bursty", "simultaneous")),
    arrival_seed=st.integers(min_value=0, max_value=2**16),
    count=st.integers(min_value=2, max_value=12),
    max_pending=st.integers(min_value=1, max_value=4),
)
def test_queue_conservation(pattern, arrival_seed, count, max_pending):
    """Every submitted request terminates exactly once, even under overload."""
    requests = _requests(arrival_seed, count=count, pattern=pattern)
    engine = _engine("softmax-topk", "flat", max_pending=max_pending)
    run_trace(engine, requests)
    states = list(engine.states.values())
    assert len(states) == count  # nothing lost, nothing duplicated
    assert all(s.status.terminal for s in states)
    assert all(s.stream.finished for s in states)
    assert all(s.finished_step is not None for s in states)
    completed = sum(1 for s in states if s.status is RequestStatus.COMPLETED)
    rejected = sum(1 for s in states if s.status is RequestStatus.REJECTED)
    assert completed + rejected == count
    totals = engine.queue.conservation()
    assert totals["submitted"] == count and totals["pending"] == 0
    assert totals["rejected"] == rejected
    # Completed requests emitted their full decode budget; rejected ones
    # emitted nothing.
    for state in states:
        expected = (
            state.request.max_new_tokens
            if state.status is RequestStatus.COMPLETED
            else 0
        )
        assert state.tokens_emitted == expected
        assert len(state.stream.history) == expected
