"""The serving loop: continuous batching over the rank-batched step runtime.

:class:`ServingEngine` turns the training-oriented
:class:`~repro.runtime.StepRuntime` into an inference engine.  Each engine
iteration (:meth:`ServingEngine.step`):

1. **admit** — the :class:`~repro.serving.scheduler.ContinuousBatchScheduler`
   retires nothing yet and admits queued requests into free slots (new
   requests join in-flight work; no batch barrier);
2. **pack** — every occupied slot contributes its next rows (a prefill
   chunk or the single decode vector) as that EP rank's batch; free slots
   contribute ``[0, H]`` — the runtime's ragged/zero-token path;
3. **run** — one ``runtime.run_step`` executes route → plan (through the
   plan cache, when attached) → dispatch → experts → combine for every
   slot at once;
4. **stream** — each decode slot's combined output row becomes one
   :class:`~repro.serving.request.TokenChunk` on the request's stream, the
   step's per-rank drop counts are attributed to the requests occupying
   those ranks, and completed requests retire (their slots free for the
   next step's admissions).

Serving pins the runtime's ``step`` salt (``route_salt``): exploration
noise and RBD pilot selection then depend only on ``(seed, salt)`` — not
on *when* a request happens to be scheduled — which, together with the
one-request-per-slot mapping and the runtime's batched-equals-sequential
bit-identity, makes each request's token stream a pure function of the
request itself.  ``tests/test_serving_properties.py`` proves exactly that:
tokens under continuous batching are bit-identical to serving the request
alone.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from repro.obs import tracer as obs
from repro.obs.metrics import MetricsRegistry, log_buckets
from repro.runtime import StepRuntime, StepTrace

#: bucket bounds for the step-denominated serving latency histograms —
#: fine enough (24/decade) that registry quantiles track exact
#: percentiles within ~10%, the resolution the benchmark asserts.
STEP_BUCKETS = log_buckets(1.0, 4096.0, per_decade=24)
from repro.serving.queue import RequestQueue
from repro.serving.request import Request, RequestState, RequestStatus, TokenChunk
from repro.serving.scheduler import AdmissionPolicy, ContinuousBatchScheduler


def default_token_id(vector: np.ndarray) -> int:
    """Deterministic token digest of one combined output row.

    Stands in for the sample-from-logits step of a real LM head: any
    bit-exact function of the output vector works, and this one is cheap.
    """
    return int(abs(float(vector.sum())) * 1e6) % 50257


def default_next_hidden(hidden: np.ndarray, vector: np.ndarray) -> np.ndarray:
    """Deterministic decode recurrence: the next step's input vector.

    ``tanh`` keeps the state bounded; the ``roll`` breaks the fixed-point
    direction identity experts would otherwise converge to, so routing
    keeps moving across decode steps.
    """
    return np.tanh(np.roll(hidden, 1) + vector)


@dataclass
class ServeStepReport:
    """What one engine iteration did (returned by :meth:`ServingEngine.step`)."""

    step: int
    idle: bool
    admitted: tuple[str, ...]
    retired: tuple[str, ...]
    occupancy: tuple[str | None, ...]
    #: the runtime's step trace (None for idle steps).
    trace: StepTrace | None = None
    tokens_emitted: int = 0


@dataclass
class SchedulerDecision:
    """One row of the engine's decision log (determinism-comparable)."""

    step: int
    admitted: tuple[str, ...]
    retired: tuple[str, ...]
    occupancy: tuple[str | None, ...]
    rejected: tuple[str, ...] = field(default=())


class ServingEngine:
    """Continuous-batching MoE inference over a :class:`StepRuntime`.

    Parameters
    ----------
    runtime:
        The step runtime to drive.  Its dispatcher group size fixes the
        number of serving slots (one request per EP rank); its policy,
        capacity, plan cache, telemetry, and trace hooks all apply
        unchanged.
    admission:
        The :class:`~repro.serving.scheduler.AdmissionPolicy` (default
        FCFS — continuous batching).
    max_pending:
        Queue backlog bound; submissions beyond it are rejected.
    registry:
        :class:`~repro.obs.metrics.MetricsRegistry` for serving counters
        and latency histograms (a private one is created when omitted).
    route_salt:
        The fixed ``step`` value passed to every ``run_step``: keeps
        routing noise and RBD pilot selection schedule-independent so
        request outputs are batching-invariant.
    prefill_chunk:
        Prompt rows prefilled per step per request.
    monitor:
        Optional :class:`~repro.obs.monitor.Monitor`; when attached, the
        engine calls ``observe_step`` once per step *after* streaming, so
        monitoring reads the step's outcome and can never perturb it
        (token streams are bit-identical with monitoring on or off).
    """

    def __init__(
        self,
        runtime: StepRuntime,
        *,
        admission: AdmissionPolicy | None = None,
        max_pending: int | None = None,
        registry: MetricsRegistry | None = None,
        route_salt: int = 0,
        prefill_chunk: int = 4,
        token_fn=default_token_id,
        next_hidden_fn=default_next_hidden,
        monitor=None,
    ):
        if prefill_chunk < 1:
            raise ValueError("prefill_chunk must be >= 1")
        self.runtime = runtime
        self.num_slots = runtime.dispatcher.group.size
        self.hidden_size = runtime.policy.hidden_size
        self.route_salt = route_salt
        self.prefill_chunk = prefill_chunk
        self.token_fn = token_fn
        self.next_hidden_fn = next_hidden_fn
        self.queue = RequestQueue(max_pending=max_pending)
        self.scheduler = ContinuousBatchScheduler(self.num_slots, self.queue, admission)
        self.registry = registry if registry is not None else MetricsRegistry()
        self.monitor = monitor
        self.step_index = 0
        #: every non-trivial scheduling decision, for determinism checks.
        self.decision_log: list[SchedulerDecision] = []
        self._empty = np.zeros((0, self.hidden_size), dtype=np.float64)
        reg = self.registry
        self._submitted = reg.counter("serving_requests_submitted").labels()
        self._rejected = reg.counter("serving_requests_rejected").labels()
        self._admitted = reg.counter("serving_requests_admitted").labels()
        self._completed = reg.counter("serving_requests_completed").labels()
        self._deadline_missed = reg.counter("serving_deadline_missed").labels()
        self._tokens = reg.counter("serving_tokens_emitted").labels()
        self._drops = reg.counter("serving_request_drops", "kind")
        #: why an SLO burned: dropped work (policy/capacity) or a blown
        #: deadline — the cause labels the dashboard and alerts attribute.
        self._slo_events = reg.counter("serving_slo_events", "cause")
        self._queue_hist = reg.histogram(
            "serving_queue_steps", buckets=STEP_BUCKETS
        ).labels()
        self._ttft_hist = reg.histogram(
            "serving_ttft_steps", buckets=STEP_BUCKETS
        ).labels()
        self._latency_hist = reg.histogram(
            "serving_latency_steps", buckets=STEP_BUCKETS
        ).labels()

    # ------------------------------------------------------------------
    @property
    def states(self) -> dict[str, RequestState]:
        """Every submitted request's state, keyed by id (the ledger)."""
        return self.queue.states

    @property
    def has_work(self) -> bool:
        """Whether anything is queued or in a slot."""
        return bool(len(self.queue)) or bool(self.scheduler.running)

    def submit(self, request: Request) -> RequestState:
        """Enqueue one request; returns its tracking state (maybe rejected)."""
        if request.prompt.shape[1] != self.hidden_size:
            raise ValueError(
                f"prompt hidden size {request.prompt.shape[1]} != engine "
                f"hidden size {self.hidden_size}"
            )
        state = self.queue.submit(request, step=self.step_index)
        state.wall["submitted"] = time.perf_counter()
        self._submitted.inc()
        if state.status is RequestStatus.REJECTED:
            self._rejected.inc()
        return state

    # ------------------------------------------------------------------
    def step(self) -> ServeStepReport:
        """Run one engine iteration: admit → pack → run → stream → retire."""
        with obs.span("serve_step", "serving", step=self.step_index) as sp:
            with obs.span("admit", "serving"):
                admitted = self.scheduler.admit(step=self.step_index)
            for state in admitted:
                state.wall["admitted"] = time.perf_counter()
                self._admitted.inc()
                self._queue_hist.observe(float(state.queue_steps or 0))
            running = self.scheduler.running
            occupancy = tuple(
                s.request_id if s is not None else None for s in self.scheduler.slots
            )
            if not running:
                report = ServeStepReport(
                    step=self.step_index,
                    idle=True,
                    admitted=tuple(s.request_id for s in admitted),
                    retired=(),
                    occupancy=occupancy,
                )
                sp.set(idle=True)
                if self.monitor is not None:
                    self.monitor.observe_step(self.step_index, wall=time.perf_counter())
                self.step_index += 1
                return report

            with obs.span("pack", "serving"):
                batches = [
                    slot_state.next_rows(self.prefill_chunk)
                    if slot_state is not None
                    else self._empty
                    for slot_state in self.scheduler.slots
                ]
            result = self.runtime.run_step(batches, step=self.route_salt)

            with obs.span("stream", "serving"):
                tokens_emitted = self._distribute(running, batches, result)
                self._attribute_drops(running, result.trace)
                retired = self._retire_done(running)

            decision = SchedulerDecision(
                step=self.step_index,
                admitted=tuple(s.request_id for s in admitted),
                retired=tuple(s.request_id for s in retired),
                occupancy=occupancy,
            )
            self.decision_log.append(decision)
            sp.set(
                active=len(running),
                admitted=len(decision.admitted),
                retired=len(decision.retired),
                tokens=tokens_emitted,
            )
            report = ServeStepReport(
                step=self.step_index,
                idle=False,
                admitted=decision.admitted,
                retired=decision.retired,
                occupancy=occupancy,
                trace=result.trace,
                tokens_emitted=tokens_emitted,
            )
        if self.monitor is not None:
            self.monitor.observe_step(self.step_index, wall=time.perf_counter())
        self.step_index += 1
        return report

    def run_until_drained(self, *, max_steps: int = 10_000) -> int:
        """Step until every submitted request is terminal; return steps run.

        Raises if ``max_steps`` elapse first — a serving loop that cannot
        drain a finite workload is a scheduler bug, not a timeout.
        """
        start = self.step_index
        while self.has_work:
            if self.step_index - start >= max_steps:
                raise RuntimeError(
                    f"workload not drained after {max_steps} steps "
                    f"({self.queue.conservation()})"
                )
            self.step()
        return self.step_index - start

    # ------------------------------------------------------------------
    def _distribute(self, running, batches, result) -> int:
        """Advance every occupied slot with its combined output rows."""
        now = time.perf_counter()
        tokens_emitted = 0
        for slot, state in running:
            rows = int(batches[slot].shape[0])
            outputs = result.outputs[slot]
            if state.status is RequestStatus.PREFILL:
                state.cursor += rows
                if state.prompt_remaining == 0:
                    state.hidden = outputs[-1].copy()
                    state.status = RequestStatus.DECODE
                    state.wall["prefill_done"] = now
                continue
            vector = outputs[0].copy()
            chunk = TokenChunk(
                index=state.tokens_emitted,
                token_id=self.token_fn(vector),
                vector=vector,
            )
            state.stream.put(chunk)
            if state.first_token_step is None:
                state.first_token_step = self.step_index
                state.wall["first_token"] = now
                self._ttft_hist.observe(float(state.ttft_steps or 0))
            state.tokens_emitted += 1
            tokens_emitted += 1
            self._tokens.inc()
            if not state.done:
                state.hidden = self.next_hidden_fn(state.hidden, vector)
        return tokens_emitted

    def _attribute_drops(self, running, trace: StepTrace) -> None:
        """Flow the step's per-rank drop counts onto the slots' requests."""
        policy_drops = trace.policy_drops_by_rank()
        capacity_drops = trace.capacity_drops_by_rank()
        telemetry = self.runtime.telemetry
        for slot, state in running:
            pol, cap = policy_drops[slot], capacity_drops[slot]
            if not pol and not cap:
                continue
            state.policy_drops += pol
            state.capacity_drops += cap
            if pol:
                self._drops.labels(kind="policy").inc(pol)
                self._slo_events.labels(cause="policy").inc(pol)
            if cap:
                self._drops.labels(kind="capacity").inc(cap)
                self._slo_events.labels(cause="capacity").inc(cap)
            if telemetry is not None:
                telemetry.attribute_drops(state.request_id, policy=pol, capacity=cap)

    def _retire_done(self, running) -> list[RequestState]:
        """Finish and unslot every request whose decode budget is spent."""
        retired = []
        tracer = obs.get_tracer()
        for slot, state in running:
            if state.status is not RequestStatus.DECODE or not state.done:
                continue
            state.status = RequestStatus.COMPLETED
            state.finished_step = self.step_index
            state.wall["finished"] = time.perf_counter()
            state.stream.finish()
            self.scheduler.retire(state)
            self._completed.inc()
            self._latency_hist.observe(float(state.latency_steps or 0))
            if state.deadline_missed:
                self._deadline_missed.inc()
                self._slo_events.labels(cause="deadline").inc()
            if tracer is not None:
                self._record_request_spans(tracer, state, slot)
            retired.append(state)
        return retired

    def _record_request_spans(self, tracer, state: RequestState, slot: int) -> None:
        """Stamp the retired request's lifecycle onto the tracer.

        One ``request``-category span covers submit → finish (its own
        Perfetto track, keyed by the ``request`` attribute), with
        queued / prefill / decode phase sub-spans from the wall-clock
        marks the engine left along the way.  Recording happens after the
        request's last token is already streamed, so it cannot perturb
        serving.
        """
        wall = state.wall
        submitted = wall.get("submitted")
        finished = wall.get("finished")
        if submitted is None or finished is None:  # pragma: no cover - defensive
            return
        admitted = wall.get("admitted", submitted)
        prefill_done = wall.get("prefill_done", admitted)
        request_id = state.request_id
        parent = tracer.record_span(
            "request",
            "request",
            start=submitted,
            end=finished,
            attrs={
                "request": request_id,
                "slot": slot,
                "tokens": state.tokens_emitted,
                "policy_drops": state.policy_drops,
                "capacity_drops": state.capacity_drops,
                "deadline_missed": state.deadline_missed,
                "submitted_step": state.submitted_step,
                "admitted_step": state.admitted_step,
                "first_token_step": state.first_token_step,
                "finished_step": state.finished_step,
                "queue_steps": state.queue_steps,
                "ttft_steps": state.ttft_steps,
                "latency_steps": state.latency_steps,
            },
        )
        for name, start, end in (
            ("queued", submitted, admitted),
            ("prefill", admitted, prefill_done),
            ("decode", prefill_done, finished),
        ):
            tracer.record_span(
                name,
                "request",
                start=start,
                end=end,
                attrs={"request": request_id},
                parent=parent,
            )


def make_serving_engine(
    *,
    router: str = "softmax-topk",
    dispatch: str = "flat",
    num_slots: int = 8,
    experts_per_rank: int = 1,
    top_k: int = 2,
    hidden_size: int = 16,
    capacity_factor: float | None = None,
    prefill_chunk: int = 4,
    seed: int = 0,
    plan_cache: bool = True,
    admission: AdmissionPolicy | None = None,
    max_pending: int | None = None,
    route_salt: int = 0,
    registry: MetricsRegistry | None = None,
    monitor=None,
) -> ServingEngine:
    """Build a fully wired serving engine over the simulated cluster.

    One-stop construction mirroring ``repro.obs.record_routing_run``: a
    :class:`~repro.comm.process_group.CommWorld` of ``num_slots`` ranks, a
    router policy, a dispatcher of the requested kind, telemetry + metrics
    publishing into one registry, and (by default) a
    :class:`~repro.routing.plan_cache.PlanCache` so steady-state decode
    steps resolve warm.  All randomness derives from ``seed``.
    """
    from repro.comm import CommWorld
    from repro.moe.layer import compute_capacity
    from repro.routing import PlanCache, make_dispatcher, make_policy
    from repro.routing.telemetry import RoutingTelemetry
    from repro.runtime import StepRuntime

    num_experts = num_slots * experts_per_rank
    reg = registry if registry is not None else MetricsRegistry()
    world = CommWorld(num_ranks=num_slots)
    world.stats.metrics = reg
    policy = make_policy(
        router,
        hidden_size,
        num_experts,
        top_k,
        rng=np.random.default_rng(seed),
        seed=seed,
    )
    dispatcher = make_dispatcher(
        world.world_group(), num_experts, kind=dispatch, seed=seed
    )
    telemetry = RoutingTelemetry(num_experts, metrics=reg)
    telemetry.comm_stats = world.stats
    capacity = None
    if capacity_factor is not None:
        capacity = compute_capacity(
            prefill_chunk, getattr(policy, "top_k", 1), num_experts, capacity_factor
        )
    runtime = StepRuntime(
        policy,
        dispatcher,
        capacity=capacity,
        telemetry=telemetry,
        plan_cache=PlanCache() if plan_cache else None,
    )
    return ServingEngine(
        runtime,
        admission=admission,
        max_pending=max_pending,
        registry=reg,
        route_salt=route_salt,
        prefill_chunk=prefill_chunk,
        monitor=monitor,
    )
