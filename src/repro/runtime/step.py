"""The rank-batched step runtime: one vectorized drive loop for every workload.

Before this module existed, every workload that wanted to push tokens
through ``route → to_pft → plan → dispatch → run_experts → combine``
re-implemented the same per-rank Python loop: call ``policy.route()`` once
per rank, build each rank's PFT from scratch, then hand the lists to the
dispatcher.  :class:`StepRuntime` replaces all of those loops with a single
shared driver that executes the whole pipeline **for all ranks at once**:

* routing runs through :meth:`~repro.routing.policies.RouterPolicy.route_batch`
  — one stacked ``(num_ranks * tokens, hidden)`` projection plus one
  vectorized top-k instead of ``num_ranks`` separate calls;
* PFT construction runs through
  :meth:`~repro.routing.policies.RoutingDecision.to_pfts` — every rank's
  capacity rule and canonical ordering in one argsort/bincount pass;
* the plan build, dispatch, expert execution, and combine stages drive the
  :class:`~repro.routing.engine.Dispatcher` protocol exactly as before.

``route``/``to_pft`` are these same stages with one rank, and both are
property-tested against per-rank reference implementations
(``tests/test_step_runtime.py``), so moving a workload onto the runtime
changes its wall-clock, never its outputs.

:class:`StepWorkspace` owns the reusable stacked buffers (hidden block,
router logits, and named scratch arenas) so steady-state steps stop
re-allocating them, and :class:`StepTrace` is the uniform attachment point
for telemetry, byte accounting, and future tracing consumers: every
executed step emits one trace object to every registered hook.

With a :class:`~repro.routing.plan_cache.PlanCache` attached
(``plan_cache=``), the runtime skips the PFT build + plan compile on warm
steps, and every step — miss or hit, whatever the payload dtype — runs
*compile, then run fused*: the resolved entry's
:class:`~repro.routing.plan_cache.ExecProgram` is compiled if it has none,
then drives the whole dispatch/experts/combine back half through a handful
of whole-array gathers and strided folds, bit-identical to the engine path
(comm accounting is derived from the plan's splits, not captured from an
execution).  The engine is the oracle: every ``plan_cache=None`` runtime
interprets the plan hop by hop.
"""

from __future__ import annotations

import logging
import time
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from repro.obs import tracer as obs
from repro.routing.engine import Dispatcher
from repro.routing.plan_cache import PlanCache, Resolution
from repro.routing.policies import RouterPolicy, RoutingDecision, _PolicyBase
from repro.routing.telemetry import RoutingTelemetry

logger = logging.getLogger(__name__)


class StepWorkspace:
    """Reusable stacked buffers for the rank-batched route path.

    The runtime routes through one ``(num_ranks * tokens, hidden)`` block
    and one matching logits block per step; this workspace keeps both
    allocations alive across steps (they are re-used in place whenever the
    requested shape matches, and transparently re-grown when it does not),
    so a steady-state drive loop performs no per-step buffer allocation for
    the stacked route stage.  ``scratch_reuses`` / ``scratch_regrows`` count
    how the named scratch arenas fared (both surface in
    ``StepTrace.cache_stats``).
    """

    def __init__(self) -> None:
        self._hidden: np.ndarray | None = None
        self._logits: np.ndarray | None = None
        self._scratch: dict[str, np.ndarray] = {}
        self._scratch_last: dict[str, tuple] = {}
        self.hidden_reuses = 0
        self.logits_reuses = 0
        self.scratch_reuses = 0
        self.scratch_regrows = 0

    def _buffer(self, current: np.ndarray | None, rows: int, cols: int):
        shape = (rows, cols)
        if current is not None and current.shape == shape:
            return current, True
        return np.empty(shape, dtype=np.float64), False

    def stacked_hidden(self, rows: int, cols: int) -> np.ndarray:
        """The ``(rows, cols)`` stacked hidden-state buffer (reused)."""
        self._hidden, reused = self._buffer(self._hidden, rows, cols)
        self.hidden_reuses += int(reused)
        return self._hidden

    def stacked_logits(self, rows: int, cols: int) -> np.ndarray:
        """The ``(rows, cols)`` stacked router-logits buffer (reused)."""
        self._logits, reused = self._buffer(self._logits, rows, cols)
        self.logits_reuses += int(reused)
        return self._logits

    def scratch(self, name: str, shape: tuple, dtype=np.float64) -> np.ndarray:
        """A named scratch arena, parked for reuse once its shape is stable.

        The fused plan-cache execution path takes its per-step intermediate
        blocks here (stacked tokens, fold values, fold partials) so
        steady-state steps stop re-allocating them; contents are
        unspecified until the caller fills the array.  A request that does
        not match the parked arena allocates afresh (a *re-grow*), and the
        new buffer is parked only if the previous request asked for the
        same shape: an arena whose shape changes every step (fresh routing,
        ragged serving batches) would otherwise be re-allocated each step,
        never reused, and still pinned between steps.
        """
        key = (tuple(shape), np.dtype(dtype))
        buf = self._scratch.get(name)
        if buf is not None and (buf.shape, buf.dtype) == key:
            self.scratch_reuses += 1
            return buf
        self.scratch_regrows += 1
        self._scratch.pop(name, None)  # released before the new allocation
        buf = np.empty(key[0], dtype=key[1])
        if self._scratch_last.get(name) == key:
            self._scratch[name] = buf
        self._scratch_last[name] = key
        return buf


@dataclass
class StepTrace:
    """Everything one executed step exposes to tracing consumers.

    Emitted by :meth:`StepRuntime.run_step` to every registered trace hook
    (and embedded in the returned :class:`StepResult`), so telemetry, byte
    accounting, and future tracing consumers all attach through the same
    object instead of re-deriving step state from scratch.
    """

    step: int | None
    num_ranks: int
    tokens_per_rank: list[int]
    row_bytes: int
    decisions: list[RoutingDecision]
    pfts: list
    plan: object  # DispatchPlan
    seconds: float
    #: plan-cache resolution for this step ("hit" / "weight_patch" /
    #: "miss"), or None when the runtime has no cache attached.
    cache_outcome: str | None = None
    #: snapshot of the cache's cumulative counters after this step, plus
    #: the workspace's cumulative ``scratch_reuses`` / ``scratch_regrows``.
    cache_stats: dict = field(default_factory=dict)
    #: whether the back half ran through the fused ExecProgram.
    fused: bool = False

    @property
    def dispatched_rows(self) -> int:
        """Surviving routed assignments entering the dispatch stage.

        This counts the assignment population, not wire traffic: RBD moves
        fewer rows (dedup) and hierarchical dispatch moves rows over
        several hops — read ``plan.sent_rows()`` / ``plan.stats_dict()``
        for what the collectives actually carried.
        """
        return int(sum(pft.num_routed_tokens for pft in self.pfts))

    @property
    def dispatch_bytes(self) -> int:
        """Payload bytes of the surviving assignments (``row_bytes`` each)."""
        return self.dispatched_rows * self.row_bytes

    def policy_drops_by_rank(self) -> list[int]:
        """Assignments the router policy dropped, per rank.

        Rank-granular so consumers that map ranks to higher-level units —
        the serving engine maps one request per rank slot — can attribute
        drops to the unit that suffered them instead of a step-wide total.
        """
        return [int(d.num_dropped) for d in self.decisions]

    def capacity_drops_by_rank(self) -> list[int]:
        """Assignments PFT capacity truncation dropped, per rank."""
        return [int(p.dropped_assignments) for p in self.pfts]


#: a trace consumer: called once per executed step with the step's trace.
TraceHook = Callable[[StepTrace], None]


@dataclass
class StepResult:
    """The outputs of one runtime step, plus its :class:`StepTrace`."""

    trace: StepTrace
    expert_inputs: list[np.ndarray]
    expert_outputs: list[np.ndarray]
    outputs: list[np.ndarray]

    @property
    def plan(self):
        """The step's :class:`~repro.routing.plan.DispatchPlan`."""
        return self.trace.plan

    @property
    def decisions(self) -> list[RoutingDecision]:
        """Per-rank routing decisions (batched route, bit-identical)."""
        return self.trace.decisions

    @property
    def pfts(self) -> list:
        """Per-rank PFTs compiled by the batched builder."""
        return self.trace.pfts


class StepRuntime:
    """Executes one MoE step for every rank of an EP group at once.

    Parameters
    ----------
    policy:
        The :class:`~repro.routing.policies.RouterPolicy` that routes each
        step (must carry its own router weight).
    dispatcher:
        Any :class:`~repro.routing.engine.Dispatcher` — flat, RBD, or
        hierarchical; the runtime is agnostic.
    capacity:
        Per-expert token cap applied during PFT construction, or ``None``
        for no cap.  :func:`repro.moe.layer.compute_capacity` computes the standard
        ``ceil(capacity_factor * S * k / E)`` rule.
    expert_weights:
        Optional ``(per_rank_w1, per_rank_w2)`` expert parameter lists; when
        given, :meth:`run_step` executes the real grouped expert GEMMs.
        Without them the runtime runs *identity experts* (each expert
        returns its input), which is exactly what the validation drivers
        need to exercise dispatch + combine.
    telemetry:
        Optional :class:`~repro.routing.telemetry.RoutingTelemetry`; the
        runtime records every step into it (decisions, PFTs, plan, payload
        bytes derived from the actual token dtype).
    trace_hooks:
        Iterable of callables invoked with the :class:`StepTrace` of every
        executed step.
    plan_cache:
        Optional :class:`~repro.routing.plan_cache.PlanCache`.  When given,
        each step's routing decisions are fingerprinted and resolved
        through the cache (exact hit / weight patch / cold build) instead
        of always rebuilding PFTs and the plan, and every step compiles the
        entry's program (if it has none yet) and runs it instead of the
        engine's dispatch/combine — bit-identically.
    """

    def __init__(
        self,
        policy: RouterPolicy,
        dispatcher: Dispatcher,
        *,
        capacity: int | None = None,
        expert_weights: tuple[list[np.ndarray], list[np.ndarray]] | None = None,
        activation: str = "silu",
        telemetry: RoutingTelemetry | None = None,
        trace_hooks: tuple[TraceHook, ...] = (),
        plan_cache: PlanCache | None = None,
    ):
        from repro.xmoe.kernels import GEMM_ACTIVATIONS

        if activation not in GEMM_ACTIVATIONS:
            raise ValueError(
                f"unknown activation {activation!r}; the expert kernel "
                f"implements {sorted(GEMM_ACTIVATIONS)}"
            )
        self.policy = policy
        self.dispatcher = dispatcher
        self.capacity = capacity
        self.expert_weights = expert_weights
        self.activation = activation
        self.telemetry = telemetry
        self.trace_hooks: list[TraceHook] = list(trace_hooks)
        self.plan_cache = plan_cache
        self.workspace = StepWorkspace()
        self.steps_run = 0

    # ------------------------------------------------------------------
    def add_trace_hook(self, hook: TraceHook) -> None:
        """Register another per-step trace consumer."""
        self.trace_hooks.append(hook)

    # ------------------------------------------------------------------
    def route(
        self, per_rank_hidden: list[np.ndarray], *, step: int | None = None
    ) -> tuple[list[RoutingDecision], list]:
        """The batched front half of a step: decisions and PFTs, all ranks.

        Useful on its own when a caller only needs the routing artifacts
        (the telemetry/trace hooks do **not** fire — they observe full
        steps).
        """
        with obs.span("route_batch", "step"):
            decisions = self.policy.route_batch(
                per_rank_hidden, step=step, workspace=self.workspace
            )
        with obs.span("to_pfts", "step"):
            pfts = RoutingDecision.to_pfts(decisions, self.capacity)
        return decisions, pfts

    def run_step(
        self, per_rank_hidden: list[np.ndarray], *, step: int | None = None
    ) -> StepResult:
        """Execute route_batch → to_pfts → plan → dispatch → experts → combine.

        ``per_rank_hidden`` holds one ``[S, H]`` batch per EP-group rank.
        Returns the per-rank combined outputs along with every intermediate
        artifact, records the step into the attached telemetry, and emits a
        :class:`StepTrace` to every registered hook.
        """
        start = time.perf_counter()
        with obs.span("step", "step", step=step) as step_span:
            # The payload keeps its own dtype (routing casts to float64
            # internally): byte accounting below must see what actually moves.
            arrays = [np.asarray(h) for h in per_rank_hidden]
            if not arrays:
                raise ValueError("need at least one rank's hidden states")
            tokens_per_rank = [int(h.shape[0]) for h in arrays]
            # Payload sizing derives from the actual token dtype — a
            # float32 payload halves the byte accounting instead of
            # silently lying.
            row_bytes = int(arrays[0].shape[1] * arrays[0].dtype.itemsize)

            resolution: Resolution | None = None
            if self.plan_cache is None:
                decisions, pfts = self.route(arrays, step=step)
                with obs.span("plan_build", "step"):
                    plan = self.dispatcher.plan(pfts, step=step)
            else:
                with obs.span("route_batch", "step"):
                    decisions = self.policy.route_batch(
                        arrays, step=step, workspace=self.workspace
                    )
                with obs.span("plan_resolve", "step") as resolve_span:
                    resolution = self.plan_cache.resolve(
                        decisions,
                        dispatcher=self.dispatcher,
                        capacity=self.capacity,
                        tokens_per_rank=tokens_per_rank,
                        row_signature=(int(arrays[0].shape[1]), arrays[0].dtype.str),
                        step=step,
                    )
                    resolve_span.set(cache_tier=resolution.outcome)
                pfts, plan = resolution.pfts, resolution.plan

            fused = resolution is not None
            if fused:
                program = resolution.exec_program
                first_run = program is None
                if first_run:
                    with obs.span("fused_compile", "step"):
                        program = self.plan_cache.attach_exec(
                            resolution.entry,
                            group=self.dispatcher.group,
                            tokens_per_rank=tokens_per_rank,
                            row_bytes=row_bytes,
                        )
                with obs.span("fused_replay", "step"):
                    expert_inputs, expert_outputs, outputs = self._run_fused(
                        program, arrays, plan, tokens_per_rank, first_run
                    )
            else:
                with obs.span("dispatch", "step"):
                    expert_inputs, _ = self.dispatcher.dispatch(
                        arrays, pfts, plan=plan, step=step
                    )
                with obs.span("experts", "step"):
                    expert_outputs = self._run_experts(expert_inputs, plan)
                with obs.span("combine", "step"):
                    outputs = self.dispatcher.combine(
                        expert_outputs, plan, tokens_per_rank
                    )

            with obs.span("finalize", "step"):
                trace = StepTrace(
                    step=step,
                    num_ranks=len(arrays),
                    tokens_per_rank=tokens_per_rank,
                    row_bytes=row_bytes,
                    decisions=decisions,
                    pfts=pfts,
                    plan=plan,
                    seconds=time.perf_counter() - start,
                    cache_outcome=(
                        resolution.outcome if resolution is not None else None
                    ),
                    cache_stats=(
                        {
                            **self.plan_cache.stats(),
                            "scratch_reuses": self.workspace.scratch_reuses,
                            "scratch_regrows": self.workspace.scratch_regrows,
                        }
                        if self.plan_cache is not None
                        else {}
                    ),
                    fused=fused,
                )
                step_span.set(
                    num_ranks=trace.num_ranks,
                    fused=fused,
                    cache_tier=trace.cache_outcome,
                    dispatched_rows=trace.dispatched_rows,
                    dispatch_bytes=trace.dispatch_bytes,
                )
                if self.telemetry is not None:
                    self.telemetry.record(
                        decisions,
                        pfts=pfts,
                        plan=plan,
                        row_bytes=row_bytes,
                        cache_outcome=trace.cache_outcome,
                    )
                for hook in self.trace_hooks:
                    # Hooks are observers: a broken one must not abort the
                    # step (or starve the hooks registered after it).
                    try:
                        hook(trace)
                    except Exception:
                        logger.exception(
                            "trace hook %r failed on step %r; continuing", hook, step
                        )
        self.steps_run += 1
        return StepResult(
            trace=trace,
            expert_inputs=expert_inputs,
            expert_outputs=expert_outputs,
            outputs=outputs,
        )

    # ------------------------------------------------------------------
    def _run_experts(self, expert_inputs: list[np.ndarray], plan) -> list[np.ndarray]:
        """The grouped expert GEMMs, or identity experts without weights."""
        if self.expert_weights is None:
            # Identity experts: exercises dispatch + combine with the
            # dispatched rows (the validation drivers' mode).
            return [buf.copy() for buf in expert_inputs]
        per_rank_w1, per_rank_w2 = self.expert_weights
        return self.dispatcher.run_experts(
            expert_inputs, plan, per_rank_w1, per_rank_w2, activation=self.activation
        )

    def _stacked_tokens(self, arrays: list[np.ndarray]) -> np.ndarray:
        """The step's ``(total_tokens, hidden)`` stack for the fused gather.

        When this step's batched route just filled the workspace's stacked
        hidden buffer (shipped policies with uniform batches) and the
        payload is float64 like that buffer, it *is* the stack and is
        reused as-is; otherwise the rows are concatenated into a scratch
        arena of the payload dtype, so expert inputs keep that dtype.
        """
        rows = sum(int(a.shape[0]) for a in arrays)
        cols, dtype = int(arrays[0].shape[1]), arrays[0].dtype
        uniform = all(a.shape[0] == arrays[0].shape[0] for a in arrays)
        hidden = self.workspace._hidden
        if (
            uniform
            and hidden is not None
            and hidden.shape == (rows, cols)
            and hidden.dtype == dtype
            and type(self.policy).route_batch is _PolicyBase.route_batch
        ):
            return hidden
        stacked = self.workspace.scratch("fused_stacked_tokens", (rows, cols), dtype)
        np.concatenate(arrays, axis=0, out=stacked)
        return stacked

    def _run_fused(self, program, arrays, plan, tokens_per_rank, first_run: bool):
        """Drive one step's back half through the entry's fused program.

        The step that compiled the program (``first_run``) enters its
        combine through ``Dispatcher.combine(program=...)``, warm steps call
        the program directly — same fused fold either way.  The split is
        pinned from outside: ``bench/`` (frozen for this change) expects a
        cold step to cross the dispatcher's ``combine`` boundary and a warm
        step never to.
        """
        expert_inputs = program.run_dispatch(self._stacked_tokens(arrays))
        expert_outputs = self._run_experts(expert_inputs, plan)
        if first_run:
            outputs = self.dispatcher.combine(
                expert_outputs, plan, tokens_per_rank,
                program=program, workspace=self.workspace,
            )
        else:
            outputs = program.run_combine(expert_outputs, workspace=self.workspace)
        program.replay_comm(self.dispatcher.group.world.stats)
        return expert_inputs, expert_outputs, outputs
