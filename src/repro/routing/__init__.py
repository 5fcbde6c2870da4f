"""repro.routing — routing policies, plans, and the dispatch engine.

This package owns everything between "hidden states" and "tokens sitting in
front of their experts", split into two orthogonal layers:

**Policies — what the router decides** (:mod:`repro.routing.policies`)
    A :class:`RouterPolicy` maps hidden states to a :class:`RoutingDecision`:
    flat ``(token, expert, score, dropped)`` assignment arrays plus aux/z
    losses and the full probability matrix.  Four policies ship with the
    repo — softmax top-k (the paper's router, bit-identical to the legacy
    ``TopKGate`` path), Switch top-1 with exploration noise and
    capacity-factor dropping, noisy top-k with z-loss, and expert-choice
    routing (experts pick tokens; load balance by construction).  Policies
    are the *experimental axis*: swap one in via ``MoEModelConfig.router``,
    ``TransformerConfig.router``, `make_policy`, or the ``--router`` CLI
    flag.  Each policy has one selection body, ``decide_batch``, over a
    whole EP group's stacked logits; ``route_batch`` adds one stacked
    projection in front of it — the hot path of
    :class:`repro.runtime.StepRuntime` — and a single rank (``route`` /
    ``decide``) is the same body with R=1.

**Planners + engine — how the decision is executed**
    (:mod:`repro.routing.plan`, :mod:`repro.routing.planner`,
    :mod:`repro.routing.engine`)
    Decisions become PFTs (``RoutingDecision.to_pfts``, all ranks in one
    pass; ``to_pft`` is its one-rank case), and one planner function
    compiles per-rank PFTs into a :class:`DispatchPlan` — an ordered list
    of hops plus the arrival tables, all dispatch/combine bookkeeping as
    flat numpy arrays, built once per step — by reading the kind's row of
    ``planner.PLAN_SPECS``: :class:`FlatPlanner` (one fan-out hop; the
    correctness oracle), :class:`RBDPlanner` (a group hop of pilots, then
    an appending node fan-out) or :class:`HierarchicalPlanner` (node
    gather, leader exchange, node fan-out).
    :class:`PlanDispatcher` walks the hops behind the
    :class:`Dispatcher` protocol (``plan → dispatch → run_experts →
    combine``).  ``make_dispatcher(group, num_experts, kind=...)`` is the
    one constructor, with ``kind`` in :data:`DISPATCH_KINDS` — the same
    value as ``ParallelConfig.dispatch`` and the ``--dispatch`` CLI flag.
    Policy-dropped tokens never enter the plan, so their combine rows are
    exactly zero on every path; flat, RBD and hier outputs are
    bit-identical.

**Plan cache — skip the work when routing barely changes**
    (:mod:`repro.routing.plan_cache`)
    :class:`PlanCache` fingerprints each step's assignment multiset
    (order-insensitive digests over the stacked decision arrays) and
    resolves it against a bounded LRU: exact hit, weight-only patch, or
    cold build — every tier bit-identical to building from scratch.  Every entry compiles, before it first
    runs, to a fused :class:`ExecProgram` that replaces the engine's
    dispatch + combine with whole-array gathers and strided folds and
    prices its collectives from ``DispatchPlan.comm_schedule()``; wire it
    in via ``StepRuntime(plan_cache=...)``.

**Telemetry — what actually happened** (:mod:`repro.routing.telemetry`)
    :class:`RoutingTelemetry` accumulates per-expert load histograms, drop
    rates, normalized balance entropy, dispatched bytes, and redundancy,
    step over step; ``benchmarks/test_router_policies.py`` sweeps every
    policy over flat and RBD dispatch and prints the comparison table.

:class:`repro.moe.gating.TopKGate` delegates its selection to a policy;
``TransformerConfig.score_threshold`` is the default policy's
score-threshold knob.
"""

from repro.routing.plan import DispatchPlan
from repro.routing.planner import FlatPlanner, HierarchicalPlanner, RBDPlanner
from repro.routing.engine import (
    DISPATCH_KINDS,
    DISPATCH_OPS,
    Dispatcher,
    PlanDispatcher,
    make_dispatcher,
)
from repro.routing.plan_cache import (
    ExecProgram,
    PlanCache,
    Resolution,
    StepSignature,
    decision_fingerprint,
)
from repro.routing.policies import (
    ROUTER_POLICIES,
    ROUTER_POLICY_NAMES,
    ExpertChoicePolicy,
    NoisyTopKPolicy,
    RouterPolicy,
    RoutingDecision,
    SoftmaxTopKPolicy,
    SwitchTop1Policy,
    make_policy,
    skewed_router_tokens,
)
from repro.routing.telemetry import RoutingTelemetry, load_balance_entropy

__all__ = [
    "DISPATCH_KINDS",
    "DISPATCH_OPS",
    "DispatchPlan",
    "Dispatcher",
    "ExecProgram",
    "ExpertChoicePolicy",
    "FlatPlanner",
    "HierarchicalPlanner",
    "NoisyTopKPolicy",
    "PlanCache",
    "PlanDispatcher",
    "RBDPlanner",
    "Resolution",
    "StepSignature",
    "ROUTER_POLICIES",
    "ROUTER_POLICY_NAMES",
    "RouterPolicy",
    "RoutingDecision",
    "RoutingTelemetry",
    "SoftmaxTopKPolicy",
    "SwitchTop1Policy",
    "decision_fingerprint",
    "load_balance_entropy",
    "make_dispatcher",
    "make_policy",
    "skewed_router_tokens",
]
