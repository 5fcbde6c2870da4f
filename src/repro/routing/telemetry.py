"""Load-balance telemetry for router policies.

:class:`RoutingTelemetry` accumulates, step over step, what a router policy
actually did to the cluster: the per-expert load histogram, the policy /
capacity drop rates, the normalized load-balance entropy, and — when the
step's :class:`~repro.routing.plan.DispatchPlan` is recorded too — the
dispatched byte counts (split into inter-node vs intra-node tiers) and
redundancy of the dispatch path.  The simulated trainer records one entry
per training step; the router-policy and hierarchical-dispatch benchmarks
print the accumulated summaries as comparison tables.

Since the :mod:`repro.obs` subsystem landed, the scalar tallies live in a
:class:`~repro.obs.metrics.MetricsRegistry` instead of private attributes:
pass ``metrics=`` to publish into a shared registry (the ``repro obs``
recording does), or omit it and the telemetry keeps a private one.  Every
historical attribute (``steps``, ``assignments``, ``stage1_bytes``, ...)
is preserved as a property over the registry, so existing consumers read
exactly what they always did while exporters read the registry snapshot.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np

from repro.obs.metrics import MetricsRegistry

if TYPE_CHECKING:  # pragma: no cover - import only for annotations
    from repro.comm.process_group import CommStats


def load_balance_entropy(load: np.ndarray) -> float:
    """Normalized entropy of a per-expert load histogram.

    1.0 means perfectly even load, 0.0 means every token went to a single
    expert.  Defined as ``H(load / total) / ln(E)`` over the experts with
    ``E > 1``; degenerate histograms (no load, one expert) return 1.0.
    """
    load = np.asarray(load, dtype=np.float64)
    total = load.sum()
    if total <= 0 or load.size <= 1:
        return 1.0
    p = load[load > 0] / total
    entropy = float(-(p * np.log(p)).sum())
    return entropy / float(np.log(load.size))


def load_imbalance_of(load: np.ndarray) -> float:
    """Max-over-mean of a per-expert load histogram (1.0 = perfectly even).

    Shared by the cumulative :meth:`RoutingTelemetry.load_imbalance` view
    and the online monitor's per-step load deltas
    (:class:`~repro.obs.series.MetricsSampler`), so both read the same
    definition of skew.  Degenerate histograms (no load) return 1.0.
    """
    load = np.asarray(load, dtype=np.float64)
    mean = load.mean()
    if mean <= 0:
        return 1.0
    return float(load.max() / mean)


class RoutingTelemetry:
    """Accumulates per-step routing decisions (and optionally plans).

    ``metrics`` is the :class:`~repro.obs.metrics.MetricsRegistry` the
    tallies publish into (a private registry is created when omitted);
    ``load`` stays a numpy per-expert histogram (registries hold scalars,
    not arrays).
    """

    def __init__(self, num_experts: int, *, metrics: MetricsRegistry | None = None):
        if num_experts <= 0:
            raise ValueError("num_experts must be positive")
        self.num_experts = num_experts
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        reg = self.metrics
        self.load = np.zeros(num_experts, dtype=np.int64)
        self._steps = reg.counter("routing_steps").labels()
        self._assignments = reg.counter("routing_assignments").labels()
        self._policy_dropped = reg.counter("routing_policy_dropped").labels()
        self._capacity_dropped = reg.counter("routing_capacity_dropped").labels()
        self._aux_loss = reg.histogram("routing_aux_loss").labels()
        self._z_loss = reg.histogram("routing_z_loss").labels()
        self._stage_bytes = reg.counter("dispatch_stage_bytes", "stage")
        self._tier_bytes = reg.counter("dispatch_tier_bytes", "tier")
        self._sent_rows = reg.counter("dispatch_sent_rows").labels()
        self._planned_assignments = reg.counter("dispatch_planned_assignments").labels()
        self._cache_outcomes = reg.counter("plan_cache_resolutions", "outcome")
        #: optionally attached by the validation driver: the CommWorld's
        #: CommStats, for per-op / per-tier inspection after the run.
        self.comm_stats: CommStats | None = None

    # ------------------------------------------------------------------
    def record(
        self,
        decisions,
        *,
        pfts=None,
        plan=None,
        row_bytes: int = 0,
        cache_outcome: str | None = None,
    ) -> None:
        """Record one step: the per-rank decisions and (optionally) the plan.

        ``decisions`` is a single :class:`~repro.routing.policies.RoutingDecision`
        or a list of them (one per rank); ``pfts`` adds the capacity drops
        PFT construction applied on top of the policy's own drops; ``plan``
        adds dispatch-side telemetry with payload rows of ``row_bytes``;
        ``cache_outcome`` tallies how the step's plan was resolved when a
        :class:`~repro.routing.plan_cache.PlanCache` is in play.
        """
        if not isinstance(decisions, (list, tuple)):
            decisions = [decisions]
        for decision in decisions:
            if decision.num_experts != self.num_experts:
                raise ValueError(
                    f"decision has {decision.num_experts} experts, telemetry "
                    f"tracks {self.num_experts}"
                )
            self.load += decision.expert_load()
            self._assignments.inc(decision.num_assignments)
            self._policy_dropped.inc(decision.num_dropped)
            self._aux_loss.observe(decision.aux_loss)
            self._z_loss.observe(decision.z_loss)
        if pfts is not None:
            if not isinstance(pfts, (list, tuple)):
                pfts = [pfts]
            self._capacity_dropped.inc(
                sum(int(p.dropped_assignments) for p in pfts)
            )
        if plan is not None:
            stats = plan.stats_dict(row_bytes)
            self._stage_bytes.labels(stage="stage1").inc(stats["stage1_bytes"])
            self._stage_bytes.labels(stage="stage2").inc(stats["stage2_bytes"])
            self._tier_bytes.labels(tier="inter_node").inc(
                plan.inter_node_rows * row_bytes
            )
            self._tier_bytes.labels(tier="intra_node").inc(
                plan.intra_node_rows * row_bytes
            )
            self._sent_rows.inc(plan.sent_rows())
            self._planned_assignments.inc(plan.total_assignments)
        if cache_outcome is not None:
            self._cache_outcomes.labels(outcome=cache_outcome).inc()
        self._steps.inc()

    def attribute_drops(
        self, request_id: str, *, policy: int = 0, capacity: int = 0
    ) -> None:
        """Attribute a step's drops to the request that suffered them.

        The serving engine maps one request to one EP rank slot, so each
        rank's per-step drop counts (``StepTrace.policy_drops_by_rank`` /
        ``capacity_drops_by_rank``) are exactly one request's drops.  They
        land in the ``routing_request_drops`` family labeled by request and
        kind; :meth:`request_drop_attribution` reads the ledger back.
        """
        if policy < 0 or capacity < 0:
            raise ValueError("drop counts must be non-negative")
        family = self.metrics.counter("routing_request_drops", "request", "kind")
        if policy:
            family.labels(request=request_id, kind="policy").inc(policy)
        if capacity:
            family.labels(request=request_id, kind="capacity").inc(capacity)

    def request_drop_attribution(self) -> dict[str, dict[str, int]]:
        """Per-request drop tallies: ``{request_id: {kind: count}}``.

        Only requests that actually suffered drops appear (zero counts are
        never recorded), so an empty dict means a drop-free run.
        """
        out: dict[str, dict[str, int]] = {}
        family = self.metrics.counter("routing_request_drops", "request", "kind")
        for key, child in family.series().items():
            request_id, kind = key
            out.setdefault(request_id, {})[kind] = int(child.value)
        return out

    # ------------------------------------------------------------------
    # Registry-backed views with the historical attribute names.
    @property
    def steps(self) -> int:
        """Recorded steps."""
        return int(self._steps.value)

    @property
    def assignments(self) -> int:
        """Routed (token, expert) assignments across all steps."""
        return int(self._assignments.value)

    @property
    def policy_dropped(self) -> int:
        """Assignments the router policy itself dropped."""
        return int(self._policy_dropped.value)

    @property
    def capacity_dropped(self) -> int:
        """Assignments dropped by PFT capacity truncation."""
        return int(self._capacity_dropped.value)

    @property
    def aux_loss_sum(self) -> float:
        """Sum of per-decision auxiliary (load-balance) losses."""
        return self._aux_loss.total

    @property
    def z_loss_sum(self) -> float:
        """Sum of per-decision router z-losses."""
        return self._z_loss.total

    @property
    def stage1_bytes(self) -> float:
        """Dispatch stage-1 payload bytes across all recorded plans."""
        return self._stage_bytes.labels(stage="stage1").value

    @property
    def stage2_bytes(self) -> float:
        """Dispatch stage-2 payload bytes across all recorded plans."""
        return self._stage_bytes.labels(stage="stage2").value

    @property
    def inter_node_bytes(self) -> float:
        """Payload bytes that crossed a node boundary."""
        return self._tier_bytes.labels(tier="inter_node").value

    @property
    def intra_node_bytes(self) -> float:
        """Payload bytes that stayed within a node."""
        return self._tier_bytes.labels(tier="intra_node").value

    @property
    def sent_rows(self) -> int:
        """Rows the dispatch collectives actually carried."""
        return int(self._sent_rows.value)

    @property
    def planned_assignments(self) -> int:
        """Assignments the recorded plans were built to serve."""
        return int(self._planned_assignments.value)

    @property
    def plan_cache_outcomes(self) -> dict[str, int]:
        """Plan-cache resolution tallies keyed by outcome.

        Empty until a caching runtime records a step — exactly the dict
        this class kept as a plain attribute before the registry refactor.
        """
        return {
            key[0]: int(child.value)
            for key, child in self._cache_outcomes.series().items()
        }

    # ------------------------------------------------------------------
    @property
    def dropped(self) -> int:
        """All dropped assignments (policy-level + capacity-level)."""
        return self.policy_dropped + self.capacity_dropped

    @property
    def drop_rate(self) -> float:
        """Dropped assignments as a fraction of all routed assignments."""
        if self.assignments == 0:
            return 0.0
        return self.dropped / self.assignments

    @property
    def redundancy(self) -> float:
        """Fraction of planned assignments served as intra-node replicas."""
        if self.planned_assignments == 0:
            return 0.0
        return 1.0 - self.sent_rows / self.planned_assignments

    def balance_entropy(self) -> float:
        """Normalized entropy of the accumulated per-expert load."""
        return load_balance_entropy(self.load)

    def load_imbalance(self) -> float:
        """Max-over-mean per-expert load (1.0 = perfectly even)."""
        return load_imbalance_of(self.load)

    def mean_aux_loss(self) -> float:
        """Mean per-step auxiliary (load-balance) loss."""
        return self.aux_loss_sum / max(1, self.steps)

    # ------------------------------------------------------------------
    @property
    def plan_cache_hit_rate(self) -> float:
        """Fraction of cached-runtime steps that skipped the plan build."""
        outcomes = self.plan_cache_outcomes
        total = sum(outcomes.values())
        if total == 0:
            return 0.0
        warm = outcomes.get("hit", 0) + outcomes.get("weight_patch", 0)
        return warm / total

    def summary(self) -> dict:
        """Headline numbers for reporting (one row of the comparison table).

        Plan-cache keys appear only when a caching runtime recorded at
        least one step, so existing consumers of the table are unaffected.
        """
        out = self._base_summary()
        outcomes = self.plan_cache_outcomes
        if outcomes:
            out["plan_cache_hit_rate"] = round(self.plan_cache_hit_rate, 4)
            for outcome in ("hit", "weight_patch", "miss"):
                out[f"plan_cache_{outcome}"] = outcomes.get(outcome, 0)
        return out

    def _base_summary(self) -> dict:
        return {
            "steps": self.steps,
            "assignments": self.assignments,
            "balance_entropy": round(self.balance_entropy(), 4),
            "load_imbalance": round(self.load_imbalance(), 3),
            "drop_rate": round(self.drop_rate, 4),
            "policy_dropped": self.policy_dropped,
            "capacity_dropped": self.capacity_dropped,
            "stage1_mb": round(self.stage1_bytes / 1e6, 3),
            "stage2_mb": round(self.stage2_bytes / 1e6, 3),
            "inter_node_mb": round(self.inter_node_bytes / 1e6, 3),
            "intra_node_mb": round(self.intra_node_bytes / 1e6, 3),
            "redundancy": round(self.redundancy, 4),
        }
