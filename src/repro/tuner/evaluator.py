"""Candidate scoring: memory pruning + memoized analytic costing.

:class:`MemoizingEvaluator` turns a :class:`~repro.tuner.space.TuningCandidate`
into a :class:`CandidateScore` in two stages:

1. **Prune** — :class:`~repro.xmoe.memory_model.MoEMemoryModel` decides
   whether the plan fits in device HBM (``report().fits``, the exact
   predicate the trainability verdicts of Fig. 9 use).  Infeasible plans
   are never costed.
2. **Score** — :class:`~repro.xmoe.perf_model.MoEPerformanceModel` prices
   the step time (flat / RBD / hierarchical dispatch included, via
   ``dispatch_comm_estimates``), and the evaluator layers the optional
   :class:`~repro.tuner.calibration.Calibration` on top (measured
   plan-build overhead, measured ZeRO grad-sync overlap discount for
   stage >= 1 candidates, global time scale).

Both stages memoize on *cost signatures*: the subset of candidate fields
the analytic models actually read.  Router policy and placement order are
cost-inert in the current models (and the capacity factor is inert for
X-MoE's padding-free pipeline), so the many candidates that differ only in
those axes share one costed sub-plan — this is what lets the tuner rank
thousands of candidates in seconds.  ``stats`` exposes the hit/miss
counters the benchmarks assert on.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.config.hardware import SystemSpec
from repro.config.model_config import MoEModelConfig
from repro.tuner.calibration import Calibration
from repro.tuner.space import TuningCandidate
from repro.xmoe.memory_model import MoEMemoryModel, SystemKind
from repro.xmoe.perf_model import MoEPerformanceModel


@dataclass(frozen=True)
class CandidateScore:
    """The evaluator's verdict on one candidate plan.

    ``feasible`` is the memory-model verdict; every cost field is ``None``
    for infeasible plans (they are pruned before costing).  Byte totals are
    job-wide per optimizer step; time/memory breakdowns are per MoE layer
    and per device respectively.
    """

    candidate: TuningCandidate
    feasible: bool
    peak_memory_gb: float
    step_seconds: float | None = None
    tflops_per_gpu: float | None = None
    inter_node_gb_per_step: float | None = None
    plan_overhead_seconds: float = 0.0
    time_breakdown: dict[str, float] | None = None
    memory_breakdown: dict[str, float] | None = None

    @property
    def aggregated_pflops(self) -> float | None:
        """Achieved PFLOPs summed over every GPU of the plan."""
        if self.tflops_per_gpu is None:
            return None
        return self.tflops_per_gpu * self.candidate.parallel.world_size / 1e3

    def dominates(self, other: "CandidateScore") -> bool:
        """Pareto dominance: no worse on all three objectives, better on one.

        Objectives (all minimized): modeled step time, peak device memory,
        inter-node bytes per step.
        """
        if not (self.feasible and other.feasible):
            return False
        mine = (self.step_seconds, self.peak_memory_gb, self.inter_node_gb_per_step)
        theirs = (other.step_seconds, other.peak_memory_gb, other.inter_node_gb_per_step)
        return all(a <= b for a, b in zip(mine, theirs)) and mine != theirs


@dataclass
class EvaluatorStats:
    """Memoization counters (how much costing the caches saved)."""

    memory_hits: int = 0
    memory_misses: int = 0
    perf_hits: int = 0
    perf_misses: int = 0

    @property
    def hit_rate(self) -> float:
        """Fraction of all lookups served from a cache."""
        total = self.memory_hits + self.memory_misses + self.perf_hits + self.perf_misses
        if total == 0:
            return 0.0
        return (self.memory_hits + self.perf_hits) / total

    def as_dict(self) -> dict[str, float]:
        """Counter values for reports and tables."""
        return {
            "memory_hits": self.memory_hits,
            "memory_misses": self.memory_misses,
            "perf_hits": self.perf_hits,
            "perf_misses": self.perf_misses,
            "hit_rate": round(self.hit_rate, 4),
        }


@dataclass
class _PerfEntry:
    """Cached outcome of one unique perf costing."""

    step_seconds: float
    plan_overhead_seconds: float
    inter_node_bytes_per_step: float
    time_breakdown: dict[str, float]


class MemoizingEvaluator:
    """Scores candidates against one (model, system, training-kind) triple."""

    def __init__(
        self,
        model: MoEModelConfig,
        system: SystemSpec,
        *,
        kind: SystemKind = SystemKind.XMOE,
        calibration: Calibration | None = None,
    ):
        self.model = model
        self.system = system
        self.kind = kind
        self.calibration = calibration or Calibration.identity()
        self.stats = EvaluatorStats()
        self._memory_cache: dict[tuple, object] = {}
        self._perf_cache: dict[tuple, _PerfEntry] = {}

    # ------------------------------------------------------------------
    # Cost signatures: the fields the analytic models actually read.
    # ------------------------------------------------------------------
    def _capacity_term(self, candidate: TuningCandidate) -> tuple:
        """Capacity factor enters the signature only when it affects cost.

        The padded baselines size buffers and all-to-alls by the capacity
        factor; X-MoE's padding-free pipeline does not, so for it the axis
        is cost-inert and excluded (candidates differing only in capacity
        share one costing).
        """
        if self.kind is SystemKind.XMOE:
            return ()
        return (candidate.capacity_factor,)

    def _memory_signature(self, candidate: TuningCandidate) -> tuple:
        p = candidate.parallel
        return (
            p.world_size,
            p.ep_size,
            p.tp_size,
            int(p.zero_stage),
            p.use_ssmb,
            p.micro_batch_size,
            p.activation_checkpointing,
        ) + self._capacity_term(candidate)

    def _perf_signature(self, candidate: TuningCandidate) -> tuple:
        p = candidate.parallel
        return self._memory_signature(candidate) + (
            p.global_batch_size,
            p.dispatch,
        )

    # ------------------------------------------------------------------
    def evaluate(self, candidate: TuningCandidate) -> CandidateScore:
        """Prune by memory, then price the surviving plan (memoized)."""
        model = candidate.model_for(self.model)
        report = self._memory_report(candidate, model)
        if not report.fits:
            return CandidateScore(
                candidate=candidate,
                feasible=False,
                peak_memory_gb=report.total_gb,
            )
        entry = self._perf_entry(candidate, model)
        tokens_per_step = candidate.parallel.global_batch_size * model.seq_length
        flops = model.train_flops_per_token() * tokens_per_step
        tflops = flops / entry.step_seconds / candidate.parallel.world_size / 1e12
        return CandidateScore(
            candidate=candidate,
            feasible=True,
            peak_memory_gb=report.total_gb,
            step_seconds=entry.step_seconds,
            tflops_per_gpu=tflops,
            inter_node_gb_per_step=entry.inter_node_bytes_per_step / 2**30,
            plan_overhead_seconds=entry.plan_overhead_seconds,
            time_breakdown=dict(entry.time_breakdown),
            memory_breakdown={
                "model_states_gb": report.model_states_bytes / 2**30,
                "activation_gb": report.activation_bytes / 2**30,
            },
        )

    def evaluate_all(self, candidates) -> list[CandidateScore]:
        """Score an iterable of candidates in order."""
        return [self.evaluate(c) for c in candidates]

    # ------------------------------------------------------------------
    def _memory_report(self, candidate: TuningCandidate, model: MoEModelConfig):
        key = self._memory_signature(candidate)
        cached = self._memory_cache.get(key)
        if cached is not None:
            self.stats.memory_hits += 1
            return cached
        self.stats.memory_misses += 1
        report = MoEMemoryModel(
            model, candidate.parallel, self.system.node.gpu
        ).report(self.kind)
        self._memory_cache[key] = report
        return report

    def _perf_entry(self, candidate: TuningCandidate, model: MoEModelConfig) -> _PerfEntry:
        key = self._perf_signature(candidate)
        cached = self._perf_cache.get(key)
        if cached is not None:
            self.stats.perf_hits += 1
            return cached
        self.stats.perf_misses += 1
        parallel = candidate.parallel
        perf = MoEPerformanceModel(model, parallel, self.system, self.kind)

        plans_per_step = model.num_moe_layers * parallel.gradient_accumulation_steps
        # One dispatch plan covers the whole EP group, and the calibration
        # rates are measured per *group-wide* assignment — so charge the
        # group's total rows, not one device's share.  Routing (batched
        # route + PFT construction) runs once per plan, like the build.
        assignments = model.top_k * perf.tokens_per_device * parallel.ep_size
        overhead = plans_per_step * (
            self.calibration.plan_overhead_seconds(parallel.dispatch, assignments)
            + self.calibration.route_overhead_seconds(assignments)
        )
        step_seconds = perf.iteration_time()
        exposed = self.calibration.grad_sync_exposed_fraction()
        if exposed < 1.0 and int(parallel.zero_stage) >= 1:
            # The bucketed ZeRO reducer overlaps gradient reduction with
            # backward compute; keep only the measured exposed fraction of
            # the analytic model's fully-serial grad-sync term.
            step_seconds -= perf.grad_sync_time() * (1.0 - exposed)
        step_seconds = step_seconds * self.calibration.time_scale + overhead

        # Dispatch + combine cross the node boundary once each per MoE layer
        # per micro-batch; scale one EP group's traffic to the whole job.
        ep_groups = max(1, parallel.world_size // parallel.ep_size)
        layer_inter = perf.dispatch_inter_node_bytes(parallel.dispatch)
        inter_bytes = 2.0 * layer_inter * plans_per_step * ep_groups

        entry = _PerfEntry(
            step_seconds=step_seconds,
            plan_overhead_seconds=overhead,
            inter_node_bytes_per_step=inter_bytes,
            time_breakdown=perf.moe_layer_breakdown().as_dict(),
        )
        self._perf_cache[key] = entry
        return entry
