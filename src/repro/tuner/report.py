"""The tuner's output: a ranked report with a Pareto frontier.

A :class:`TuningReport` records everything one search produced: the ranked
feasible plans (fastest modeled step first), the pruning statistics, the
evaluator's memoization counters, and the Pareto frontier over the three
objectives the paper trades off — modeled step time, peak device memory,
and inter-node traffic.  The winning plan is directly consumable:
``report.best.candidate.parallel`` feeds
:func:`~repro.xmoe.trainer.dispatcher_for_config` and
``report.best_model_config()`` feeds
:func:`~repro.xmoe.trainer.policy_for_config`.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.config.model_config import MoEModelConfig
from repro.tuner.evaluator import CandidateScore


def pareto_frontier(scores: list[CandidateScore]) -> list[CandidateScore]:
    """The non-dominated feasible scores (step time / memory / inter-node bytes).

    A score is on the frontier when no other feasible score is at least as
    good on all three minimized objectives and strictly better on one.
    Plans with *identical* objective vectors (candidates differing only in
    cost-inert axes) are deduplicated to one representative — the first in
    the given order, so on a ranked list the frontier keeps the ranking's
    preferred plan of each tied group.
    """
    feasible = []
    seen: set[tuple] = set()
    for s in scores:
        if not s.feasible:
            continue
        objectives = (s.step_seconds, s.peak_memory_gb, s.inter_node_gb_per_step)
        if objectives in seen:
            continue
        seen.add(objectives)
        feasible.append(s)
    return [
        s
        for s in feasible
        if not any(other.dominates(s) for other in feasible if other is not s)
    ]


@dataclass
class TuningReport:
    """Everything one auto-tuning search produced."""

    model: MoEModelConfig
    system_name: str
    world_size: int
    tokens_per_step: int
    ranked: list[CandidateScore]
    num_enumerated: int
    num_infeasible: int
    pareto: list[CandidateScore] = field(default_factory=list)
    #: the pruned plan that needs the least memory (first seen on ties).
    least_memory_pruned: CandidateScore | None = None
    evaluator_stats: dict = field(default_factory=dict)
    calibration_source: str | None = None
    elapsed_seconds: float = 0.0

    # ------------------------------------------------------------------
    @property
    def num_feasible(self) -> int:
        """Candidates that survived the memory-model pruning."""
        return len(self.ranked)

    @property
    def best(self) -> CandidateScore:
        """The top-ranked (fastest modeled step) feasible plan."""
        if not self.ranked:
            raise ValueError(
                "no feasible candidate: every plan exceeded device memory"
            )
        return self.ranked[0]

    @property
    def worst(self) -> CandidateScore:
        """The slowest plan that still fits in memory (the ranking's tail)."""
        if not self.ranked:
            raise ValueError(
                "no feasible candidate: every plan exceeded device memory"
            )
        return self.ranked[-1]

    def best_parallel_config(self):
        """The winner's :class:`~repro.config.parallel_config.ParallelConfig`.

        Pass it straight to :func:`~repro.xmoe.trainer.dispatcher_for_config`
        (the dispatch strategy rides along on ``dispatch``).
        """
        return self.best.candidate.parallel

    def best_model_config(self) -> MoEModelConfig:
        """The base model with the winner's router policy + capacity factor.

        Pass it straight to :func:`~repro.xmoe.trainer.policy_for_config`.
        """
        return self.best.candidate.model_for(self.model)

    # ------------------------------------------------------------------
    def table_rows(self, top: int = 10) -> list[dict]:
        """The ranking's head as printable rows (one dict per plan)."""
        pareto_ids = {id(s) for s in self.pareto}
        rows = []
        for rank, score in enumerate(self.ranked[:top], start=1):
            parallel = score.candidate.parallel
            rows.append(
                {
                    "rank": rank,
                    "ep": parallel.ep_size,
                    "tp": parallel.tp_size,
                    "zero": int(parallel.zero_stage),
                    "ssmb": "on" if parallel.use_ssmb else "off",
                    "dispatch": parallel.dispatch,
                    "placement": parallel.placement.value,
                    "router": score.candidate.router,
                    "cap": score.candidate.capacity_factor,
                    "step_s": score.step_seconds,
                    "TF/GPU": score.tflops_per_gpu,
                    "mem_GB": score.peak_memory_gb,
                    "inter_GB": score.inter_node_gb_per_step,
                    "pareto": "*" if id(score) in pareto_ids else "",
                }
            )
        return rows

    def describe(self) -> str:
        """Multi-line human-readable summary of the search outcome."""
        lines = [
            f"auto-tune: {self.model.name} on {self.system_name} "
            f"({self.world_size} GPUs, {self.tokens_per_step} tokens/step)",
            f"  candidates : {self.num_enumerated} enumerated, "
            f"{self.num_feasible} feasible, {self.num_infeasible} pruned by memory",
            f"  pareto     : {len(self.pareto)} non-dominated plans",
            f"  evaluator  : {self.evaluator_stats}",
            f"  elapsed    : {self.elapsed_seconds:.2f}s",
        ]
        if self.calibration_source:
            lines.append(f"  calibrated : {self.calibration_source}")
        if self.ranked:
            best = self.best
            lines.append(f"  best plan  : {best.candidate.describe()}")
            lines.append(
                f"               step {best.step_seconds:.3f}s | "
                f"{best.tflops_per_gpu:.1f} TF/GPU | "
                f"{best.peak_memory_gb:.1f} GB | "
                f"{best.inter_node_gb_per_step:.2f} GB inter-node/step"
            )
        else:
            lines.append("  best plan  : none (every candidate exceeded device memory)")
        return "\n".join(lines)
