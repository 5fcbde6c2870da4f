"""Offline auto-tuner: topology-aware parallel-plan search.

Four PRs of mechanisms — the routing-plan engine, pluggable router
policies, hierarchical dispatch, and the analytic cost/memory models —
become a decision-making system here: given a cluster, a model, and a
token budget, :func:`tune` enumerates every structurally valid
:class:`~repro.config.parallel_config.ParallelConfig` (EP/TP/ZeRO ×
dispatch ∈ {flat, rbd, hier} × router policy × capacity factor × placement
order), prunes the ones that cannot fit in device memory, prices the
survivors with the performance model (memoized, so the axes the models
are insensitive to cost nothing), and returns a ranked
:class:`~repro.tuner.report.TuningReport` with a Pareto frontier over
step time, peak memory, and inter-node traffic.

The winning plan is immediately runnable::

    report = tune(paper_config("small"), frontier_system(16))
    dispatcher = dispatcher_for_config(group, model.num_experts,
                                       report.best_parallel_config())
    policy = policy_for_config(report.best_model_config(),
                               report.best_parallel_config())

Entry points: :func:`tune` (library), ``python -m repro tune`` (CLI),
``examples/autotune_plan.py`` (walkthrough), and
``benchmarks/test_autotune.py`` (the acceptance benchmark).

The paper's own method (§5.2: sweep EP, TP and ZeRO per training system,
report the fastest plan that fits) is one preset of the same search,
:meth:`SearchSpace.paper_sweep`, which :func:`sweep_best_config` runs for
Figs. 9 and 20, Table 5, ``repro fig9`` and
``examples/plan_545b_on_frontier.py``.
"""

from __future__ import annotations

import time

from repro.config.hardware import SystemSpec, frontier_system
from repro.config.model_config import MoEModelConfig
from repro.obs import tracer as obs
from repro.tuner.calibration import Calibration, load_calibration
from repro.tuner.evaluator import CandidateScore, EvaluatorStats, MemoizingEvaluator
from repro.tuner.report import TuningReport, pareto_frontier
from repro.tuner.space import SearchSpace, TuningCandidate
from repro.xmoe.memory_model import SystemKind

__all__ = [
    "Calibration",
    "CandidateScore",
    "EvaluatorStats",
    "MemoizingEvaluator",
    "SearchSpace",
    "TuningCandidate",
    "TuningReport",
    "load_calibration",
    "pareto_frontier",
    "sweep_best_config",
    "tune",
]


def tune(
    model: MoEModelConfig,
    system: SystemSpec,
    *,
    world_size: int | None = None,
    tokens_per_step: int | None = None,
    space: SearchSpace | None = None,
    kind: SystemKind = SystemKind.XMOE,
    calibration: Calibration | None = None,
) -> TuningReport:
    """Search the parallel-plan space and return the ranked report.

    ``space`` overrides the default :class:`~repro.tuner.space.SearchSpace`
    axes entirely (its system/model/budget win); otherwise the space is
    built from ``system``, ``model``, ``world_size`` (default: every GPU),
    and ``tokens_per_step`` (default: 1024 sequences' worth, the paper's
    global batch).  Pass a :class:`~repro.tuner.calibration.Calibration`
    (for example from :func:`~repro.tuner.calibration.load_calibration`)
    to fold measured micro-benchmark constants into the scoring.
    """
    if space is None:
        if tokens_per_step is None:
            tokens_per_step = 1024 * model.seq_length
        space = SearchSpace(
            system=system,
            model=model,
            tokens_per_step=tokens_per_step,
            world_size=world_size,
        )
    evaluator = MemoizingEvaluator(
        space.model, space.system, kind=kind, calibration=calibration
    )
    start = time.perf_counter()
    with obs.span("tuner.search", "tuner") as search_span:
        with obs.span("tuner.evaluate", "tuner") as eval_span:
            scores = evaluator.evaluate_all(space.candidates())
            eval_span.set(num_enumerated=len(scores), **evaluator.stats.as_dict())
        with obs.span("tuner.rank", "tuner") as rank_span:
            feasible = [s for s in scores if s.feasible]
            feasible.sort(key=lambda s: (s.step_seconds, s.peak_memory_gb))
            pareto = pareto_frontier(feasible)
            rank_span.set(num_feasible=len(feasible), pareto_size=len(pareto))
        search_span.set(world_size=space.world_size, tokens_per_step=space.tokens_per_step)
    elapsed = time.perf_counter() - start
    return TuningReport(
        model=space.model,
        system_name=space.system.name,
        world_size=space.world_size,
        tokens_per_step=space.tokens_per_step,
        ranked=feasible,
        num_enumerated=len(scores),
        num_infeasible=len(scores) - len(feasible),
        pareto=pareto,
        least_memory_pruned=min(
            (s for s in scores if not s.feasible),
            key=lambda s: s.peak_memory_gb,
            default=None,
        ),
        evaluator_stats=evaluator.stats.as_dict(),
        calibration_source=(
            evaluator.calibration.source
            if not evaluator.calibration.is_identity
            else None
        ),
        elapsed_seconds=elapsed,
    )


def sweep_best_config(
    model: MoEModelConfig,
    world_size: int,
    kind: SystemKind,
    system_spec: SystemSpec | None = None,
    *,
    global_batch_size: int = 1024,
    micro_batch_size: int = 1,
) -> CandidateScore:
    """The paper's per-system result (§5.2): the fastest plan that fits.

    Runs :func:`tune` over :meth:`SearchSpace.paper_sweep` with the analytic
    models as-is.  When no plan fits, returns the pruned plan that needs the
    least memory (``feasible`` is False).  ``system_spec`` defaults to the
    smallest Frontier slice holding ``world_size`` GPUs.
    """
    if system_spec is None:
        system_spec = frontier_system(num_nodes=-(-world_size // 8))
    space = SearchSpace.paper_sweep(
        model,
        system_spec,
        kind,
        world_size=world_size,
        global_batch_size=global_batch_size,
        micro_batch_size=micro_batch_size,
    )
    report = tune(model, system_spec, space=space, kind=kind)
    if report.ranked:
        return report.best
    if report.least_memory_pruned is None:
        raise ValueError("no valid parallel configuration for the requested sweep")
    return report.least_memory_pruned
