"""Training-config glue and the functional validation drivers.

The paper's plan search (sweep EP, TP and ZeRO, keep the fastest plan that
fits in memory) is :func:`repro.tuner.sweep_best_config`, one preset of the
tuner's search; this module holds what turns a chosen plan into running
code.

:func:`dispatcher_for_config` and :func:`policy_for_config` bridge a
chosen plan and the functional substrate: the former returns the
plan-based dispatch engine (flat, RBD, or hierarchical, per
``parallel.dispatch``), the latter the
:class:`~repro.routing.policies.RouterPolicy` named by ``model.router`` —
and :func:`run_routing_validation` drives both through the shared
:class:`~repro.runtime.StepRuntime` (one rank-batched route/PFT/dispatch
loop, no per-rank Python routing) over the simulated cluster for a few
steps, recording a step-by-step
:class:`~repro.routing.telemetry.RoutingTelemetry`.
:func:`sweep_dispatch_validation` runs the same validation once per dispatch
strategy, which is how the dispatch benchmarks compare per-tier traffic.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.comm.process_group import CommWorld, ProcessGroup
from repro.config.hardware import SystemSpec
from repro.obs import tracer as obs
from repro.config.model_config import MoEModelConfig
from repro.config.parallel_config import ParallelConfig, ZeroStage
from repro.moe.layer import compute_capacity
from repro.routing.engine import PlanDispatcher, make_dispatcher
from repro.routing.policies import RouterPolicy, make_policy, skewed_router_tokens
from repro.routing.telemetry import RoutingTelemetry
from repro.runtime import StepRuntime


def dispatcher_for_config(
    group: ProcessGroup,
    num_experts: int,
    parallel: ParallelConfig,
    *,
    expert_to_rank: np.ndarray | None = None,
    seed: int = 0,
) -> PlanDispatcher:
    """The dispatch engine a training configuration calls for.

    ``parallel.dispatch`` picks the planner — ``"flat"`` (single uneven
    all-to-all), ``"rbd"`` (two-stage redundancy-bypassing), or ``"hier"``
    (two-hop hierarchical dispatch through node leaders).  All three sit behind the
    same :class:`~repro.routing.engine.Dispatcher` protocol, so callers are
    agnostic to which one they drive.
    """
    return make_dispatcher(
        group,
        num_experts,
        kind=parallel.dispatch,
        expert_to_rank=expert_to_rank,
        seed=seed,
    )


def policy_for_config(
    model: MoEModelConfig,
    parallel: ParallelConfig,
    *,
    weight: np.ndarray | None = None,
    rng: np.random.Generator | None = None,
    **knobs,
) -> RouterPolicy:
    """The router policy a training configuration calls for.

    ``model.router`` names the policy, ``model`` supplies its dimensions and
    capacity factor, and ``parallel.router_seed`` seeds its exploration
    noise.  Pass ``weight`` to share an existing router projection, or
    ``rng`` to control the initialization; with neither, the weight is
    initialized from ``router_seed`` so the policy is immediately routable.
    """
    if weight is None and rng is None:
        rng = np.random.default_rng(parallel.router_seed)
    return make_policy(
        model.router,
        model.hidden_size,
        model.num_experts,
        model.top_k,
        capacity_factor=model.capacity_factor,
        weight=weight,
        rng=rng,
        seed=parallel.router_seed,
        **knobs,
    )


def run_routing_validation(
    router: str,
    *,
    num_ranks: int,
    num_experts: int,
    top_k: int,
    hidden_size: int,
    tokens_per_rank: int,
    steps: int = 2,
    capacity_factor: float = 1.25,
    dispatch: str = "flat",
    seed: int = 0,
    skew: float = 0.0,
    system: SystemSpec | None = None,
) -> RoutingTelemetry:
    """Drive one router policy through the full dispatch/combine pipeline.

    A thin consumer of the shared :class:`~repro.runtime.StepRuntime`: every
    step, each rank's fresh batch of (optionally Zipf-skewed) hidden states
    is routed by **one rank-batched call** (stacked projection + vectorized
    top-k, bit-identical to the old per-rank loop), the decisions compile to
    PFTs in one batched pass (policy drops filtered, then the standard
    capacity rule), the selected planner (``dispatch="flat"|"rbd"|"hier"``)
    builds the step's :class:`~repro.routing.plan.DispatchPlan`, tokens
    dispatch and combine over the simulated cluster, and the runtime records
    the step into the returned telemetry — payload bytes derived from the
    actual token dtype.  All randomness derives from ``(seed, step, rank)``,
    so a run is exactly reproducible.
    """
    world = CommWorld(num_ranks=num_ranks, system=system)
    group = world.world_group()
    policy = make_policy(
        router,
        hidden_size,
        num_experts,
        top_k,
        capacity_factor=capacity_factor,
        rng=np.random.default_rng(seed),
        seed=seed,
    )
    dispatcher = make_dispatcher(group, num_experts, kind=dispatch, seed=seed)
    telemetry = RoutingTelemetry(num_experts)
    runtime = StepRuntime(
        policy,
        dispatcher,
        capacity=compute_capacity(
            tokens_per_rank, top_k, num_experts, capacity_factor
        ),
        telemetry=telemetry,
    )

    with obs.span(
        "trainer.validate", "trainer", router=router, dispatch=dispatcher.planner.kind
    ):
        for step in range(steps):
            hidden = [
                skewed_router_tokens(
                    np.random.default_rng((seed, step, rank)),
                    tokens_per_rank,
                    policy.weight,
                    skew=skew,
                )
                for rank in range(num_ranks)
            ]
            runtime.run_step(hidden, step=step)
    telemetry.comm_stats = world.stats
    return telemetry


@dataclass
class ZeroValidationResult:
    """Outcome of one functional ZeRO training validation run."""

    stage: ZeroStage
    dp_size: int
    steps: int
    bucket_bytes: int
    #: per-step mean LM loss across the data-parallel replicas.
    losses: list[float]
    #: per-rank model-state bytes actually held (real array sizes).
    measured_state_bytes: dict
    #: the same quantities predicted from the analytic ZeRO divisors.
    predicted_state_bytes: dict
    #: rank-0 :class:`~repro.cluster.device.SimDevice` peak bytes.
    device_peak_bytes: int
    #: costed overlap timeline of the final step's bucket reductions.
    timeline: object
    #: the world's accumulated collective statistics.
    comm_stats: object

    @property
    def overlap_ratio(self) -> float:
        """Fraction of gradient-reduction comm hidden under backward."""
        return self.timeline.overlap_ratio


def run_zero_training_validation(
    *,
    zero_stage: ZeroStage | int = ZeroStage.GRADIENTS,
    dp_size: int = 4,
    steps: int = 3,
    bucket_bytes: int = 32 << 10,
    lr: float = 3e-3,
    seed: int = 0,
    system: SystemSpec | None = None,
) -> ZeroValidationResult:
    """Train a tiny MoE transformer under executable ZeRO sharding.

    ``dp_size`` identical replicas (same init seed) train on per-rank
    synthetic data streams through :class:`repro.dist.ZeroOptimizer`:
    backward hooks pack gradients into flat buckets, each bucket
    reduce-scatters (stage 2) or allreduces (stages 0/1) through the
    simulated group the moment it fills, rank-local
    :class:`~repro.tensor.optim.ShardedAdam` partitions apply the update,
    and parameter shards allgather back.  The returned result carries the
    loss trajectory (bit-identical across stages — asserted in tests), the
    measured-vs-predicted per-rank model-state bytes, and the costed
    overlap timeline of the final step, with backward time modeled from
    the GPU spec's achievable FLOP rate.
    """
    from repro.dist import ZeroOptimizer
    from repro.moe import MoETransformerLM, SyntheticLMDataset, TransformerConfig
    from repro.xmoe.pipeline import PaddingFreeMoELayer

    stage = ZeroStage(zero_stage)
    world = CommWorld(num_ranks=dp_size, system=system)
    group = world.world_group()
    config = TransformerConfig(
        vocab_size=64,
        hidden_size=16,
        ffn_hidden_size=8,
        num_experts=4,
        top_k=2,
        num_layers=2,
        seq_length=16,
        router_seed=seed,
    )
    replicas = [
        MoETransformerLM(
            config,
            lambda gate, experts, cap: PaddingFreeMoELayer(gate, experts, cap),
            seed=seed,
        )
        for _ in range(dp_size)
    ]
    replica_params = [m.parameters() for m in replicas]
    optimizer = ZeroOptimizer(
        replica_params,
        group,
        stage=stage,
        lr=lr,
        bucket_bytes=bucket_bytes,
    )
    datasets = [
        SyntheticLMDataset(config.vocab_size, config.seq_length, seed=seed + 1 + r)
        for r in range(dp_size)
    ]

    losses: list[float] = []
    with obs.span(
        "trainer.validate_zero", "trainer", stage=int(stage), dp_size=dp_size
    ):
        for _ in range(steps):
            sequences = [ds.sample_sequence() for ds in datasets]
            optimizer.zero_grad()
            step_loss = 0.0
            for r in range(dp_size):
                loss, lm_loss = replicas[r].loss(sequences[r])
                loss.backward()
                step_loss += lm_loss
            optimizer.step()
            losses.append(step_loss / dp_size)

    # Backward compute time on the modeled GPU: ~4 FLOPs per parameter per
    # token (2x the forward's multiply-accumulate), at the achievable rate.
    gpu = world.system.node.gpu
    num_params = sum(p.size for p in replica_params[0])
    flops = 4.0 * num_params * config.seq_length
    backward_seconds = flops / (gpu.peak_tflops * 1e12 * gpu.achievable_fraction)
    timeline = optimizer.reducer.timeline(backward_seconds)

    return ZeroValidationResult(
        stage=stage,
        dp_size=dp_size,
        steps=steps,
        bucket_bytes=bucket_bytes,
        losses=losses,
        measured_state_bytes=optimizer.measured_state_bytes(),
        predicted_state_bytes=optimizer.predicted_state_bytes(),
        device_peak_bytes=world.devices[group.ranks[0]].memory.peak_bytes,
        timeline=timeline,
        comm_stats=world.stats,
    )


def sweep_dispatch_validation(
    router: str, *, kinds: tuple[str, ...] = ("flat", "rbd", "hier"), **kwargs
) -> dict[str, RoutingTelemetry]:
    """Run :func:`run_routing_validation` once per dispatch strategy.

    Every strategy sees the identical workload (the policy, data, and plan
    randomness all derive from the same seed), so the returned telemetries
    are directly comparable — this is the sweep behind the hierarchical
    dispatch benchmark's per-tier byte table.
    """
    return {
        kind: run_routing_validation(router, dispatch=kind, **kwargs)
        for kind in kinds
    }
