"""End-to-end simulated training driver.

:class:`SimulatedTrainer` ties the memory model and performance model
together for one (model, parallel, system, training-system) combination and
produces a :class:`TrainRunResult` — either an OOM verdict or the achieved
throughput, mirroring how the paper reports Fig. 9 / Fig. 10 / Table 5.

:func:`sweep_best_config` reproduces the paper's methodology of sweeping EP
size, ZeRO stage, and (for TED/X-MoE) the TP degree, then reporting the best
configuration that fits in memory.

:func:`dispatcher_for_config` and :func:`policy_for_config` bridge the
analytic trainer and the functional substrate: the former returns the
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

import itertools
from dataclasses import dataclass

import numpy as np

from repro.comm.process_group import CommWorld, ProcessGroup
from repro.config.hardware import SystemSpec, frontier_system
from repro.obs import tracer as obs
from repro.config.model_config import MoEModelConfig
from repro.config.parallel_config import ParallelConfig, PlacementOrder, ZeroStage
from repro.moe.layer import compute_capacity
from repro.routing.engine import PlanDispatcher, make_dispatcher
from repro.routing.policies import RouterPolicy, make_policy, skewed_router_tokens
from repro.routing.telemetry import RoutingTelemetry
from repro.runtime import StepRuntime
from repro.xmoe.memory_model import MoEMemoryModel, SystemKind
from repro.xmoe.perf_model import MoEPerformanceModel


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


@dataclass
class TrainRunResult:
    """Outcome of one simulated training configuration."""

    system: SystemKind
    model_name: str
    parallel: ParallelConfig
    oom: bool
    peak_memory_gb: float
    iteration_seconds: float | None = None
    tflops_per_gpu: float | None = None
    aggregated_pflops: float | None = None

    @property
    def trainable(self) -> bool:
        """Whether the configuration fit in memory (no OOM verdict)."""
        return not self.oom

    def describe(self) -> str:
        """One status line: system, model, layout, memory, throughput."""
        status = "OOM" if self.oom else f"{self.tflops_per_gpu:.1f} TFLOPs/GPU"
        return (
            f"{self.system.value:>14s} | {self.model_name:>8s} | "
            f"{self.parallel.describe()} | mem={self.peak_memory_gb:.1f} GB | {status}"
        )


class SimulatedTrainer:
    """Evaluate a single training configuration on the simulated cluster."""

    def __init__(
        self,
        model: MoEModelConfig,
        parallel: ParallelConfig,
        system_spec: SystemSpec | None = None,
        kind: SystemKind = SystemKind.XMOE,
    ):
        if system_spec is None:
            needed_nodes = max(1, -(-parallel.world_size // 8))
            system_spec = frontier_system(num_nodes=needed_nodes)
        self.model = model
        self.parallel = parallel
        self.system_spec = system_spec
        self.kind = kind
        self.memory = MoEMemoryModel(model, parallel, system_spec.node.gpu)
        self.perf = MoEPerformanceModel(model, parallel, system_spec, kind)

    def run(self) -> TrainRunResult:
        """Check memory, then (if trainable) compute throughput."""
        with obs.span(
            "trainer.run",
            "trainer",
            system=self.kind.value,
            model=self.model.name,
        ) as run_span:
            report = self.memory.report(self.kind)
            if not report.fits:
                run_span.set(oom=True, peak_memory_gb=report.total_gb)
                return TrainRunResult(
                    system=self.kind,
                    model_name=self.model.name,
                    parallel=self.parallel,
                    oom=True,
                    peak_memory_gb=report.total_gb,
                )
            seconds = self.perf.iteration_time()
            tflops = self.perf.throughput_tflops_per_gpu()
            run_span.set(oom=False, tflops_per_gpu=tflops)
        return TrainRunResult(
            system=self.kind,
            model_name=self.model.name,
            parallel=self.parallel,
            oom=False,
            peak_memory_gb=report.total_gb,
            iteration_seconds=seconds,
            tflops_per_gpu=tflops,
            aggregated_pflops=tflops * self.parallel.world_size / 1e3,
        )

    def validate_routing(
        self,
        *,
        steps: int = 2,
        tokens_per_rank: int = 64,
        hidden_size: int | None = None,
        skew: float = 0.0,
        dispatch: str | None = None,
    ) -> RoutingTelemetry:
        """Functionally validate this configuration's routing regime.

        Runs ``model.router`` over the configuration's EP group for a few
        steps (dispatch + combine over the simulated cluster, flat / RBD /
        hierarchical per ``parallel.dispatch``) and returns the
        per-step :class:`~repro.routing.telemetry.RoutingTelemetry`.
        ``hidden_size`` defaults to the model's hidden size; pass a smaller
        value for a cheap smoke run, or ``dispatch`` to sweep a strategy
        other than the configured one.
        """
        return run_routing_validation(
            self.model.router,
            num_ranks=self.parallel.ep_size,
            num_experts=self.model.num_experts,
            top_k=self.model.top_k,
            hidden_size=hidden_size or self.model.hidden_size,
            tokens_per_rank=tokens_per_rank,
            steps=steps,
            capacity_factor=self.model.capacity_factor,
            dispatch=dispatch or self.parallel.dispatch,
            seed=self.parallel.router_seed,
            skew=skew,
        )

    def validate_zero(
        self,
        *,
        steps: int = 3,
        max_dp: int = 4,
        bucket_bytes: int = 32 << 10,
    ) -> ZeroValidationResult:
        """Functionally validate this configuration's ZeRO stage.

        Trains the tiny replica workload at ``parallel.zero_stage`` over a
        data-parallel group of ``min(parallel.dp_size, max_dp)`` simulated
        ranks (the cap keeps the functional run cheap while exercising the
        same sharding arithmetic the analytic models use at full scale).
        """
        dp = max(2, min(self.parallel.dp_size, max_dp))
        return run_zero_training_validation(
            zero_stage=self.parallel.zero_stage,
            dp_size=dp,
            steps=steps,
            bucket_bytes=bucket_bytes,
            seed=self.parallel.router_seed,
        )


def _candidate_parallel_configs(
    model: MoEModelConfig,
    world_size: int,
    kind: SystemKind,
    *,
    global_batch_size: int,
    micro_batch_size: int = 1,
) -> list[ParallelConfig]:
    """The EP / TP / ZeRO sweep the paper performs for each system (§5.2)."""
    ep_options = [e for e in (8, 16, 32, 64, 128, 256) if e <= min(world_size, model.num_experts)]
    if not ep_options:
        ep_options = [min(world_size, model.num_experts)]
    zero_options = [ZeroStage.OPTIMIZER, ZeroStage.GRADIENTS]
    if kind is SystemKind.DEEPSPEED_TED:
        tp_options = [1, 2, 4, 8]
    elif kind is SystemKind.XMOE:
        tp_options = [1, 2, 4]
    else:
        tp_options = [1]

    configs: list[ParallelConfig] = []
    for ep, tp, zero in itertools.product(ep_options, tp_options, zero_options):
        if world_size % tp or world_size % ep:
            continue
        if model.num_experts % ep:
            continue
        dp = world_size // tp
        if global_batch_size % dp:
            continue
        configs.append(
            ParallelConfig(
                world_size=world_size,
                ep_size=ep,
                tp_size=tp,
                zero_stage=zero,
                use_ssmb=(kind is SystemKind.XMOE and tp > 1),
                dispatch="rbd" if kind is SystemKind.XMOE else "flat",
                placement=(
                    PlacementOrder.DP_FIRST
                    if kind is SystemKind.XMOE
                    else PlacementOrder.EP_FIRST
                ),
                micro_batch_size=micro_batch_size,
                global_batch_size=global_batch_size,
            )
        )
    return configs


def sweep_best_config(
    model: MoEModelConfig,
    world_size: int,
    kind: SystemKind,
    system_spec: SystemSpec | None = None,
    *,
    global_batch_size: int = 1024,
    micro_batch_size: int = 1,
) -> TrainRunResult:
    """Best (highest-throughput) trainable configuration for one system.

    If no candidate fits in memory the returned result has ``oom=True`` and
    reports the smallest peak memory seen across the sweep.
    """
    candidates = _candidate_parallel_configs(
        model,
        world_size,
        kind,
        global_batch_size=global_batch_size,
        micro_batch_size=micro_batch_size,
    )
    best: TrainRunResult | None = None
    least_oom: TrainRunResult | None = None
    for parallel in candidates:
        result = SimulatedTrainer(model, parallel, system_spec, kind).run()
        if result.oom:
            if least_oom is None or result.peak_memory_gb < least_oom.peak_memory_gb:
                least_oom = result
            continue
        if best is None or result.tflops_per_gpu > best.tflops_per_gpu:
            best = result
    if best is not None:
        return best
    if least_oom is not None:
        return least_oom
    raise ValueError("no valid parallel configuration for the requested sweep")
