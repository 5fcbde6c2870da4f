"""Record one short instrumented routing run (the ``repro obs`` backend).

:func:`record_routing_run` wires the full observability stack around a
small but real workload: a :class:`~repro.runtime.StepRuntime` (with a
:class:`~repro.routing.plan_cache.PlanCache`, so warm steps exercise the
hit/patch tiers) driving router policy × dispatch kind over the simulated
cluster, with a :class:`~repro.obs.tracer.Tracer` attached, a
:class:`~repro.obs.metrics.MetricsRegistry` receiving the telemetry and
comm publishes, and the step batches replayed with tiny score drift so the
trace shows cold *and* warm resolution tiers.  Returns everything a caller
needs to export: the tracer, the registry, and the run's telemetry.

Heavy imports happen inside the function so this module can live in
``repro.obs.__init__`` without creating an import cycle with the
runtime/comm modules it drives (they import ``repro.obs.tracer`` at module
scope).
"""

from __future__ import annotations

from repro.obs.metrics import MetricsRegistry
from repro.obs.tracer import Tracer, use_tracer

__all__ = ["record_routing_run"]


def record_routing_run(
    *,
    router: str = "softmax-topk",
    dispatch: str = "flat",
    num_ranks: int = 8,
    experts_per_rank: int = 1,
    top_k: int = 2,
    tokens_per_rank: int = 64,
    hidden_size: int = 32,
    steps: int = 4,
    skew: float = 1.0,
    capacity_factor: float | None = None,
    seed: int = 0,
):
    """Run ``steps`` instrumented steps; return (tracer, registry, telemetry).

    The first step is a cold plan-cache miss; later steps replay the same
    batches with ~1e-9 score drift, so the recorded trace contains every
    resolution tier the steady state produces (miss + fused compile →
    hit / weight-patch), every step running the fused program with one
    comm span per derived collective carrying its per-tier byte
    attributes.  ``capacity_factor=None`` runs the paper's
    padding-free uncapped pipeline; pass a factor to exercise capacity
    drops.  All randomness derives from ``seed``, so a recording is
    exactly reproducible.
    """
    import numpy as np

    from repro.comm import CommWorld
    from repro.routing import PlanCache, make_dispatcher, make_policy
    from repro.routing.policies import skewed_router_tokens
    from repro.routing.telemetry import RoutingTelemetry
    from repro.runtime import StepRuntime

    num_experts = num_ranks * experts_per_rank
    registry = MetricsRegistry()
    tracer = Tracer()

    world = CommWorld(num_ranks=num_ranks)
    world.stats.metrics = registry
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
    telemetry = RoutingTelemetry(num_experts, metrics=registry)
    capacity = (
        None
        if capacity_factor is None
        else StepRuntime.capacity_for(tokens_per_rank, top_k, num_experts, capacity_factor)
    )
    runtime = StepRuntime(
        policy,
        dispatcher,
        capacity=capacity,
        telemetry=telemetry,
        plan_cache=PlanCache(),
    )

    base = [
        skewed_router_tokens(
            np.random.default_rng((seed, 0, rank)),
            tokens_per_rank,
            policy.weight,
            skew=skew,
        )
        for rank in range(num_ranks)
    ]
    drift_rng = np.random.default_rng((seed, 1))
    with use_tracer(tracer):
        for i in range(steps):
            # RBD pilot selection is (seed, step)-salted, so warm tiers only
            # appear within one step salt; pin the step for rbd.
            step_arg = None if dispatch == "rbd" else i
            arrs = [a.copy() for a in base]
            if i > 0:
                rows = max(1, tokens_per_rank // 32)
                for a in arrs:
                    sel = drift_rng.choice(tokens_per_rank, size=rows, replace=False)
                    a[sel] += 1e-9 * drift_rng.normal(size=(rows, hidden_size))
            runtime.run_step(arrs, step=step_arg)
    telemetry.comm_stats = world.stats
    return tracer, registry, telemetry
