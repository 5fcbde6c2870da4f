"""Parallelism configuration: how the model is laid out across the cluster.

The paper combines

* **DP** — ZeRO-style data parallelism (stages 0–3 modelled),
* **EP** — expert parallelism: experts of an MoE layer spread over EP ranks,
* **TP** — tensor-slicing parallelism for the dense (non-MoE) blocks,
* **SSMB** — X-MoE's sequence-sharded MoE blocks: inside the MoE block the
  sequence is sharded across the TP replicas rather than duplicated,
* a **placement order** (EP-first vs DP-first, Appendix C.1) that decides
  whether different experts or replicas of the same expert are co-located
  within a node.

:class:`ParallelConfig` validates the factorization ``dp * tp == world`` and
``ep <= world`` and exposes the derived group sizes used everywhere else.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass


class ZeroStage(enum.IntEnum):
    """ZeRO optimizer-state partitioning stage."""

    NONE = 0
    OPTIMIZER = 1  # optimizer states partitioned across DP ranks
    GRADIENTS = 2  # + gradients partitioned
    PARAMS = 3  # + parameters partitioned


#: recognized values of the MoE dispatch axis.
DISPATCH_KINDS = ("flat", "rbd", "hier")


class PlacementOrder(enum.Enum):
    """Which parallel dimension is laid out contiguously within a node.

    ``EP_FIRST`` places consecutive experts on consecutive ranks (all experts
    of one replica co-located, DP replicas across nodes); ``DP_FIRST`` places
    replicas of the same expert on consecutive ranks (DP traffic stays
    intra-node, EP alltoall crosses nodes).  Appendix C.1 of the paper argues
    DP-first wins for large MoEs on hierarchical networks like Frontier.
    """

    EP_FIRST = "ep-first"
    DP_FIRST = "dp-first"


@dataclass(frozen=True)
class ParallelConfig:
    """A complete hybrid-parallel layout.

    Attributes
    ----------
    world_size:
        Total number of (simulated) GPUs.
    ep_size:
        Expert-parallel group size for MoE blocks.
    tp_size:
        Tensor-parallel group size for dense blocks.
    zero_stage:
        ZeRO stage applied to the data-parallel dimension.
    use_ssmb:
        Enable X-MoE's sequence-sharded MoE blocks.
    dispatch:
        The MoE dispatch strategy, one of :data:`DISPATCH_KINDS`:
        ``"flat"`` (single uneven all-to-all), ``"rbd"`` (two-stage
        redundancy-bypassing dispatch), or ``"hier"`` (two-hop hierarchical
        dispatch through per-node leaders).
    placement:
        EP-first or DP-first rank placement.
    micro_batch_size:
        Per-rank micro batch size (sequences).
    global_batch_size:
        Global batch size (sequences).
    activation_checkpointing:
        Recompute activations in the backward pass instead of storing them.
    router_seed:
        Seed for run-time routing randomness: the router policy's
        exploration noise and the RBD planner's pilot selection both derive
        per-step generators from it, so a configuration is reproducible
        end to end.
    """

    world_size: int
    ep_size: int = 1
    tp_size: int = 1
    zero_stage: ZeroStage = ZeroStage.OPTIMIZER
    use_ssmb: bool = False
    dispatch: str = "flat"
    placement: PlacementOrder = PlacementOrder.DP_FIRST
    micro_batch_size: int = 1
    global_batch_size: int = 1024
    activation_checkpointing: bool = False
    router_seed: int = 0

    def __post_init__(self) -> None:
        if self.world_size <= 0:
            raise ValueError("world_size must be positive")
        if self.tp_size <= 0 or self.world_size % self.tp_size:
            raise ValueError(
                f"tp_size={self.tp_size} must divide world_size={self.world_size}"
            )
        if self.ep_size <= 0 or self.world_size % self.ep_size:
            raise ValueError(
                f"ep_size={self.ep_size} must divide world_size={self.world_size}"
            )
        if self.micro_batch_size <= 0:
            raise ValueError("micro_batch_size must be positive")
        if self.global_batch_size <= 0:
            raise ValueError("global_batch_size must be positive")
        if self.global_batch_size % self.dp_size:
            raise ValueError(
                f"global_batch_size={self.global_batch_size} must be divisible by "
                f"dp_size={self.dp_size}"
            )
        if self.dispatch not in DISPATCH_KINDS:
            raise ValueError(
                f"dispatch={self.dispatch!r} must be one of {DISPATCH_KINDS}"
            )

    # ------------------------------------------------------------------
    @property
    def dp_size(self) -> int:
        """Data-parallel group size for the dense blocks (= world / TP)."""
        return self.world_size // self.tp_size

    @property
    def edp_size(self) -> int:
        """Expert-data-parallel size: replicas of each expert (= world / EP)."""
        return self.world_size // self.ep_size

    @property
    def moe_sequence_shard_degree(self) -> int:
        """How many ways the MoE-block sequence is sharded under SSMB."""
        return self.tp_size if self.use_ssmb else 1

    @property
    def gradient_accumulation_steps(self) -> int:
        """Micro-batches accumulated per optimizer step."""
        per_step = self.dp_size * self.micro_batch_size
        return max(1, -(-self.global_batch_size // per_step))

    def experts_per_rank(self, num_experts: int) -> int:
        """Number of experts hosted by each EP rank."""
        if num_experts % self.ep_size:
            raise ValueError(
                f"num_experts={num_experts} not divisible by ep_size={self.ep_size}"
            )
        return num_experts // self.ep_size

    def with_overrides(self, **overrides) -> "ParallelConfig":
        """Return a copy with the given fields replaced."""
        import dataclasses

        return dataclasses.replace(self, **overrides)

    def describe(self) -> str:
        """One-line human-readable description."""
        return (
            f"world={self.world_size} dp={self.dp_size} ep={self.ep_size} "
            f"tp={self.tp_size} zero={int(self.zero_stage)} "
            f"ssmb={'on' if self.use_ssmb else 'off'} "
            f"dispatch={self.dispatch} "
            f"placement={self.placement.value}"
        )
