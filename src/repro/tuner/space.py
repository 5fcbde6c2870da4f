"""Candidate enumeration: the parallel-plan search space.

A :class:`SearchSpace` turns a ``(SystemSpec, MoEModelConfig, token
budget)`` triple into the stream of :class:`TuningCandidate` objects the
evaluator scores.  Each candidate is one complete training plan — a
:class:`~repro.config.parallel_config.ParallelConfig` (EP/TP/ZeRO degrees,
SSMB, the dispatch strategy, placement order, micro-batch) plus the two
knobs that live on the model side (router policy and capacity factor).

Enumeration applies the *structural* constraints up front — divisibility of
world size by TP/EP, expert count by EP, global batch by DP, TP confined to
a node — plus any caller-supplied predicates.  Device-memory feasibility is
deliberately **not** checked here: that is the evaluator's pruning step,
driven by :class:`~repro.xmoe.memory_model.MoEMemoryModel`, so infeasible
candidates still show up (as prunes) in the tuning report's accounting.
"""

from __future__ import annotations

from collections.abc import Callable, Iterator
from dataclasses import dataclass, field

from repro.config.hardware import SystemSpec
from repro.config.model_config import MoEModelConfig
from repro.config.parallel_config import (
    DISPATCH_KINDS,
    ParallelConfig,
    PlacementOrder,
    ZeroStage,
)
from repro.routing.policies import ROUTER_POLICY_NAMES
from repro.xmoe.memory_model import SystemKind


@dataclass(frozen=True)
class TuningCandidate:
    """One complete training plan the tuner can score.

    ``parallel`` carries every layout decision (including the dispatch
    strategy, so :func:`~repro.xmoe.trainer.dispatcher_for_config` consumes
    it directly); ``router`` and ``capacity_factor`` override the model
    config via :meth:`model_for`, which is what
    :func:`~repro.xmoe.trainer.policy_for_config` consumes.
    """

    parallel: ParallelConfig
    router: str
    capacity_factor: float

    def model_for(self, base: MoEModelConfig) -> MoEModelConfig:
        """The model config this candidate trains: base + router/capacity."""
        return base.scaled(router=self.router, capacity_factor=self.capacity_factor)

    def describe(self) -> str:
        """One-line human-readable plan description."""
        return (
            f"{self.parallel.describe()} router={self.router} "
            f"cap={self.capacity_factor:g}"
        )


def _pow2_divisors(limit: int, bound: int) -> list[int]:
    """Powers of two up to ``bound`` that divide ``limit``."""
    out, d = [], 1
    while d <= bound:
        if limit % d == 0:
            out.append(d)
        d *= 2
    return out


@dataclass
class SearchSpace:
    """The cross-product of plan axes, filtered by structural constraints.

    Parameters
    ----------
    system:
        Cluster description (node shape decides which TP degrees stay
        intra-node and how many GPUs exist).
    model:
        Base model architecture; ``router`` / ``capacity_factor`` axes
        override its corresponding fields per candidate.
    tokens_per_step:
        The token budget per optimizer step.  Must be a multiple of the
        model's sequence length; the implied global batch size is
        ``tokens_per_step // seq_length`` sequences.
    world_size:
        GPUs to plan for (defaults to every GPU in ``system``).
    predicates:
        Extra constraint callables ``TuningCandidate -> bool``; a candidate
        failing any predicate is never emitted.

    The axis defaults cover EP (powers of two dividing both world size and
    expert count), TP (powers of two within a node), ZeRO {1, 2}, SSMB
    on/off for TP > 1, all three dispatch strategies, both placement
    orders, every registered router policy, and capacity factors
    {1.0, 1.25, 1.5}.
    """

    system: SystemSpec
    model: MoEModelConfig
    tokens_per_step: int
    world_size: int | None = None
    ep_options: list[int] | None = None
    tp_options: list[int] | None = None
    zero_options: list[ZeroStage] = field(
        default_factory=lambda: [ZeroStage.OPTIMIZER, ZeroStage.GRADIENTS]
    )
    dispatch_options: tuple[str, ...] = DISPATCH_KINDS
    placement_options: tuple[PlacementOrder, ...] = (
        PlacementOrder.DP_FIRST,
        PlacementOrder.EP_FIRST,
    )
    router_options: tuple[str, ...] = ROUTER_POLICY_NAMES
    capacity_factors: tuple[float, ...] = (1.0, 1.25, 1.5)
    micro_batch_options: tuple[int, ...] = (1,)
    predicates: list[Callable[[TuningCandidate], bool]] = field(default_factory=list)

    def __post_init__(self) -> None:
        if self.world_size is None:
            self.world_size = self.system.total_gpus
        if not (1 <= self.world_size <= self.system.total_gpus):
            raise ValueError(
                f"world_size={self.world_size} out of range for "
                f"{self.system.name} ({self.system.total_gpus} GPUs)"
            )
        if self.tokens_per_step <= 0 or self.tokens_per_step % self.model.seq_length:
            raise ValueError(
                f"tokens_per_step={self.tokens_per_step} must be a positive "
                f"multiple of seq_length={self.model.seq_length}"
            )
        if self.ep_options is None:
            bound = min(self.world_size, self.model.num_experts)
            self.ep_options = [
                e
                for e in _pow2_divisors(self.world_size, bound)
                if self.model.num_experts % e == 0
            ]
        if self.tp_options is None:
            self.tp_options = _pow2_divisors(
                self.world_size, self.system.node.gpus_per_node
            )
        for router in self.router_options:
            if router not in ROUTER_POLICY_NAMES:
                raise ValueError(
                    f"unknown router policy {router!r}; "
                    f"available: {sorted(ROUTER_POLICY_NAMES)}"
                )

    @classmethod
    def paper_sweep(
        cls,
        model: MoEModelConfig,
        system: SystemSpec,
        kind: SystemKind,
        *,
        world_size: int,
        global_batch_size: int = 1024,
        micro_batch_size: int = 1,
    ) -> "SearchSpace":
        """The EP / TP / ZeRO sweep the paper runs for one system (§5.2).

        EP takes the powers of two from 8 to 256 that fit the world and the
        expert count; TP is {1, 2, 4, 8} for DeepSpeed-TED, {1, 2, 4} for
        X-MoE and 1 otherwise.  X-MoE dispatches RBD with DP-first placement
        and turns SSMB on whenever TP > 1; the baselines dispatch flat with
        EP-first placement.  Router and capacity factor are the model's own.
        """
        xmoe = kind is SystemKind.XMOE
        bound = min(world_size, model.num_experts)
        ep_options = [e for e in (8, 16, 32, 64, 128, 256) if e <= bound] or [bound]
        tp_options = {
            SystemKind.DEEPSPEED_TED: [1, 2, 4, 8],
            SystemKind.XMOE: [1, 2, 4],
        }.get(kind, [1])
        return cls(
            system=system,
            model=model,
            tokens_per_step=global_batch_size * model.seq_length,
            world_size=world_size,
            ep_options=ep_options,
            tp_options=tp_options,
            dispatch_options=("rbd",) if xmoe else ("flat",),
            placement_options=(
                (PlacementOrder.DP_FIRST,) if xmoe else (PlacementOrder.EP_FIRST,)
            ),
            router_options=(model.router,),
            capacity_factors=(model.capacity_factor,),
            micro_batch_options=(micro_batch_size,),
            predicates=[
                lambda c: c.parallel.use_ssmb == (xmoe and c.parallel.tp_size > 1)
            ],
        )

    # ------------------------------------------------------------------
    @property
    def global_batch_size(self) -> int:
        """Sequences per optimizer step implied by the token budget."""
        return self.tokens_per_step // self.model.seq_length

    def _structurally_valid(self, ep: int, tp: int, micro_batch: int) -> bool:
        """The divisibility constraints a layout must satisfy."""
        world = self.world_size
        if world % tp or world % ep:
            return False
        if self.model.num_experts % ep:
            return False
        dp = world // tp
        if self.global_batch_size % dp:
            return False
        if micro_batch * dp > self.global_batch_size:
            return False
        return True

    def candidates(self) -> Iterator[TuningCandidate]:
        """Yield every structurally valid candidate in the space."""
        for ep in self.ep_options:
            for tp in self.tp_options:
                for micro_batch in self.micro_batch_options:
                    if not self._structurally_valid(ep, tp, micro_batch):
                        continue
                    ssmb_options = (False, True) if tp > 1 else (False,)
                    for ssmb in ssmb_options:
                        yield from self._layout_candidates(ep, tp, micro_batch, ssmb)

    def _layout_candidates(
        self, ep: int, tp: int, micro_batch: int, ssmb: bool
    ) -> Iterator[TuningCandidate]:
        """Expand the per-layout axes (ZeRO, dispatch, placement, …)."""
        for zero in self.zero_options:
            for dispatch in self.dispatch_options:
                for placement in self.placement_options:
                    parallel = ParallelConfig(
                        world_size=self.world_size,
                        ep_size=ep,
                        tp_size=tp,
                        zero_stage=zero,
                        use_ssmb=ssmb,
                        dispatch=dispatch,
                        placement=placement,
                        micro_batch_size=micro_batch,
                        global_batch_size=self.global_batch_size,
                    )
                    for router in self.router_options:
                        for cap in self.capacity_factors:
                            candidate = TuningCandidate(
                                parallel=parallel,
                                router=router,
                                capacity_factor=cap,
                            )
                            if all(p(candidate) for p in self.predicates):
                                yield candidate

    def size(self) -> int:
        """Number of candidates the space enumerates (post-constraints)."""
        return sum(1 for _ in self.candidates())
