"""Plan execution: one thin engine walks the hops of any plan.

:class:`PlanDispatcher` implements the :class:`Dispatcher` protocol —
``plan → dispatch → run_experts → combine`` — by *interpreting* a
:class:`~repro.routing.plan.DispatchPlan`: dispatch walks the plan's hops
forward, combine walks them in reverse, and neither asks which planner
built the plan.  Every data movement is a buffer slice plus a planned
uneven all-to-all
(:meth:`~repro.comm.process_group.ProcessGroup.alltoallv_planned`) over the
whole group or over each intra-node subgroup, as the hop says, so the
per-op byte and tier accounting is computed from the plan's splits rather
than re-derived from the payloads, every hop's bytes land on the right
:class:`~repro.cluster.topology.LinkTier` in ``CommStats.bytes_by_tier``,
and the hot path contains no per-row Python loops.

Bit-identical combine
---------------------
Each reversed hop folds the rows it returns onto the hop's input slots
with the hop's ``(slot, perm)`` fold, and each source finally folds its
per-(token, node) partial sums per token.  Every planner writes its folds
in the flat oracle's association order, so the RBD and hierarchical paths
return outputs exactly equal to the flat oracle — not merely close.
"""

from __future__ import annotations

from typing import Protocol, runtime_checkable

import numpy as np

from repro.comm.process_group import ProcessGroup
from repro.config.parallel_config import DISPATCH_KINDS
from repro.routing.plan import DispatchPlan, Hop
from repro.routing.planner import (
    PLAN_SPECS,
    FlatPlanner,
    HierarchicalPlanner,
    RBDPlanner,
    _PlannerBase,
)


#: dispatch-side op names per plan kind (what the tier-byte benchmarks read).
DISPATCH_OPS = {kind: tuple(leg.op for leg in spec.hops) for kind, spec in PLAN_SPECS.items()}


@runtime_checkable
class Dispatcher(Protocol):
    """The dispatch abstraction shared by the flat, RBD, and hier paths."""

    def plan(self, per_rank_pfts: list, *, step: int | None = None) -> DispatchPlan:
        """Compile per-rank PFTs into a :class:`DispatchPlan`."""
        ...

    def dispatch(
        self,
        per_rank_tokens: list[np.ndarray],
        per_rank_pfts: list,
        *,
        plan: DispatchPlan | None = None,
        step: int | None = None,
    ) -> tuple[list[np.ndarray], DispatchPlan]:
        """Move token rows to their expert-hosting ranks; return (inputs, plan)."""
        ...

    def run_experts(
        self,
        expert_inputs: list[np.ndarray],
        plan: DispatchPlan,
        per_rank_w1: list[np.ndarray],
        per_rank_w2: list[np.ndarray],
        *,
        activation: str = "silu",
    ) -> list[np.ndarray]:
        """Apply each rank's local experts to its grouped input buffer."""
        ...

    def combine(
        self,
        per_rank_expert_outputs: list[np.ndarray],
        plan: DispatchPlan,
        num_tokens_per_rank: list[int],
        *,
        program=None,
        workspace=None,
    ) -> list[np.ndarray]:
        """Return weighted expert outputs to their source token positions.

        With the plan's compiled ``program`` the combine is its fused fold
        (``workspace`` supplying the scratch arenas) instead of the plan's
        hop-by-hop interpretation.
        """
        ...


class PlanDispatcher:
    """Executes :class:`DispatchPlan` objects built by a planner."""

    def __init__(self, group: ProcessGroup, planner: _PlannerBase):
        self.group = group
        self.planner = planner
        self._node_groups: list[ProcessGroup] | None = None

    # -- conveniences ---------------------------------------------------
    @property
    def num_experts(self) -> int:
        """Total experts across the group (from the planner)."""
        return self.planner.num_experts

    @property
    def expert_to_rank(self) -> np.ndarray:
        """Group-local hosting rank per expert id."""
        return self.planner.expert_to_rank

    @property
    def rank_to_node(self) -> np.ndarray:
        """Node id per group-local rank."""
        return self.planner.rank_to_node

    def experts_on_rank(self, local_rank: int) -> np.ndarray:
        """Global ids of the experts hosted by a group-local rank."""
        return self.planner.experts_on_rank(local_rank)

    def node_groups(self) -> list[ProcessGroup]:
        """Intra-node subgroups, aligned with the plan's ``node_members``."""
        if self._node_groups is None:
            self._node_groups = self.group.node_local_subgroups()
        return self._node_groups

    # ------------------------------------------------------------------
    def plan(self, per_rank_pfts: list, *, step: int | None = None) -> DispatchPlan:
        """Build the routing plan for one step (no data is moved)."""
        return self.planner.build(per_rank_pfts, step=step)

    # ------------------------------------------------------------------
    def dispatch(
        self,
        per_rank_tokens: list[np.ndarray],
        per_rank_pfts: list,
        *,
        plan: DispatchPlan | None = None,
        step: int | None = None,
    ) -> tuple[list[np.ndarray], DispatchPlan]:
        """Route tokens to their expert-hosting ranks, walking the plan's hops."""
        size = self.group.size
        if len(per_rank_tokens) != size or len(per_rank_pfts) != size:
            raise ValueError("need one token buffer and one PFT per group rank")
        if plan is None:
            plan = self.plan(per_rank_pfts, step=step)
        hidden = per_rank_tokens[0].shape[1]
        bufs: list[np.ndarray] = []
        for k, hop in enumerate(plan.hops):
            if k == 0:
                # The first hop gathers PFT rows, read through the plan's
                # own PFTs: a plan paired with different (even same-shaped)
                # PFTs must not silently re-route tokens.
                send = [
                    tokens[pft.token_ids[g]]
                    for tokens, pft, g in zip(per_rank_tokens, plan.pfts, hop.gather)
                ]
            else:
                send = [buf[g] for buf, g in zip(bufs, hop.gather)]
            recv = self._exchange(plan, hop, send)
            if hop.append:
                recv = [
                    np.concatenate([buf, rows], axis=0) if rows.shape[0] else buf
                    for buf, rows in zip(bufs, recv)
                ]
            bufs = recv
        # Canonical (expert, src, row) grouping; every destination's buffer
        # must match its arrival table.
        expert_inputs = [buf[order] for buf, order in zip(bufs, plan.sort_order)]
        for d in range(size):
            if expert_inputs[d].shape != (plan.arrival_src[d].size, hidden):
                raise ValueError(
                    f"rank {d}: arrival buffer {expert_inputs[d].shape} does not "
                    f"match plan ({plan.arrival_src[d].size}, {hidden})"
                )
        return expert_inputs, plan

    def _exchange(
        self, plan: DispatchPlan, hop: Hop, send: list[np.ndarray], *, reverse=False
    ) -> list[np.ndarray]:
        """One hop's all-to-all (reversed for combine), results in rank order."""
        if reverse:
            op, send_splits, recv_splits = hop.combine_op, hop.recv_splits, hop.send_splits
        else:
            op, send_splits, recv_splits = hop.op, hop.send_splits, hop.recv_splits
        groups = self.node_groups() if hop.per_node else [self.group]
        out: list[np.ndarray] = [None] * self.group.size  # type: ignore[list-item]
        for members, group in zip(plan.hop_members(hop), groups):
            recvd, _ = group.alltoallv_planned(
                [send[m] for m in members],
                [send_splits[m] for m in members],
                [recv_splits[m] for m in members],
                op_name=op,
            )
            for j, m in enumerate(members):
                out[m] = recvd[j]
        return out

    # ------------------------------------------------------------------
    def run_experts(
        self,
        expert_inputs: list[np.ndarray],
        plan: DispatchPlan,
        per_rank_w1: list[np.ndarray],
        per_rank_w2: list[np.ndarray],
        *,
        activation: str = "silu",
    ) -> list[np.ndarray]:
        """Run each rank's local experts over its grouped input buffer."""
        from repro.xmoe.kernels import sequential_gemm

        return [
            sequential_gemm(
                expert_inputs[r],
                per_rank_w1[r],
                per_rank_w2[r],
                plan.tokens_per_local_expert[r],
                activation=activation,
            )
            for r in range(self.group.size)
        ]

    # ------------------------------------------------------------------
    def combine(
        self,
        per_rank_expert_outputs: list[np.ndarray],
        plan: DispatchPlan,
        num_tokens_per_rank: list[int],
        *,
        program=None,
        workspace=None,
    ) -> list[np.ndarray]:
        """Weighted combine, walking the plan's hops in reverse.

        Given the plan's compiled ``program`` (an
        :class:`~repro.routing.plan_cache.ExecProgram`), the combine is the
        program's fused fold — no collective executes — with ``workspace``
        supplying its scratch arenas; otherwise the plan is interpreted hop
        by hop.
        """
        if program is not None:
            return program.run_combine(per_rank_expert_outputs, workspace=workspace)
        size = self.group.size
        hidden = per_rank_expert_outputs[0].shape[1]
        dtype = per_rank_expert_outputs[0].dtype

        # Undo the by-expert sort and apply the combine weights (the paper
        # scales before merging so replicas can sum onto their pilot); the
        # weighted rows stay in the payload dtype, as the fused fold's do.
        bufs: list[np.ndarray] = []
        for d in range(size):
            un = np.empty_like(per_rank_expert_outputs[d])
            un[plan.sort_order[d]] = per_rank_expert_outputs[d]
            bufs.append((un * plan.arrival_weight[d][:, None]).astype(dtype, copy=False))

        for hop in reversed(plan.hops):
            # An append hop's buffer ends with the rows it received; only
            # those travel back, and the rows before them join the fold.
            cut = [
                buf.shape[0] - int(rows.sum()) if hop.append else 0
                for buf, rows in zip(bufs, hop.recv_splits)
            ]
            returned = self._exchange(
                plan, hop, [buf[c:] for buf, c in zip(bufs, cut)], reverse=True
            )
            bufs = [
                _fold(
                    np.concatenate([buf[:c], rows], axis=0) if c else rows,
                    hop.fold_slot[r],
                    None if hop.fold_perm is None else hop.fold_perm[r],
                    dtype,
                )
                for r, (buf, c, rows) in enumerate(zip(bufs, cut, returned))
            ]

        # ---- source-side fold: (token, node) partials per token -------
        outputs: list[np.ndarray] = []
        for r in range(size):
            out = np.zeros((num_tokens_per_rank[r], hidden), dtype=dtype)
            np.add.at(out, plan.partial_token[r], bufs[r])
            outputs.append(out)
        return outputs


def _fold(rows: np.ndarray, slot: np.ndarray, perm, dtype) -> np.ndarray:
    """Sum ``rows[perm[i]]`` onto slot ``slot[i]``, in ``i`` order.

    Every slot receives at least one row; ``perm=None`` means exactly one
    each, in ``rows`` order — a pure reorder.
    """
    if perm is None:
        out = np.empty((slot.size, rows.shape[1]), dtype=dtype)
        out[slot] = rows
        return out
    out = np.zeros((int(slot.max(initial=-1)) + 1, rows.shape[1]), dtype=dtype)
    np.add.at(out, slot, rows[perm])
    return out


def make_dispatcher(
    group: ProcessGroup,
    num_experts: int,
    *,
    kind: str = "flat",
    expert_to_rank: np.ndarray | None = None,
    seed: int = 0,
) -> PlanDispatcher:
    """Build a plan-based dispatcher for one dispatch strategy.

    ``kind`` picks the planner: ``"flat"`` (single uneven all-to-all, the
    correctness oracle), ``"rbd"`` (two-stage redundancy-bypassing, pilots
    drawn from ``(seed, step)``), or ``"hier"`` (two-hop hierarchical
    dispatch through node leaders).
    """
    if kind == "rbd":
        planner: _PlannerBase = RBDPlanner(
            group, num_experts, expert_to_rank, seed=seed
        )
    elif kind == "hier":
        planner = HierarchicalPlanner(group, num_experts, expert_to_rank)
    elif kind == "flat":
        planner = FlatPlanner(group, num_experts, expert_to_rank)
    else:
        raise ValueError(f"unknown dispatch kind {kind!r}; expected {DISPATCH_KINDS}")
    return PlanDispatcher(group, planner)
