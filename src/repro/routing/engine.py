"""Plan execution: one thin engine for flat, RBD, and hierarchical dispatch.

:class:`PlanDispatcher` implements the :class:`Dispatcher` protocol —
``plan → dispatch → run_experts → combine`` — by *interpreting* a
:class:`~repro.routing.plan.DispatchPlan`.  Every data movement is a buffer
slice plus a planned uneven all-to-all
(:meth:`~repro.comm.process_group.ProcessGroup.alltoallv_planned`), so the
per-op byte and tier accounting is computed from the plan's splits rather
than re-derived from the payloads, and the hot path contains no per-row
Python loops.  Hierarchical plans route through intra-node subgroups for
their gather/scatter hops and through the full group for the
leader-to-leader exchange, so every hop's bytes land on the right
:class:`~repro.cluster.topology.LinkTier` in ``CommStats.bytes_by_tier``.

Bit-identical combine
---------------------
The combine stage folds weighted expert outputs into per-(token, node)
partial sums and then folds the partials in (token, node) order.  Every
plan kind drives the *same* fold orders (``merge_perm`` / ``combine_perm``
/ ``hM_fold_perm`` encode the (slot, expert) ordering), so the RBD and
hierarchical paths return outputs exactly equal to the flat oracle — not
merely close.
"""

from __future__ import annotations

from typing import Protocol, runtime_checkable

import numpy as np

from repro.comm.process_group import ProcessGroup
from repro.config.parallel_config import DISPATCH_KINDS
from repro.routing.plan import (
    _OP_NAMES,
    HIER_COMBINE_OPS,
    HIER_DISPATCH_OPS,
    DispatchPlan,
)
from repro.routing.planner import (
    FlatPlanner,
    HierarchicalPlanner,
    RBDPlanner,
    _PlannerBase,
)


#: dispatch-side op names per plan kind (what the tier-byte benchmarks read).
DISPATCH_OPS = {
    "flat": ("dispatch_a2a",),
    "rbd": ("rbd_s1_a2a", "rbd_s2_a2a"),
    "hier": HIER_DISPATCH_OPS,
}


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
        """Route tokens to their expert-hosting ranks as the plan dictates."""
        size = self.group.size
        if len(per_rank_tokens) != size or len(per_rank_pfts) != size:
            raise ValueError("need one token buffer and one PFT per group rank")
        if plan is None:
            plan = self.plan(per_rank_pfts, step=step)
        hidden = per_rank_tokens[0].shape[1]
        if plan.kind == "hier":
            arrival = self._dispatch_hier(per_rank_tokens, plan)
            return self._finish_dispatch(arrival, plan, hidden), plan
        s1_op, s2_op, _, _ = _OP_NAMES[plan.kind]

        # ---- stage 1: pilots travel to their expert's rank ------------
        # Gather through the plan's own PFTs: a plan paired with different
        # (even same-shaped) PFTs must not silently re-route tokens.
        s1_send = [
            per_rank_tokens[r][plan.pfts[r].token_ids[plan.send_rows[r]]]
            for r in range(size)
        ]
        s1_recv, _ = self.group.alltoallv_planned(
            s1_send, plan.send_splits, plan.recv_splits, op_name=s1_op
        )

        # ---- stage 2: replicas reconstructed and exchanged intra-node --
        if s2_op is None:
            arrival = s1_recv
        else:
            replica_recv: list[np.ndarray] = [None] * size  # type: ignore[list-item]
            for members, ng in zip(plan.node_members, self.node_groups()):
                send_bufs = [s1_recv[m][plan.s2_source_slot[m]] for m in members]
                recvd, _ = ng.alltoallv_planned(
                    send_bufs,
                    [plan.s2_send_splits[m] for m in members],
                    [plan.s2_recv_splits[m] for m in members],
                    op_name=s2_op,
                )
                for j, m in enumerate(members):
                    replica_recv[m] = recvd[j]
            arrival = [
                np.concatenate([s1_recv[d], replica_recv[d]], axis=0)
                if replica_recv[d] is not None and replica_recv[d].shape[0]
                else s1_recv[d]
                for d in range(size)
            ]

        return self._finish_dispatch(arrival, plan, hidden), plan

    def _finish_dispatch(
        self, arrival: list[np.ndarray], plan: DispatchPlan, hidden: int
    ) -> list[np.ndarray]:
        """Canonically sort the arrival buffers and guard their shapes."""
        expert_inputs = [arrival[d][plan.sort_order[d]] for d in range(self.group.size)]
        # Guard: every destination's buffer must match its arrival table.
        for d in range(self.group.size):
            if expert_inputs[d].shape != (plan.arrival_src[d].size, hidden):
                raise ValueError(
                    f"rank {d}: arrival buffer {expert_inputs[d].shape} does not "
                    f"match plan ({plan.arrival_src[d].size}, {hidden})"
                )
        return expert_inputs

    # ------------------------------------------------------------------
    def _node_alltoallv(
        self,
        send: list[np.ndarray],
        send_splits: list[np.ndarray],
        recv_splits: list[np.ndarray],
        plan: DispatchPlan,
        op_name: str,
    ) -> list[np.ndarray]:
        """One intra-node alltoallv per node subgroup, results in rank order."""
        out: list[np.ndarray] = [None] * self.group.size  # type: ignore[list-item]
        for members, ng in zip(plan.node_members, self.node_groups()):
            recvd, _ = ng.alltoallv_planned(
                [send[m] for m in members],
                [send_splits[m] for m in members],
                [recv_splits[m] for m in members],
                op_name=op_name,
            )
            for j, m in enumerate(members):
                out[m] = recvd[j]
        return out

    def _dispatch_hier(
        self, per_rank_tokens: list[np.ndarray], plan: DispatchPlan
    ) -> list[np.ndarray]:
        """Run the two-hop dispatch: gather → leader exchange → scatter."""
        size = self.group.size
        gather_op, inter_op, scatter_op = HIER_DISPATCH_OPS

        # ---- hop A: members gather deduplicated rows onto the leader --
        hA_send = [
            per_rank_tokens[r][plan.pfts[r].token_ids[plan.send_rows[r]]]
            for r in range(size)
        ]
        leader_buf = self._node_alltoallv(
            hA_send, plan.hA_send_splits, plan.hA_recv_splits, plan, gather_op
        )

        # ---- hop B: one leader-to-leader inter-node exchange ----------
        hB_send = [leader_buf[r][plan.hB_perm[r]] for r in range(size)]
        hB_recv, _ = self.group.alltoallv_planned(
            hB_send, plan.send_splits, plan.recv_splits, op_name=inter_op
        )

        # ---- hop C: dest leader scatters one row per assignment -------
        hC_send = [hB_recv[r][plan.hC_gather[r]] for r in range(size)]
        return self._node_alltoallv(
            hC_send, plan.hC_send_splits, plan.hC_recv_splits, plan, scatter_op
        )

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
        """Weighted combine, reversing the dispatch stages of the plan.

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
        # scales before merging so replicas can sum onto their pilot).
        weighted: list[np.ndarray] = []
        for d in range(size):
            un = np.empty_like(per_rank_expert_outputs[d])
            un[plan.sort_order[d]] = per_rank_expert_outputs[d]
            weighted.append(un * plan.arrival_weight[d][:, None])

        if plan.kind == "hier":
            return self._combine_hier(weighted, plan, num_tokens_per_rank, hidden, dtype)
        _, _, c1_op, c2_op = _OP_NAMES[plan.kind]

        # ---- stage C1: replica outputs merge onto their pilot ----------
        if c1_op is None:
            partials_dest = weighted
        else:
            c1_recv: list[np.ndarray] = [None] * size  # type: ignore[list-item]
            for members, ng in zip(plan.node_members, self.node_groups()):
                send_bufs = [weighted[m][plan.num_pilot_arrivals[m] :] for m in members]
                recvd, _ = ng.alltoallv_planned(
                    send_bufs,
                    [plan.s2_recv_splits[m] for m in members],
                    [plan.s2_send_splits[m] for m in members],
                    op_name=c1_op,
                )
                for j, m in enumerate(members):
                    c1_recv[m] = recvd[j]
            partials_dest = []
            for d in range(size):
                merged = np.zeros((plan.num_pilot_arrivals[d], hidden), dtype=dtype)
                contributions = np.concatenate(
                    [weighted[d][: plan.num_pilot_arrivals[d]], c1_recv[d]], axis=0
                )
                # merge_perm/merge_slot are already in fold order:
                # (pilot slot, expert, src, row).
                np.add.at(
                    merged, plan.merge_slot[d], contributions[plan.merge_perm[d]]
                )
                partials_dest.append(merged)

        # ---- stage C2: per-(token, node) rows return to their source ---
        returned, _ = self.group.alltoallv_planned(
            partials_dest, plan.recv_splits, plan.send_splits, op_name=c2_op
        )

        # ---- source-side fold: partials, then (token, node) order ------
        outputs: list[np.ndarray] = []
        for r in range(size):
            num_partials = plan.num_partials(r)
            if plan.kind == "rbd":
                # One returned row per partial group: a pure reorder.
                partials = np.empty((num_partials, hidden), dtype=dtype)
                partials[plan.combine_partial[r]] = returned[r]
            else:
                partials = np.zeros((num_partials, hidden), dtype=dtype)
                perm = plan.combine_perm[r]
                np.add.at(partials, plan.combine_partial[r][perm], returned[r][perm])
            out = np.zeros((num_tokens_per_rank[r], hidden), dtype=dtype)
            np.add.at(out, plan.partial_token[r], partials)
            outputs.append(out)
        return outputs

    def _combine_hier(
        self,
        weighted: list[np.ndarray],
        plan: DispatchPlan,
        num_tokens_per_rank: list[int],
        hidden: int,
        dtype,
    ) -> list[np.ndarray]:
        """Reverse the two hops: scatter-back → leader exchange → gather-back."""
        size = self.group.size
        gather_op, inter_op, scatter_op = HIER_COMBINE_OPS

        # ---- reverse hop C: members return weighted rows to the leader,
        # which folds them onto their (token, node) group's hop-B slot in
        # ascending expert order — the flat oracle's association order.
        rev_c = self._node_alltoallv(
            weighted, plan.hC_recv_splits, plan.hC_send_splits, plan, gather_op
        )
        merged: list[np.ndarray] = []
        for r in range(size):
            fold = np.zeros((int(plan.recv_splits[r].sum()), hidden), dtype=dtype)
            np.add.at(fold, plan.hM_fold_slot[r], rev_c[r][plan.hM_fold_perm[r]])
            merged.append(fold)

        # ---- reverse hop B: leaders exchange the per-group partials back.
        rev_b, _ = self.group.alltoallv_planned(
            merged, plan.recv_splits, plan.send_splits, op_name=inter_op
        )
        back: list[np.ndarray] = []
        for r in range(size):
            buf = np.empty((plan.hB_perm[r].size, hidden), dtype=dtype)
            buf[plan.hB_perm[r]] = rev_b[r]
            back.append(buf)

        # ---- reverse hop A: the leader returns each member's rows.
        returned = self._node_alltoallv(
            back, plan.hA_recv_splits, plan.hA_send_splits, plan, scatter_op
        )

        # ---- source-side fold: one row per partial group (pure reorder),
        # then the (token, node)-ordered token fold shared with flat/RBD.
        outputs: list[np.ndarray] = []
        for r in range(size):
            partials = np.empty((plan.num_partials(r), hidden), dtype=dtype)
            partials[plan.combine_partial[r]] = returned[r]
            out = np.zeros((num_tokens_per_rank[r], hidden), dtype=dtype)
            np.add.at(out, plan.partial_token[r], partials)
            outputs.append(out)
        return outputs


def make_dispatcher(
    group: ProcessGroup,
    num_experts: int,
    *,
    kind: str | None = None,
    use_rbd: bool = False,
    expert_to_rank: np.ndarray | None = None,
    seed: int = 0,
) -> PlanDispatcher:
    """Build a plan-based dispatcher for one dispatch strategy.

    ``kind`` picks the planner: ``"flat"`` (single uneven all-to-all, the
    correctness oracle), ``"rbd"`` (two-stage redundancy-bypassing), or
    ``"hier"`` (two-hop hierarchical dispatch through node leaders).  The
    legacy boolean ``use_rbd`` is honoured when ``kind`` is omitted.
    """
    if kind is None:
        kind = "rbd" if use_rbd else "flat"
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
