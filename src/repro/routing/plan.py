"""The :class:`DispatchPlan` — every piece of dispatch/combine bookkeeping
as flat numpy arrays.

A plan is built **once per step** by a planner (:mod:`repro.routing.planner`)
from the per-rank PFTs and the expert placement, and then *consumed* by the
execution engine (:mod:`repro.routing.engine`), which only slices buffers and
issues collectives with splits read straight off the plan.  Nothing about
the routing is re-derived at execution time: no per-row Python loops, no
dict slot-maps, no linear scans.

Array conventions
-----------------
All per-rank fields are lists indexed by *group-local* rank.  The arrival
buffer of a destination rank is laid out as ``[pilot rows ++ replica rows]``
where the pilot part is ordered by ``(source rank, PFT row)`` — exactly the
concatenation order of an uneven all-to-all — and the replica part (RBD
only) is ordered by ``(pilot-holder member index, pilot slot, source, row)``.
``sort_order`` re-groups the arrival buffer into the canonical
``(expert, source, row)`` order consumed by the sequential GEMM; because the
key is a total order on assignments, every planner produces **bit-identical
expert input buffers**, which is what makes the RBD and hierarchical outputs
exactly equal to the flat oracle.

Hierarchical plans
------------------
``kind == "hier"`` replaces the single stage-1 all-to-all with a two-hop
program (intra-node gather onto a per-node leader, one leader-to-leader
inter-node exchange, intra-node scatter to the owning expert rank).  The
``h*`` fields hold that program; the legacy stage-1 fields are reused for
the pieces with the same shape (``send_rows`` = deduplicated rows leaving
each source, ``send_splits``/``recv_splits`` = the leader-to-leader
exchange matrix).

Collective schedule
-------------------
:meth:`DispatchPlan.comm_schedule` lists every collective that executing
the plan issues — dispatch then combine — as ``(op name, member ranks,
send-split matrix)`` in the engine's call order.  It is what lets the
comm cost of a step be *derived from the plan* (splits × row bytes through
the network model) instead of observed from an execution: the fused
executor prices its ``CommEvent`` list from it before any data moves.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.cluster.topology import LinkTier

#: op names recorded in CommStats per plan kind:
#: (stage-1 dispatch, stage-2 replicas, combine stage C1, combine stage C2)
_OP_NAMES = {
    "flat": ("dispatch_a2a", None, None, "combine_a2a"),
    "rbd": ("rbd_s1_a2a", "rbd_s2_a2a", "rbd_c1_a2a", "rbd_c2_a2a"),
}

#: op names for the hierarchical hops (dispatch gather/inter/scatter and
#: their combine-side reversals).
HIER_DISPATCH_OPS = ("hier_gather_a2a", "hier_inter_a2a", "hier_scatter_a2a")
HIER_COMBINE_OPS = ("hier_c_gather_a2a", "hier_c_inter_a2a", "hier_c_scatter_a2a")


@dataclass
class DispatchPlan:
    """Vectorized routing plan shared by every dispatch path.

    ``kind`` is ``"flat"`` (single uneven all-to-all; every assignment is
    its own pilot), ``"rbd"`` (two-stage redundancy-bypassing dispatch), or
    ``"hier"`` (two-hop hierarchical dispatch through per-node leaders).
    """

    kind: str
    size: int
    num_experts: int
    num_nodes: int
    expert_to_rank: np.ndarray  # [E] group-local hosting rank per expert
    rank_to_node: np.ndarray  # [size] node id per group-local rank
    pfts: list  # list[PFT], one per source rank

    # ---- stage-1 send program (the only all-to-all for flat) -------------
    send_rows: list[np.ndarray]  # PFT row ids in inter-rank send order
    send_splits: list[np.ndarray]  # [size] rows to each destination
    recv_splits: list[np.ndarray]  # [size] rows from each source

    # ---- per-destination arrival tables (pilots ++ replicas) -------------
    arrival_src: list[np.ndarray]
    arrival_row: list[np.ndarray]
    arrival_expert: list[np.ndarray]
    arrival_weight: list[np.ndarray]
    num_pilot_arrivals: list[int]  # length of the pilot part
    sort_order: list[np.ndarray]  # canonical (expert, src, row) grouping
    tokens_per_local_expert: list[np.ndarray]

    # ---- stage-2 replica program (all empty for flat) --------------------
    node_members: list[np.ndarray]  # per node (ascending id): member ranks
    s2_source_slot: list[np.ndarray]  # per rank: pilot-arrival slots to copy
    s2_send_splits: list[np.ndarray]  # per rank: [node group size]
    s2_recv_splits: list[np.ndarray]  # per rank: [node group size]

    # ---- combine merge program (per rank; empty for flat) ----------------
    # Contributions = [own pilot outputs ++ C1-received replica outputs].
    # ``merge_perm`` holds contribution indices in fold order — sorted by
    # (pilot slot, expert, src, row) so the per-(token, node) partial sums
    # fold in exactly the flat oracle's order — and ``merge_slot`` the
    # target pilot slots aligned with that fold order.
    merge_slot: list[np.ndarray]
    merge_perm: list[np.ndarray]

    # ---- source-side final combine ---------------------------------------
    combine_partial: list[np.ndarray]  # returned row -> partial group id
    combine_perm: list[np.ndarray]  # (group, expert) fold order
    partial_token: list[np.ndarray]  # per partial group: sequence position

    # ---- hierarchical two-hop program (empty unless kind == "hier") ------
    # Hop A: every member sends its deduplicated rows to its node leader
    # (``send_rows`` holds the rows in hop-A send order).  Hop B: one
    # group-wide alltoallv in which only leaders exchange (its matrix lives
    # in ``send_splits``/``recv_splits``).  Hop C: each destination leader
    # scatters one row per assignment to the owning expert rank.
    hA_send_splits: list[np.ndarray] = field(default_factory=list)  # [node size]
    hA_recv_splits: list[np.ndarray] = field(default_factory=list)  # [node size]
    hB_perm: list[np.ndarray] = field(default_factory=list)  # hop-A slot -> send row
    hC_gather: list[np.ndarray] = field(default_factory=list)  # hop-B slot per send row
    hC_send_splits: list[np.ndarray] = field(default_factory=list)  # [node size]
    hC_recv_splits: list[np.ndarray] = field(default_factory=list)  # [node size]
    # Combine-side leader fold: reverse-hop-C row indices in fold order
    # (hop-B slot, expert) and the target hop-B slot per fold entry.
    hM_fold_perm: list[np.ndarray] = field(default_factory=list)
    hM_fold_slot: list[np.ndarray] = field(default_factory=list)

    # ---- plan statistics -------------------------------------------------
    total_assignments: int = 0
    total_pilots: int = 0
    cross_node_assignments: int = 0  # assignments whose dest node != src node
    cross_node_pilots: int = 0  # rows actually sent inter-node
    # Payload rows each dispatch hop moves, keyed by the LinkTier the hop
    # crosses (SELF rows included; combine hops mirror these exactly).
    dispatch_rows_by_tier: dict = field(default_factory=dict)

    # ------------------------------------------------------------------
    @property
    def num_replicas(self) -> int:
        """Assignments served locally instead of crossing stage 1."""
        return self.total_assignments - self.total_pilots

    @property
    def cross_node_replicas(self) -> int:
        """Rows the flat path would send inter-node but RBD does not."""
        return self.cross_node_assignments - self.cross_node_pilots

    @property
    def redundancy(self) -> float:
        """Fraction of assignments that did not travel in stage 1."""
        if self.total_assignments == 0:
            return 0.0
        return self.num_replicas / self.total_assignments

    @property
    def inter_node_rows(self) -> int:
        """Dispatch payload rows crossing node boundaries (any hop)."""
        return int(
            self.dispatch_rows_by_tier.get(LinkTier.INTER_NODE, 0)
            + self.dispatch_rows_by_tier.get(LinkTier.CROSS_RACK, 0)
        )

    @property
    def intra_node_rows(self) -> int:
        """Dispatch payload rows moved inside a node (excluding self-sends)."""
        return int(
            self.dispatch_rows_by_tier.get(LinkTier.INTRA_PACKAGE, 0)
            + self.dispatch_rows_by_tier.get(LinkTier.INTRA_NODE, 0)
        )

    def num_partials(self, rank: int) -> int:
        """Number of (token, node) partial groups at one source rank."""
        return int(self.partial_token[rank].size)

    def sent_rows(self) -> int:
        """Total rows crossing the stage-1 all-to-all (pilots only for RBD)."""
        return int(sum(r.size for r in self.send_rows))

    def stats_dict(self, row_bytes: int) -> dict[str, float]:
        """Pilot/replica counts, redundancy and stage bytes of this plan."""
        return {
            "total_assignments": float(self.total_assignments),
            "pilots": float(self.total_pilots),
            "replicas": float(self.num_replicas),
            "redundancy_rate": self.redundancy,
            "stage1_bytes": float(self.total_pilots * row_bytes),
            "stage2_bytes": float(self.num_replicas * row_bytes),
        }

    def comm_schedule(self) -> list[tuple[str, np.ndarray, np.ndarray]]:
        """Every collective dispatch + combine issue, in the engine's order.

        One ``(op_name, members, send_splits)`` entry per planned uneven
        all-to-all: ``members`` are the group-local ranks taking part (the
        whole group, or one node's members — node subgroups in ascending
        node order, as the engine visits them) and ``send_splits[i, j]``
        is the rows ``members[i]`` sends to ``members[j]``.  Combine hops
        reverse their dispatch hop, so they send what that hop received.
        """
        everyone = np.arange(self.size)

        def whole(op: str, splits: list) -> list:
            """One all-to-all over the whole group."""
            return [(op, everyone, np.stack(splits))]

        def per_node(op: str, splits: list) -> list:
            """One all-to-all per node subgroup, nodes ascending."""
            return [
                (op, members, np.stack([splits[m] for m in members]))
                for members in self.node_members
            ]

        if self.kind == "hier":
            gather, inter, scatter = HIER_DISPATCH_OPS
            c_gather, c_inter, c_scatter = HIER_COMBINE_OPS
            return (
                per_node(gather, self.hA_send_splits)
                + whole(inter, self.send_splits)
                + per_node(scatter, self.hC_send_splits)
                + per_node(c_gather, self.hC_recv_splits)
                + whole(c_inter, self.recv_splits)
                + per_node(c_scatter, self.hA_recv_splits)
            )
        s1, s2, c1, c2 = _OP_NAMES[self.kind]
        schedule = whole(s1, self.send_splits)
        if s2 is not None:
            schedule += per_node(s2, self.s2_send_splits)
            schedule += per_node(c1, self.s2_recv_splits)
        return schedule + whole(c2, self.recv_splits)

    def validate(self) -> None:
        """Internal-consistency checks (used by the test suite)."""
        if self.kind == "hier":
            self._validate_hier()
        else:
            for r in range(self.size):
                if int(self.send_splits[r].sum()) != int(self.send_rows[r].size):
                    raise AssertionError(
                        f"rank {r}: send_splits do not sum to send_rows"
                    )
        for d in range(self.size):
            expected = np.array(
                [self.send_splits[r][d] for r in range(self.size)], dtype=np.int64
            )
            if not np.array_equal(expected, self.recv_splits[d]):
                raise AssertionError(f"rank {d}: recv_splits not the send transpose")
            n = self.arrival_src[d].size
            if not (
                self.arrival_row[d].size
                == self.arrival_expert[d].size
                == self.arrival_weight[d].size
                == self.sort_order[d].size
                == n
            ):
                raise AssertionError(f"rank {d}: arrival tables disagree on length")
            if n and not np.array_equal(np.sort(self.sort_order[d]), np.arange(n)):
                raise AssertionError(f"rank {d}: sort_order is not a permutation")
            if int(self.tokens_per_local_expert[d].sum()) != n:
                raise AssertionError(f"rank {d}: tokens_per_local_expert != arrivals")
        arrivals = sum(self.arrival_src[d].size for d in range(self.size))
        if arrivals != self.total_assignments:
            raise AssertionError("arrival rows do not cover all assignments")

    def _validate_hier(self) -> None:
        """Consistency checks specific to the two-hop hierarchical program."""
        for r in range(self.size):
            if int(self.hA_send_splits[r].sum()) != int(self.send_rows[r].size):
                raise AssertionError(
                    f"rank {r}: hop-A send_splits do not sum to send_rows"
                )
            if int(self.send_splits[r].sum()) != int(self.hA_recv_splits[r].sum()):
                raise AssertionError(
                    f"rank {r}: hop-B sends do not cover the hop-A gather"
                )
            if self.hB_perm[r].size != int(self.hA_recv_splits[r].sum()):
                raise AssertionError(f"rank {r}: hB_perm does not index hop-A buffer")
            if self.hC_gather[r].size != int(self.hC_send_splits[r].sum()):
                raise AssertionError(f"rank {r}: hC_gather/hC_send_splits disagree")
            if int(self.hC_recv_splits[r].sum()) != self.arrival_src[r].size:
                raise AssertionError(
                    f"rank {r}: hop-C receives do not match the arrival table"
                )
        scattered = sum(int(self.hC_send_splits[r].sum()) for r in range(self.size))
        if scattered != self.total_assignments:
            raise AssertionError("hop-C scatter does not cover all assignments")
