"""The :class:`DispatchPlan` — every piece of dispatch/combine bookkeeping
as flat numpy arrays.

A plan is built **once per step** by a planner (:mod:`repro.routing.planner`)
from the per-rank PFTs and the expert placement, and then *consumed* by the
execution engine (:mod:`repro.routing.engine`), which only slices buffers and
issues collectives with splits read straight off the plan.  Nothing about
the routing is re-derived at execution time: no per-row Python loops, no
dict slot-maps, no linear scans.

A plan is a list of hops
------------------------
``DispatchPlan.hops`` is an ordered list of :class:`Hop` — one planned
uneven all-to-all each.  Dispatch walks them forward: every rank gathers
its send rows out of its current buffer, the hop exchanges them (over the
whole group, or once per node subgroup), and the received rows replace the
buffer — or, for an ``append`` hop, are appended to it.  The first hop
gathers PFT rows of the source tokens; the last hop's buffer is the
destination's arrival buffer.  Combine walks the hops in reverse: each
reversed exchange returns what its hop delivered, and the hop's fold sums
the returned rows (plus the kept rows of an ``append`` hop) back onto the
hop's input slots.  The three dispatch kinds differ only in their hops:
flat is one group hop, RBD a group hop of pilots plus an appending node hop
of replicas, hierarchical a node gather, a leader exchange and a node
scatter.

Array conventions
-----------------
All per-rank fields are lists indexed by *group-local* rank.  The arrival
tables (``arrival_*``) describe the last hop's buffer row by row.
``sort_order`` re-groups that buffer into the canonical ``(expert, source,
row)`` order consumed by the sequential GEMM; because the key is a total
order on assignments, every planner produces **bit-identical expert input
buffers**.  Every fold sums in the flat oracle's association order — per
``(token, destination node)`` partial group in ascending expert order, then
the partials per token in node order (``partial_token``) — which is what
makes the RBD and hierarchical outputs exactly equal to the flat oracle.

Collective schedule
-------------------
:meth:`DispatchPlan.comm_schedule` lists every collective that executing
the plan issues — dispatch over the hops, then combine over the reversed
hops — as ``(op name, member ranks, send-split matrix)`` in the engine's
call order.  It is what lets the comm cost of a step be *derived from the
plan* (splits × row bytes through the network model) instead of observed
from an execution: the fused executor prices its ``CommEvent`` list from it
before any data moves.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.cluster.topology import LinkTier


@dataclass
class Hop:
    """One planned uneven all-to-all and its combine-side reversal.

    Splits are per rank; a ``per_node`` hop's splits index the rank's node
    members (one exchange per node subgroup), a group hop's the group
    ranks.  ``fold_slot[r][i]`` is the input slot that contribution
    ``fold_perm[r][i]`` sums onto, in fold order; the contributions are
    the rows the reversed exchange returns (after the rows an ``append``
    hop kept).  ``fold_perm is None`` marks a fold with one contribution
    per slot — a pure reorder.
    """

    op: str  # dispatch op name recorded in CommStats
    combine_op: str  # op name of the reversed exchange
    per_node: bool  # exchange per node subgroup (else across the group)
    gather: list[np.ndarray]  # input-buffer rows to send, in send order
    send_splits: list[np.ndarray]  # rows to each peer
    recv_splits: list[np.ndarray]  # rows from each peer
    fold_slot: list[np.ndarray]
    fold_perm: list[np.ndarray] | None
    append: bool = False  # received rows extend the buffer


@dataclass
class DispatchPlan:
    """Vectorized routing plan shared by every dispatch path.

    ``kind`` is ``"flat"`` (one hop; every assignment travels), ``"rbd"``
    (redundancy-bypassing: pilots, then replicas) or ``"hier"``
    (hierarchical: through per-node leaders).  Only the planner reads it.
    """

    kind: str
    size: int
    num_experts: int
    num_nodes: int
    expert_to_rank: np.ndarray  # [E] group-local hosting rank per expert
    rank_to_node: np.ndarray  # [size] node id per group-local rank
    pfts: list  # list[PFT], one per source rank
    node_members: list[np.ndarray]  # per node (ascending id): member ranks
    hops: list[Hop]

    # ---- per-destination arrival tables (the last hop's buffer) ----------
    arrival_src: list[np.ndarray]
    arrival_row: list[np.ndarray]
    arrival_expert: list[np.ndarray]
    arrival_weight: list[np.ndarray]
    sort_order: list[np.ndarray]  # canonical (expert, src, row) grouping
    tokens_per_local_expert: list[np.ndarray]

    # ---- source-side token fold ------------------------------------------
    partial_token: list[np.ndarray]  # per partial group: sequence position

    # ---- plan statistics -------------------------------------------------
    total_assignments: int = 0
    total_pilots: int = 0  # rows leaving the sources (one per partial group unless flat)
    cross_node_assignments: int = 0  # assignments whose dest node != src node
    cross_node_pilots: int = 0  # rows actually sent inter-node
    # Payload rows each dispatch hop moves, keyed by the LinkTier the hop
    # crosses (SELF rows included; combine hops mirror these exactly).
    dispatch_rows_by_tier: dict = field(default_factory=dict)

    # ------------------------------------------------------------------
    @property
    def num_replicas(self) -> int:
        """Assignments that did not leave their source as their own row."""
        return self.total_assignments - self.total_pilots

    @property
    def cross_node_replicas(self) -> int:
        """Rows the flat path would send inter-node but this plan does not."""
        return self.cross_node_assignments - self.cross_node_pilots

    @property
    def redundancy(self) -> float:
        """Fraction of assignments that did not leave their source."""
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
        """Total rows the sources send on the first hop."""
        return int(sum(g.size for g in self.hops[0].gather))

    def stats_dict(self, row_bytes: int) -> dict[str, float]:
        """Pilot/replica counts, redundancy and stage bytes of this plan.

        Stage 1 is what the first hop moves, stage 2 what every later hop
        moves (self-sends included), so the two stages add up to the
        dispatch payload of every kind.
        """
        rows = [sum(int(s.sum()) for s in hop.send_splits) for hop in self.hops]
        return {
            "total_assignments": float(self.total_assignments),
            "pilots": float(self.total_pilots),
            "replicas": float(self.num_replicas),
            "redundancy_rate": self.redundancy,
            "stage1_bytes": float(rows[0] * row_bytes),
            "stage2_bytes": float(sum(rows[1:]) * row_bytes),
        }

    def hop_members(self, hop: Hop) -> list[np.ndarray]:
        """Member ranks of each exchange a hop issues, in issue order."""
        return self.node_members if hop.per_node else [np.arange(self.size)]

    def comm_schedule(self) -> list[tuple[str, np.ndarray, np.ndarray]]:
        """Every collective dispatch + combine issue, in the engine's order.

        One ``(op_name, members, send_splits)`` entry per planned uneven
        all-to-all: ``members`` are the group-local ranks taking part (the
        whole group, or one node's members — node subgroups in ascending
        node order, as the engine visits them) and ``send_splits[i, j]``
        is the rows ``members[i]`` sends to ``members[j]``.  Combine hops
        reverse their dispatch hop, so they send what that hop received.
        """
        passes = [(hop, hop.op, hop.send_splits) for hop in self.hops]
        passes += [(hop, hop.combine_op, hop.recv_splits) for hop in reversed(self.hops)]
        return [
            (op, members, np.stack([splits[m] for m in members]))
            for hop, op, splits in passes
            for members in self.hop_members(hop)
        ]

    def validate(self) -> None:
        """Internal-consistency checks (used by the test suite)."""
        # Rows in each rank's buffer before the current hop: PFT rows.
        rows = [p.num_routed_tokens for p in self.pfts]
        for h, hop in enumerate(self.hops):
            out_rows = []
            for r in range(self.size):
                gather, sent = hop.gather[r], int(hop.send_splits[r].sum())
                if gather.size != sent:
                    raise AssertionError(f"hop {h} rank {r}: gather != send_splits")
                if gather.size and not 0 <= gather.min() <= gather.max() < rows[r]:
                    raise AssertionError(f"hop {h} rank {r}: gather out of range")
                received = int(hop.recv_splits[r].sum())
                kept = rows[r] if hop.append else 0
                out_rows.append(kept + received)
                # The fold sums [kept ++ returned] onto the hop's input slots
                # (the source's partial groups for the first hop).
                targets = self.num_partials(r) if h == 0 else rows[r]
                slot, perm = hop.fold_slot[r], hop.fold_perm
                if slot.size != kept + gather.size:
                    raise AssertionError(f"hop {h} rank {r}: fold misses contributions")
                if perm is not None and not np.array_equal(
                    np.sort(perm[r]), np.arange(slot.size)
                ):
                    raise AssertionError(f"hop {h} rank {r}: fold_perm not a permutation")
                hits = np.bincount(slot, minlength=targets)
                if hits.size != targets or (hits.size and hits.min() == 0):
                    raise AssertionError(f"hop {h} rank {r}: fold does not cover slots")
                if perm is None and hits.size and hits.max() != 1:
                    raise AssertionError(f"hop {h} rank {r}: reorder fold repeats slots")
            for members in self.hop_members(hop):
                send = np.stack([hop.send_splits[m] for m in members])
                recv = np.stack([hop.recv_splits[m] for m in members])
                if not np.array_equal(send.T, recv):
                    raise AssertionError(f"hop {h}: recv_splits not the send transpose")
            rows = out_rows
        for d in range(self.size):
            n = self.arrival_src[d].size
            if rows[d] != n:
                raise AssertionError(f"rank {d}: last hop does not fill the arrivals")
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
