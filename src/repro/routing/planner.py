"""Vectorized routing planners: flat all-to-all, redundancy-bypassing, and
hierarchical two-hop dispatch.

All planners compile per-rank PFTs into a :class:`~repro.routing.plan.DispatchPlan`
by whole-array numpy operations over one global assignment table:

* a single stable sort by destination yields every rank's arrival order,
  and scattering each pilot's arrival slot into a ``slot_of`` array indexed
  by global assignment id replaces the legacy per-destination dict
  slot-maps and the O(B²) combine-side linear scan with one gather,
* the stage-1/stage-2 send programs, the canonical (expert, src, row)
  expert grouping, and the combine merge/fold orders each fall out of one
  combined-key argsort (:func:`_argsort_key`) plus bincounts and slicing.

:class:`FlatPlanner` treats every assignment as its own pilot (one uneven
all-to-all, no stage 2) and doubles as the correctness oracle for
:class:`RBDPlanner` and :class:`HierarchicalPlanner`: all three produce
canonically ordered expert input buffers and fold combine partial sums in
the same association order, so every path produces bit-identical outputs.

Determinism
-----------
Pilot selection is the only randomized step.  ``RBDPlanner`` derives a fresh
generator from ``(seed, step)`` on every :meth:`RBDPlanner.build` call, so
planning the same PFTs twice with the same ``step`` (or with ``step=None``)
picks the same pilots — there is no hidden RNG state mutating across calls.
Pass a different ``step`` per training step to decorrelate pilot choices
over time while keeping every step reproducible.
``HierarchicalPlanner`` uses no RNG at all: the row that travels for each
(token, destination node) group is the group's lowest PFT row.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.cluster.topology import LinkTier
from repro.routing.plan import DispatchPlan


def _rows_by_tier(tiers: np.ndarray) -> dict:
    """Histogram an array of per-row :class:`LinkTier` values into a dict."""
    counts = np.bincount(tiers.astype(np.int64), minlength=len(LinkTier))
    return {LinkTier(t): int(c) for t, c in enumerate(counts) if c}


def _argsort_key(key: np.ndarray, *, tiebreak: bool = False) -> np.ndarray:
    """Argsort of a non-negative integer key, stable where it matters.

    numpy's stable sort is a radix sort for 16-bit integers (fast) but a
    timsort for 32/64-bit ones (~5x slower than the unstable introsort).
    So: keys under 2**16 take the radix path (stable for free); wider keys
    with duplicates (``tiebreak=True``) compose the element position into
    the key and use the fast unstable sort; unique keys sort directly.
    """
    n = key.size
    if n == 0:
        return np.zeros(0, dtype=np.int64)
    hi = int(key.max())
    if hi < 2**16:
        return np.argsort(key.astype(np.uint16), kind="stable")
    if tiebreak:
        if hi < (2**62) // n:
            key = key * n + np.arange(n, dtype=np.int64)
        else:  # compose would overflow int64; fall back to a stable sort
            return np.argsort(key, kind="stable")
    return np.argsort(key)


# ----------------------------------------------------------------------
# Stage 0: pilot selection
# ----------------------------------------------------------------------
@dataclass
class RBDPlan:
    """Per-source-rank stage-0 plan: which PFT rows are pilots."""

    pilot_mask: np.ndarray  # [B] bool
    pilot_of: np.ndarray  # [B] index (into PFT rows) of each row's pilot
    dest_rank: np.ndarray  # [B] destination group-local rank
    dest_node: np.ndarray  # [B] destination node id

    @property
    def num_pilots(self) -> int:
        """Rows selected to travel inter-node."""
        return int(self.pilot_mask.sum())

    @property
    def num_replicas(self) -> int:
        """Rows reconstructed on the destination node instead of sent."""
        return int((~self.pilot_mask).sum())

    @property
    def redundancy(self) -> float:
        """Fraction of rows served as local replicas."""
        total = self.pilot_mask.size
        return 0.0 if total == 0 else self.num_replicas / total


def select_pilots(
    pft,
    dest_rank: np.ndarray,
    dest_node: np.ndarray,
    num_nodes: int,
    rng: np.random.Generator,
) -> RBDPlan:
    """Pick one random pilot per (token, destination node) group."""
    b = pft.num_routed_tokens
    if b == 0:
        return RBDPlan(
            pilot_mask=np.zeros(0, dtype=bool),
            pilot_of=np.zeros(0, dtype=np.int64),
            dest_rank=dest_rank,
            dest_node=dest_node,
        )
    keys = pft.token_ids * num_nodes + dest_node
    # Random pilot per (token, node) group: permute rows, then take the
    # first occurrence of each key in permuted order.
    perm = rng.permutation(b)
    uniq_keys, first_in_perm = np.unique(keys[perm], return_index=True)
    pilot_rows = perm[first_in_perm]
    pilot_mask = np.zeros(b, dtype=bool)
    pilot_mask[pilot_rows] = True
    pos = np.searchsorted(uniq_keys, keys)
    pilot_of = pilot_rows[pos]
    return RBDPlan(
        pilot_mask=pilot_mask,
        pilot_of=pilot_of,
        dest_rank=dest_rank,
        dest_node=dest_node,
    )


# ----------------------------------------------------------------------
# Shared planner machinery
# ----------------------------------------------------------------------
class _PlannerBase:
    """Validation and topology bookkeeping shared by both planners."""

    kind: str = ""

    def __init__(self, group, num_experts: int, expert_to_rank=None):
        self.group = group
        self.num_experts = num_experts
        if expert_to_rank is None:
            if num_experts % group.size:
                raise ValueError(
                    f"num_experts={num_experts} not divisible by EP size {group.size}"
                )
            per_rank = num_experts // group.size
            expert_to_rank = np.repeat(np.arange(group.size), per_rank)
        expert_to_rank = np.asarray(expert_to_rank, dtype=np.int64)
        if expert_to_rank.size != num_experts:
            raise ValueError("expert_to_rank must have one entry per expert")
        if expert_to_rank.size and (
            expert_to_rank.min() < 0 or expert_to_rank.max() >= group.size
        ):
            raise ValueError("expert_to_rank entries out of range for the group")
        self.expert_to_rank = expert_to_rank
        topo = group.world.topology
        self.rank_to_node = np.array(
            [topo.node_of(g) for g in group.ranks], dtype=np.int64
        )
        self.num_nodes = int(self.rank_to_node.max()) + 1
        # Node membership in ascending node-id order, members in ascending
        # group-local rank order — matching ProcessGroup.node_local_subgroups.
        self.node_members = [
            np.flatnonzero(self.rank_to_node == n)
            for n in np.unique(self.rank_to_node)
        ]
        self.member_index = np.zeros(group.size, dtype=np.int64)
        self.node_group_size = np.zeros(group.size, dtype=np.int64)
        self.leader_of = np.zeros(group.size, dtype=np.int64)
        self.node_leader = np.zeros(self.num_nodes, dtype=np.int64)
        for members in self.node_members:
            self.member_index[members] = np.arange(members.size)
            self.node_group_size[members] = members.size
            self.leader_of[members] = members[0]
            self.node_leader[self.rank_to_node[members[0]]] = members[0]
        # Pairwise link tiers between group-local ranks (per-hop accounting).
        self.tier_matrix = topo.tier_matrix(np.asarray(group.ranks, dtype=np.int64))
        self._experts_by_rank = [
            np.flatnonzero(self.expert_to_rank == r) for r in range(group.size)
        ]

    def experts_on_rank(self, local_rank: int) -> np.ndarray:
        """Global ids of the experts hosted by a group-local rank."""
        return self._experts_by_rank[local_rank]

    # ------------------------------------------------------------------
    def _compile(self, pfts: list, rng: np.random.Generator | None) -> DispatchPlan:
        """Compile per-rank PFTs into a plan (``rng=None`` = flat dispatch).

        Works on one global assignment table (a single concatenate per
        field); pilot selection and every per-destination / per-source view
        fall out of a handful of combined-key sorts, bincounts and
        scatters, so the cost is O(B log B) whole-array work with no
        per-row Python.
        """
        size = self.group.size
        if len(pfts) != size:
            raise ValueError(f"need one PFT per group rank (got {len(pfts)})")
        num_nodes = self.num_nodes
        num_experts = self.num_experts

        # ---- global assignment table --------------------------------
        sizes = np.array([p.num_routed_tokens for p in pfts], dtype=np.int64)
        total = int(sizes.sum())
        offsets = np.concatenate([[0], np.cumsum(sizes)])
        max_rows = int(sizes.max()) + 1
        rank_all = np.repeat(np.arange(size, dtype=np.int64), sizes)
        row_all = np.arange(total, dtype=np.int64) - offsets[rank_all]
        expert_all = np.concatenate([p.expert_ids for p in pfts]).astype(
            np.int64, copy=False
        )
        token_all = np.concatenate([p.token_ids for p in pfts]).astype(
            np.int64, copy=False
        )
        weight_all = np.concatenate([p.combine_weights for p in pfts])
        dest_all = self.expert_to_rank[expert_all]
        node_all = self.rank_to_node[dest_all]
        max_tok = max((p.num_source_tokens for p in pfts), default=0) + 1

        # ---- stage 0: pilot selection -------------------------------
        if rng is None:  # flat: every assignment is its own pilot
            g_idx = np.arange(total, dtype=np.int64)
        elif total == 0:
            mask = np.zeros(0, dtype=bool)
            pilot_of_all = np.zeros(0, dtype=np.int64)
            g_idx = np.zeros(0, dtype=np.int64)
        else:
            # One random pilot per (rank, token, node) group: permute rows,
            # stable-sort the permuted keys, and take each key run's first
            # element (= a uniform group member).
            keys0 = (rank_all * max_tok + token_all) * num_nodes + node_all
            perm = rng.permutation(total)
            order0 = perm[_argsort_key(keys0[perm], tiebreak=True)]
            sorted_keys = keys0[order0]
            is_first = np.empty(total, dtype=bool)
            is_first[0] = True
            is_first[1:] = sorted_keys[1:] != sorted_keys[:-1]
            pilot_rows = order0[np.flatnonzero(is_first)]
            mask = np.zeros(total, dtype=bool)
            mask[pilot_rows] = True
            pilot_of_all = np.empty(total, dtype=np.int64)
            pilot_of_all[order0] = pilot_rows[np.cumsum(is_first) - 1]
            g_idx = np.flatnonzero(mask)
        g_src, g_row = rank_all[g_idx], row_all[g_idx]
        g_dest, g_expert = dest_all[g_idx], expert_all[g_idx]
        g_weight = weight_all[g_idx]
        sel_counts = np.bincount(g_src, minlength=size)
        sel_bounds = np.concatenate([[0], np.cumsum(sel_counts)])

        # ---- stage-1 send program -----------------------------------
        # Send order on each source is a stable sort by destination (rows
        # already ascend); one combined-key argsort covers every rank.
        o_send1 = _argsort_key(g_src * size + g_dest, tiebreak=True)
        sent_global = g_idx[o_send1]
        sent_row = row_all[sent_global]
        send_rows = [sent_row[sel_bounds[r] : sel_bounds[r + 1]] for r in range(size)]
        splits_mat = np.bincount(
            g_src * size + g_dest, minlength=size * size
        ).reshape(size, size)
        send_splits = [splits_mat[r] for r in range(size)]
        recv_splits = [splits_mat[:, d].copy() for d in range(size)]

        # ---- arrival order ------------------------------------------
        # Arrival order at destination d is (source rank, PFT row): the
        # all-to-all concatenates per-source chunks in rank order and each
        # source sends its rows in ascending-row order — i.e. a stable
        # sort by destination alone, since the sent table is already
        # (src, row)-major.  ``slot_of`` scatters each pilot's arrival
        # slot to its global assignment id; this is the vectorized index
        # that replaces the seed's per-destination dict slot-maps.
        order = _argsort_key(g_dest, tiebreak=True)
        p_src, p_row = g_src[order], g_row[order]
        p_expert, p_weight = g_expert[order], g_weight[order]
        p_dest = g_dest[order]
        pilot_counts = np.bincount(p_dest, minlength=size)
        bounds = np.concatenate([[0], np.cumsum(pilot_counts)])
        num_pilot_arrivals = [int(pilot_counts[d]) for d in range(size)]
        pil_local = np.arange(p_dest.size, dtype=np.int64) - bounds[p_dest]
        slot_of = np.empty(total, dtype=np.int64)
        slot_of[g_idx[order]] = pil_local

        # ---- stage-2 replica program --------------------------------
        empty_i = np.zeros(0, dtype=np.int64)
        s2_source_slot = [empty_i] * size
        mm = int(self.node_group_size.max())
        zero_node_splits = [
            np.zeros(int(self.node_group_size[r]), dtype=np.int64) for r in range(size)
        ]
        s2_send_splits = zero_node_splits
        s2_recv_splits = list(zero_node_splits)
        merge_slot: list[np.ndarray] = [empty_i] * size
        merge_perm: list[np.ndarray] = [empty_i] * size

        if rng is not None:
            rep_idx = np.flatnonzero(~mask)
            pil_global = pilot_of_all[rep_idx]
            r_src, r_row = rank_all[rep_idx], row_all[rep_idx]
            r_pr, r_dr = dest_all[pil_global], dest_all[rep_idx]
            r_expert, r_weight = expert_all[rep_idx], weight_all[rep_idx]
            # Pilot-slot index: one gather through ``slot_of`` instead of
            # a per-replica dict lookup / linear scan.
            r_slot = slot_of[pil_global]
            r_pm = self.member_index[r_pr]  # pilot holder's node-member index
            r_dm = self.member_index[r_dr]  # replica destination's index

            # Send program on each pilot-holding rank: rows ordered by
            # (destination member, pilot slot) with (src, row) ties kept
            # by the composed position tie-break (the replica table is
            # (src, row)-ordered).
            max_pilots = int(pilot_counts.max()) + 1 if pilot_counts.size else 1
            o_send = _argsort_key(
                (r_pr * (mm + 1) + r_dm) * max_pilots + r_slot, tiebreak=True
            )
            pr_counts = np.bincount(r_pr, minlength=size)
            pr_bounds = np.concatenate([[0], np.cumsum(pr_counts)])
            s_slot, s_dm = r_slot[o_send], r_dm[o_send]
            s_expert, s_rank = r_expert[o_send], r_pr[o_send]
            s2_source_slot = [
                s_slot[pr_bounds[p] : pr_bounds[p + 1]] for p in range(size)
            ]
            send_mat = np.bincount(r_pr * mm + r_dm, minlength=size * mm).reshape(
                size, mm
            )
            s2_send_splits = [
                send_mat[p, : int(self.node_group_size[p])] for p in range(size)
            ]

            # Arrival program on each replica destination: the intra-node
            # all-to-all concatenates sender chunks in member order, each
            # chunk ordered by (slot, src, row) — the same tie-break as the
            # send program, so sender and receiver agree row by row.
            o_arr = _argsort_key(
                (r_dr * (mm + 1) + r_pm) * max_pilots + r_slot, tiebreak=True
            )
            dr_counts = np.bincount(r_dr, minlength=size)
            dr_bounds = np.concatenate([[0], np.cumsum(dr_counts)])
            a_src, a_row = r_src[o_arr], r_row[o_arr]
            a_expert, a_weight, a_dest = r_expert[o_arr], r_weight[o_arr], r_dr[o_arr]
            recv_mat = np.bincount(r_dr * mm + r_pm, minlength=size * mm).reshape(
                size, mm
            )
            s2_recv_splits = [
                recv_mat[d, : int(self.node_group_size[d])] for d in range(size)
            ]

            # Combine merge program: the C1 intra-node return delivers the
            # replica outputs to each pilot holder in exactly its stage-2
            # send order, so each rank's contribution buffer is
            # [own pilot outputs ++ C1 receives] with target slots
            # [0..P) ++ s2_source_slot; folding contributions sorted by
            # (slot, expert) reproduces the flat oracle's per-(token, node)
            # summation order exactly (experts are unique within a
            # (rank, slot) group, so the combined key is a total order).
            rep_local = (
                pilot_counts[s_rank]
                + np.arange(s_rank.size, dtype=np.int64)
                - pr_bounds[s_rank]
            )
            c_rank = np.concatenate([p_dest, s_rank])
            c_local = np.concatenate([pil_local, rep_local])
            c_slot = np.concatenate([pil_local, s_slot])
            c_expert = np.concatenate([p_expert, s_expert])
            o_merge = _argsort_key(
                (c_rank * max_pilots + c_slot) * num_experts + c_expert
            )
            m_local, m_slot = c_local[o_merge], c_slot[o_merge]
            contrib_bounds = np.concatenate(
                [[0], np.cumsum(pilot_counts + pr_counts)]
            )
            merge_perm = [
                m_local[contrib_bounds[p] : contrib_bounds[p + 1]] for p in range(size)
            ]
            merge_slot = [
                m_slot[contrib_bounds[p] : contrib_bounds[p + 1]] for p in range(size)
            ]

        # ---- arrival tables (pilots ++ replicas per destination) ----
        if rng is None:
            n_dest = pilot_counts
            dest_bounds = bounds
            arr_src_g, arr_row_g = p_src, p_row
            arr_expert_g, arr_weight_g = p_expert, p_weight
        else:
            n_dest = pilot_counts + dr_counts
            dest_bounds = np.concatenate([[0], np.cumsum(n_dest)])
            pil_pos = dest_bounds[p_dest] + pil_local
            rep_pos = (
                dest_bounds[a_dest]
                + pilot_counts[a_dest]
                + np.arange(a_dest.size, dtype=np.int64)
                - dr_bounds[a_dest]
            )
            arr_src_g = np.empty(total, dtype=np.int64)
            arr_row_g = np.empty(total, dtype=np.int64)
            arr_expert_g = np.empty(total, dtype=np.int64)
            arr_weight_g = np.empty(total, dtype=np.float64)
            for buf, pil, rep in (
                (arr_src_g, p_src, a_src),
                (arr_row_g, p_row, a_row),
                (arr_expert_g, p_expert, a_expert),
                (arr_weight_g, p_weight, a_weight),
            ):
                buf[pil_pos] = pil
                buf[rep_pos] = rep
        arrival_src = [
            arr_src_g[dest_bounds[d] : dest_bounds[d + 1]] for d in range(size)
        ]
        arrival_row = [
            arr_row_g[dest_bounds[d] : dest_bounds[d + 1]] for d in range(size)
        ]
        arrival_expert = [
            arr_expert_g[dest_bounds[d] : dest_bounds[d + 1]] for d in range(size)
        ]
        arrival_weight = [
            arr_weight_g[dest_bounds[d] : dest_bounds[d + 1]] for d in range(size)
        ]

        # ---- canonical expert grouping ------------------------------
        # One global sort by (dest, expert, src, row): the key is a total
        # order on assignments, so flat and RBD produce identical buffers.
        t_dest = np.repeat(np.arange(size, dtype=np.int64), n_dest)
        t_local = np.arange(total, dtype=np.int64) - dest_bounds[t_dest]
        canon_key = (
            (t_dest * num_experts + arr_expert_g) * size + arr_src_g
        ) * max_rows + arr_row_g
        o_canon = _argsort_key(canon_key)
        canon_sorted = t_local[o_canon]
        sort_order = [
            canon_sorted[dest_bounds[d] : dest_bounds[d + 1]] for d in range(size)
        ]
        expert_counts = np.bincount(
            t_dest * num_experts + arr_expert_g, minlength=size * num_experts
        ).reshape(size, num_experts)
        tokens_per_local_expert = [
            expert_counts[d][self._experts_by_rank[d]] for d in range(size)
        ]

        # ---- source-side combine program ----------------------------
        # One global sort with the source rank as the outermost key;
        # per-rank views fall out of the (rank-major) group ids.
        k_rank = g_src[o_send1]
        k_tok = token_all[sent_global]
        k_node = node_all[sent_global]
        k_expert = expert_all[sent_global]
        keys = (k_rank * max_tok + k_tok) * num_nodes + k_node
        if rng is not None:
            # RBD sends one row per (rank, token, node) group, so the keys
            # are unique: a single argsort yields both the group index and
            # the fold order.
            order_k = _argsort_key(keys)
            uniq = keys[order_k]
            inv = np.empty(keys.size, dtype=np.int64)
            inv[order_k] = np.arange(keys.size)
            o_fold = order_k
        else:
            uniq, inv = np.unique(keys, return_inverse=True)
            # Fold order (group, expert): experts are unique within a group.
            o_fold = _argsort_key(inv * num_experts + k_expert)
        group_rank = uniq // (max_tok * num_nodes)
        group_bounds = np.concatenate(
            [[0], np.cumsum(np.bincount(group_rank, minlength=size))]
        )
        local_group = inv - group_bounds[k_rank]
        fold_sorted = o_fold - sel_bounds[k_rank[o_fold]]
        g_token = (uniq // num_nodes) % max_tok
        combine_partial = [
            local_group[sel_bounds[r] : sel_bounds[r + 1]] for r in range(size)
        ]
        combine_perm = [
            fold_sorted[sel_bounds[r] : sel_bounds[r + 1]] for r in range(size)
        ]
        partial_token = [
            g_token[group_bounds[r] : group_bounds[r + 1]] for r in range(size)
        ]

        # ---- statistics ---------------------------------------------
        src_node_all = self.rank_to_node[rank_all]
        cross_all = int((node_all != src_node_all).sum())
        cross_pilots = int((src_node_all[g_idx] != node_all[g_idx]).sum())
        hop_tiers = [self.tier_matrix[g_src, g_dest]]
        if rng is not None:
            hop_tiers.append(self.tier_matrix[r_pr, r_dr])  # stage-2 replicas
        rows_by_tier = _rows_by_tier(np.concatenate(hop_tiers))

        return DispatchPlan(
            kind=self.kind,
            size=size,
            num_experts=self.num_experts,
            num_nodes=num_nodes,
            expert_to_rank=self.expert_to_rank,
            rank_to_node=self.rank_to_node,
            pfts=list(pfts),
            send_rows=send_rows,
            send_splits=send_splits,
            recv_splits=recv_splits,
            arrival_src=arrival_src,
            arrival_row=arrival_row,
            arrival_expert=arrival_expert,
            arrival_weight=arrival_weight,
            num_pilot_arrivals=num_pilot_arrivals,
            sort_order=sort_order,
            tokens_per_local_expert=tokens_per_local_expert,
            node_members=self.node_members,
            s2_source_slot=s2_source_slot,
            s2_send_splits=s2_send_splits,
            s2_recv_splits=s2_recv_splits,
            merge_slot=merge_slot,
            merge_perm=merge_perm,
            combine_partial=combine_partial,
            combine_perm=combine_perm,
            partial_token=partial_token,
            total_assignments=total,
            total_pilots=int(g_idx.size),
            cross_node_assignments=cross_all,
            cross_node_pilots=cross_pilots,
            dispatch_rows_by_tier=rows_by_tier,
        )


class FlatPlanner(_PlannerBase):
    """Single uneven all-to-all: every assignment travels to its expert.

    Serves both as the baseline dispatch engine and as the correctness
    oracle for :class:`RBDPlanner`.
    """

    kind = "flat"

    def build(self, pfts: list, *, step: int | None = None) -> DispatchPlan:
        """Compile per-rank PFTs into a flat plan (``step`` is unused)."""
        return self._compile(pfts, rng=None)


class RBDPlanner(_PlannerBase):
    """Two-stage redundancy-bypassing dispatch (§4.2 of the paper).

    Only one *pilot* row per (token, destination node) group crosses the
    inter-node links; replicas are reconstructed from the pilot's data on
    the destination node and exchanged intra-node.
    """

    kind = "rbd"

    def __init__(self, group, num_experts: int, expert_to_rank=None, *, seed: int = 0):
        super().__init__(group, num_experts, expert_to_rank)
        self.seed = seed

    def _rng(self, step: int | None) -> np.random.Generator:
        if step is None:
            return np.random.default_rng(self.seed)
        return np.random.default_rng((self.seed, int(step)))

    def build(self, pfts: list, *, step: int | None = None) -> DispatchPlan:
        """Compile per-rank PFTs into an RBD plan (pilots drawn from ``step``)."""
        return self._compile(pfts, rng=self._rng(step))


class HierarchicalPlanner(_PlannerBase):
    """Two-hop hierarchical dispatch through per-node leaders.

    ColossalAI-style hierarchical all-to-all recast as a planner: tokens are
    (1) gathered intra-node onto a per-node *leader* over the fast
    NVLink/XGMI tier, (2) exchanged in one leader-to-leader alltoallv over
    the inter-node tier, and (3) scattered intra-node to the rank hosting
    the selected expert — with the combine path running the same three hops
    in reverse.  Each ``(source rank, token, destination node)`` group
    crosses the inter-node links exactly once (deterministically — the
    group's lowest PFT row is the one that travels; no RNG, unlike RBD's
    random pilots), so inter-node bytes match RBD while the exchange itself
    is aggregated into one large message per node pair.

    The arrival tables and combine fold orders use the same canonical
    ``(expert, src, row)`` total order as :class:`FlatPlanner`, and the
    destination-leader fold sums each group's contributions in ascending
    expert order — exactly the flat oracle's association order — so the
    combined output is **bit-identical to flat** for every router policy,
    including non-rectangular expert-choice selections.
    """

    kind = "hier"

    def build(self, pfts: list, *, step: int | None = None) -> DispatchPlan:
        """Compile per-rank PFTs into a two-hop plan (``step`` is unused)."""
        return self._compile_hier(pfts)

    # ------------------------------------------------------------------
    def _compile_hier(self, pfts: list) -> DispatchPlan:
        """Build the two-hop plan from one global assignment table.

        All bookkeeping falls out of combined-key argsorts and bincounts
        over flat arrays: the only Python loops run over ranks or nodes,
        never over rows.
        """
        size = self.group.size
        if len(pfts) != size:
            raise ValueError(f"need one PFT per group rank (got {len(pfts)})")
        num_nodes = self.num_nodes
        num_experts = self.num_experts
        mm = int(self.node_group_size.max())
        leader_of, node_leader = self.leader_of, self.node_leader

        # ---- global assignment table --------------------------------
        sizes = np.array([p.num_routed_tokens for p in pfts], dtype=np.int64)
        total = int(sizes.sum())
        offsets = np.concatenate([[0], np.cumsum(sizes)])
        max_rows = int(sizes.max()) + 1
        rank_all = np.repeat(np.arange(size, dtype=np.int64), sizes)
        row_all = np.arange(total, dtype=np.int64) - offsets[rank_all]
        expert_all = np.concatenate([p.expert_ids for p in pfts]).astype(
            np.int64, copy=False
        )
        token_all = np.concatenate([p.token_ids for p in pfts]).astype(
            np.int64, copy=False
        )
        weight_all = np.concatenate([p.combine_weights for p in pfts])
        dest_all = self.expert_to_rank[expert_all]
        dnode_all = self.rank_to_node[dest_all]
        dmember_all = self.member_index[dest_all]
        dleader_all = leader_of[dest_all]
        max_tok = max((p.num_source_tokens for p in pfts), default=0) + 1

        # ---- dedup: one travelling row per (src, token, dest node) --
        # The group key is token-major per rank — the same key the flat
        # planner uses for its combine partial groups, so ``partial_token``
        # is identical across all three plan kinds.
        key_g = (rank_all * max_tok + token_all) * num_nodes + dnode_all
        uniq, inv = np.unique(key_g, return_inverse=True)
        num_groups = uniq.size
        g_rank = uniq // (max_tok * num_nodes)
        g_token = (uniq // num_nodes) % max_tok
        g_node = uniq % num_nodes
        rep_row = np.full(num_groups, np.iinfo(np.int64).max, dtype=np.int64)
        np.minimum.at(rep_row, inv, row_all)
        g_counts = np.bincount(g_rank, minlength=size)
        g_bounds = np.concatenate([[0], np.cumsum(g_counts)])
        # Position of each group within its rank, in (token, node) order —
        # exactly the partial-group id of the flat combine.
        g_localid = np.arange(num_groups, dtype=np.int64) - g_bounds[g_rank]

        # ---- hop A: members gather onto their node leader -----------
        # Send order per source is (dest node, token); every row goes to
        # the node leader (member 0), so the leader's arrival buffer is the
        # member-order concatenation of those per-member runs.
        o_hA = _argsort_key((g_rank * num_nodes + g_node) * max_tok + g_token)
        hA_rows_sorted = rep_row[o_hA]
        hA_send_rows = [
            hA_rows_sorted[g_bounds[r] : g_bounds[r + 1]] for r in range(size)
        ]
        hA_pos = np.empty(num_groups, dtype=np.int64)
        hA_pos[o_hA] = np.arange(num_groups, dtype=np.int64) - g_bounds[g_rank[o_hA]]
        hA_send_splits = []
        for r in range(size):
            send = np.zeros(int(self.node_group_size[r]), dtype=np.int64)
            send[0] = g_counts[r]
            hA_send_splits.append(send)
        hA_recv_splits: list[np.ndarray] = [None] * size  # type: ignore[list-item]
        member_offset = np.zeros(size, dtype=np.int64)
        for members in self.node_members:
            member_offset[members] = np.concatenate(
                [[0], np.cumsum(g_counts[members])[:-1]]
            )
            hA_recv_splits[int(members[0])] = g_counts[members].astype(np.int64)
            for m in members[1:]:
                hA_recv_splits[int(m)] = np.zeros(members.size, dtype=np.int64)
        # Slot of each group in its source-node leader's hop-A buffer.
        a_pos = member_offset[g_rank] + hA_pos

        # ---- hop B: one leader-to-leader exchange -------------------
        g_sleader = leader_of[g_rank]
        g_dleader = node_leader[g_node]
        max_a = int(a_pos.max(initial=0)) + 1
        o_hB = _argsort_key((g_sleader * size + g_dleader) * max_a + a_pos)
        sl_counts = np.bincount(g_sleader, minlength=size)
        sl_bounds = np.concatenate([[0], np.cumsum(sl_counts)])
        hB_all = a_pos[o_hB]
        hB_perm = [hB_all[sl_bounds[r] : sl_bounds[r + 1]] for r in range(size)]
        hB_mat = np.bincount(
            g_sleader * size + g_dleader, minlength=size * size
        ).reshape(size, size)
        hB_send_splits = [hB_mat[r] for r in range(size)]
        hB_recv_splits = [hB_mat[:, r].copy() for r in range(size)]
        # Slot of each group in its dest-node leader's hop-B arrival buffer
        # (chunks concatenate in source-leader rank order).
        o_arrB = _argsort_key((g_dleader * size + g_sleader) * max_a + a_pos)
        dl_bounds = np.concatenate([[0], np.cumsum(np.bincount(g_dleader, minlength=size))])
        b_pos = np.empty(num_groups, dtype=np.int64)
        b_pos[o_arrB] = np.arange(num_groups, dtype=np.int64) - dl_bounds[g_dleader[o_arrB]]

        # ---- hop C: dest leader scatters one row per assignment -----
        # Send order is (dest member, src rank, token, expert): members get
        # contiguous chunks and each chunk matches the destination's
        # arrival-table order below.
        sub = (rank_all * max_tok + token_all) * num_experts + expert_all
        max_sub = int(sub.max(initial=0)) + 1
        o_hC = _argsort_key((dleader_all * mm + dmember_all) * max_sub + sub)
        cl_counts = np.bincount(dleader_all, minlength=size)
        cl_bounds = np.concatenate([[0], np.cumsum(cl_counts)])
        hC_all = b_pos[inv[o_hC]]
        hC_gather = [hC_all[cl_bounds[r] : cl_bounds[r + 1]] for r in range(size)]
        hC_mat = np.bincount(
            dleader_all * mm + dmember_all, minlength=size * mm
        ).reshape(size, mm)
        hC_send_splits = [
            hC_mat[r, : int(self.node_group_size[r])] for r in range(size)
        ]
        n_dest = np.bincount(dest_all, minlength=size)
        hC_recv_splits = []
        for r in range(size):
            recv = np.zeros(int(self.node_group_size[r]), dtype=np.int64)
            recv[0] = n_dest[r]  # everything arrives from the leader
            hC_recv_splits.append(recv)

        # ---- arrival tables -----------------------------------------
        # Arrival order at destination d is (src rank, token, expert) —
        # the order hop C delivers.
        o_arr = _argsort_key(dest_all * max_sub + sub)
        d_bounds = np.concatenate([[0], np.cumsum(n_dest)])
        arr_src_g, arr_row_g = rank_all[o_arr], row_all[o_arr]
        arr_expert_g, arr_weight_g = expert_all[o_arr], weight_all[o_arr]
        arrival_src = [arr_src_g[d_bounds[d] : d_bounds[d + 1]] for d in range(size)]
        arrival_row = [arr_row_g[d_bounds[d] : d_bounds[d + 1]] for d in range(size)]
        arrival_expert = [
            arr_expert_g[d_bounds[d] : d_bounds[d + 1]] for d in range(size)
        ]
        arrival_weight = [
            arr_weight_g[d_bounds[d] : d_bounds[d + 1]] for d in range(size)
        ]

        # ---- canonical expert grouping ------------------------------
        # Same total-order key as the flat planner — this is what makes the
        # expert input buffers (and hence the outputs) bit-identical.
        t_dest = np.repeat(np.arange(size, dtype=np.int64), n_dest)
        t_local = np.arange(total, dtype=np.int64) - d_bounds[t_dest]
        canon_key = (
            (t_dest * num_experts + arr_expert_g) * size + arr_src_g
        ) * max_rows + arr_row_g
        o_canon = _argsort_key(canon_key)
        canon_sorted = t_local[o_canon]
        sort_order = [
            canon_sorted[d_bounds[d] : d_bounds[d + 1]] for d in range(size)
        ]
        expert_counts = np.bincount(
            t_dest * num_experts + arr_expert_g, minlength=size * num_experts
        ).reshape(size, num_experts)
        tokens_per_local_expert = [
            expert_counts[d][self._experts_by_rank[d]] for d in range(size)
        ]

        # ---- combine-side leader fold -------------------------------
        # The reverse-hop-C buffer at each leader is the member-order
        # concatenation of full weighted buffers — i.e. exactly hop-C send
        # order.  Folding its rows onto hop-B slots sorted by (slot,
        # expert) sums every (token, node) group in ascending expert order,
        # the flat oracle's association order.
        posC = np.empty(total, dtype=np.int64)
        posC[o_hC] = np.arange(total, dtype=np.int64) - cl_bounds[dleader_all[o_hC]]
        slot_a = b_pos[inv]
        max_b = int(b_pos.max(initial=0)) + 1
        o_fold = _argsort_key((dleader_all * max_b + slot_a) * num_experts + expert_all)
        fold_perm_all, fold_slot_all = posC[o_fold], slot_a[o_fold]
        hM_fold_perm = [
            fold_perm_all[cl_bounds[r] : cl_bounds[r + 1]] for r in range(size)
        ]
        hM_fold_slot = [
            fold_slot_all[cl_bounds[r] : cl_bounds[r + 1]] for r in range(size)
        ]

        # ---- source-side combine ------------------------------------
        # One returned row per (token, node) group, delivered in hop-A send
        # order; ``combine_partial`` reorders it into group-id order and
        # the token fold then matches flat exactly.
        combine_partial = [
            g_localid[o_hA][g_bounds[r] : g_bounds[r + 1]] for r in range(size)
        ]
        partial_token = [g_token[g_bounds[r] : g_bounds[r + 1]] for r in range(size)]
        empty_i = np.zeros(0, dtype=np.int64)

        # ---- statistics ---------------------------------------------
        src_node_all = self.rank_to_node[rank_all]
        cross_all = int((dnode_all != src_node_all).sum())
        cross_groups = int((g_node != self.rank_to_node[g_rank]).sum())
        rows_by_tier = _rows_by_tier(
            np.concatenate(
                [
                    self.tier_matrix[g_rank, g_sleader],  # hop A
                    self.tier_matrix[g_sleader, g_dleader],  # hop B
                    self.tier_matrix[dleader_all, dest_all],  # hop C
                ]
            )
        )

        zero_node_splits = [
            np.zeros(int(self.node_group_size[r]), dtype=np.int64) for r in range(size)
        ]
        return DispatchPlan(
            kind=self.kind,
            size=size,
            num_experts=num_experts,
            num_nodes=num_nodes,
            expert_to_rank=self.expert_to_rank,
            rank_to_node=self.rank_to_node,
            pfts=list(pfts),
            send_rows=hA_send_rows,
            send_splits=hB_send_splits,
            recv_splits=hB_recv_splits,
            arrival_src=arrival_src,
            arrival_row=arrival_row,
            arrival_expert=arrival_expert,
            arrival_weight=arrival_weight,
            num_pilot_arrivals=[int(n) for n in n_dest],
            sort_order=sort_order,
            tokens_per_local_expert=tokens_per_local_expert,
            node_members=self.node_members,
            s2_source_slot=[empty_i] * size,
            s2_send_splits=zero_node_splits,
            s2_recv_splits=list(zero_node_splits),
            merge_slot=[empty_i] * size,
            merge_perm=[empty_i] * size,
            combine_partial=combine_partial,
            combine_perm=[empty_i] * size,
            partial_token=partial_token,
            hA_send_splits=hA_send_splits,
            hA_recv_splits=hA_recv_splits,
            hB_perm=hB_perm,
            hC_gather=hC_gather,
            hC_send_splits=hC_send_splits,
            hC_recv_splits=hC_recv_splits,
            hM_fold_perm=hM_fold_perm,
            hM_fold_slot=hM_fold_slot,
            total_assignments=total,
            total_pilots=num_groups,
            cross_node_assignments=cross_all,
            cross_node_pilots=cross_groups,
            dispatch_rows_by_tier=rows_by_tier,
        )
