"""Vectorized routing planners: flat all-to-all, redundancy-bypassing, and
hierarchical dispatch.

Every planner compiles per-rank PFTs into a
:class:`~repro.routing.plan.DispatchPlan` — an ordered list of
:class:`~repro.routing.plan.Hop` plus the destination arrival tables — by
whole-array numpy operations over one global assignment table:

* each hop's send order, gather index and reverse fold, and the arrival
  order, fall out of combined-key argsorts (:func:`_argsort_key`),
  bincounts and slicing; scattering each pilot's arrival slot into a
  ``slot_of`` array indexed by global assignment id replaces the legacy
  per-destination dict slot-maps and the O(B²) combine-side linear scan
  with one gather;
* one helper each builds the assignment table
  (:meth:`_PlannerBase._assignments`), a hop's splits from the rows it
  moves (:meth:`_PlannerBase._hop`), the arrival tables with their
  canonical ``(dest, expert, src, row)`` grouping
  (:meth:`_PlannerBase._arrivals`), and the plan with its statistics
  (:meth:`_PlannerBase._plan`).

:class:`FlatPlanner` sends every assignment in one group hop and doubles
as the correctness oracle for :class:`RBDPlanner` (a group hop of pilots,
then an appending node hop of replicas) and :class:`HierarchicalPlanner`
(node gather, leader exchange, node scatter): all three produce
canonically ordered expert input buffers and fold combine partial sums in
the same association order, so every path produces bit-identical outputs.
:data:`HOP_OPS` names every hop's collectives.

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
from repro.routing.plan import DispatchPlan, Hop

#: ``(dispatch op, combine op)`` of every hop, in dispatch order, per plan
#: kind: the op names CommStats records.  The planner writes each pair into
#: its hop; the combine op runs the hop in reverse.
HOP_OPS = {
    "flat": (("dispatch_a2a", "combine_a2a"),),
    "rbd": (("rbd_s1_a2a", "rbd_c2_a2a"), ("rbd_s2_a2a", "rbd_c1_a2a")),
    "hier": (
        ("hier_gather_a2a", "hier_c_scatter_a2a"),
        ("hier_inter_a2a", "hier_c_inter_a2a"),
        ("hier_scatter_a2a", "hier_c_gather_a2a"),
    ),
}


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


def _bounds(counts: np.ndarray) -> np.ndarray:
    """Exclusive prefix sums: ``[0, c0, c0 + c1, ...]``."""
    return np.concatenate([[0], np.cumsum(counts)]).astype(np.int64)


def _split(values: np.ndarray, bounds: np.ndarray) -> list[np.ndarray]:
    """Per-rank views of a rank-major array cut at ``bounds``."""
    b = bounds.tolist()
    return [values[lo:hi] for lo, hi in zip(b[:-1], b[1:])]


@dataclass
class _Assignments:
    """The global assignment table: one entry per (source rank, PFT row),
    rank-major."""

    total: int
    max_rows: int  # bound on PFT row ids
    max_tok: int  # bound on token ids
    rank: np.ndarray
    row: np.ndarray
    token: np.ndarray
    expert: np.ndarray
    weight: np.ndarray
    dest: np.ndarray  # rank hosting the expert
    node: np.ndarray  # node of that rank


class _PlannerBase:
    """Topology bookkeeping and plan-building helpers shared by the planners."""

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
        self._node_width = int(self.node_group_size.max())
        # Pairwise link tiers between group-local ranks (per-hop accounting).
        self.tier_matrix = topo.tier_matrix(np.asarray(group.ranks, dtype=np.int64))
        self._experts_by_rank = [
            np.flatnonzero(self.expert_to_rank == r) for r in range(group.size)
        ]

    def experts_on_rank(self, local_rank: int) -> np.ndarray:
        """Global ids of the experts hosted by a group-local rank."""
        return self._experts_by_rank[local_rank]

    # ------------------------------------------------------------------
    def _assignments(self, pfts: list) -> _Assignments:
        """Concatenate the per-rank PFTs into one global assignment table."""
        if len(pfts) != self.group.size:
            raise ValueError(f"need one PFT per group rank (got {len(pfts)})")
        sizes = np.array([p.num_routed_tokens for p in pfts], dtype=np.int64)
        total = int(sizes.sum())
        rank = np.repeat(np.arange(self.group.size, dtype=np.int64), sizes)
        expert = np.concatenate([p.expert_ids for p in pfts]).astype(
            np.int64, copy=False
        )
        dest = self.expert_to_rank[expert]
        return _Assignments(
            total=total,
            max_rows=int(sizes.max()) + 1,
            max_tok=max((p.num_source_tokens for p in pfts), default=0) + 1,
            rank=rank,
            row=np.arange(total, dtype=np.int64) - _bounds(sizes)[rank],
            token=np.concatenate([p.token_ids for p in pfts]).astype(
                np.int64, copy=False
            ),
            expert=expert,
            weight=np.concatenate([p.combine_weights for p in pfts]),
            dest=dest,
            node=self.rank_to_node[dest],
        )

    def _hop(
        self,
        index: int,
        src: np.ndarray,
        dst: np.ndarray,
        gather: list,
        fold_slot: list,
        fold_perm: list | None = None,
        *,
        per_node: bool = False,
        append: bool = False,
    ) -> Hop:
        """Hop ``index`` of this planner's kind; row ``i`` moves ``src[i] → dst[i]``."""
        size = self.group.size
        width = self._node_width if per_node else size
        peer = self.member_index if per_node else np.arange(size)
        cells = size * width
        send = np.bincount(src * width + peer[dst], minlength=cells).reshape(size, width)
        recv = np.bincount(dst * width + peer[src], minlength=cells).reshape(size, width)
        if per_node:
            widths = self.node_group_size.tolist()
            send_splits = [send[r, :w] for r, w in enumerate(widths)]
            recv_splits = [recv[r, :w] for r, w in enumerate(widths)]
        else:
            send_splits, recv_splits = list(send), list(recv)
        op, combine_op = HOP_OPS[self.kind][index]
        return Hop(
            op, combine_op, per_node, gather, send_splits, recv_splits,
            fold_slot, fold_perm, append,
        )

    def _arrivals(self, a: _Assignments, ids: np.ndarray, n_dest: np.ndarray) -> dict:
        """Arrival tables: assignment ``ids`` in arrival order, ``n_dest`` per rank.

        One global sort by (dest, expert, src, row) groups every buffer:
        the key is a total order on assignments, so every planner produces
        identical expert input buffers.
        """
        size, num_experts = self.group.size, self.num_experts
        bounds = _bounds(n_dest)
        src, row, expert = a.rank[ids], a.row[ids], a.expert[ids]
        t_dest = np.repeat(np.arange(size, dtype=np.int64), n_dest)
        t_local = np.arange(a.total, dtype=np.int64) - bounds[t_dest]
        canon_key = ((t_dest * num_experts + expert) * size + src) * a.max_rows + row
        expert_counts = np.bincount(
            t_dest * num_experts + expert, minlength=size * num_experts
        ).reshape(size, num_experts)
        return dict(
            arrival_src=_split(src, bounds),
            arrival_row=_split(row, bounds),
            arrival_expert=_split(expert, bounds),
            arrival_weight=_split(a.weight[ids], bounds),
            sort_order=_split(t_local[_argsort_key(canon_key)], bounds),
            tokens_per_local_expert=[
                expert_counts[d][self._experts_by_rank[d]] for d in range(size)
            ],
        )

    def _plan(
        self, a: _Assignments, pfts, hops, moves, arrivals, partial_token
    ) -> DispatchPlan:
        """Assemble the plan; ``moves`` holds each hop's ``(src, dst)`` rows."""
        src_node, dst_node = self.rank_to_node[a.rank], a.node
        return DispatchPlan(
            kind=self.kind,
            size=self.group.size,
            num_experts=self.num_experts,
            num_nodes=self.num_nodes,
            expert_to_rank=self.expert_to_rank,
            rank_to_node=self.rank_to_node,
            pfts=list(pfts),
            node_members=self.node_members,
            hops=hops,
            partial_token=partial_token,
            **arrivals,
            total_assignments=a.total,
            total_pilots=int(moves[0][0].size),
            cross_node_assignments=int((dst_node != src_node).sum()),
            cross_node_pilots=sum(
                int((self.rank_to_node[s] != self.rank_to_node[d]).sum())
                for s, d in moves
            ),
            dispatch_rows_by_tier=_rows_by_tier(
                np.concatenate([self.tier_matrix[s, d] for s, d in moves])
            ),
        )

    # ------------------------------------------------------------------
    def _compile(self, pfts: list, rng: np.random.Generator | None) -> DispatchPlan:
        """Compile per-rank PFTs into a plan (``rng=None`` = flat dispatch).

        Works on one global assignment table; pilot selection and every
        per-destination / per-source view fall out of a handful of
        combined-key sorts, bincounts and scatters, so the cost is
        O(B log B) whole-array work with no per-row Python.
        """
        a = self._assignments(pfts)
        size, total = self.group.size, a.total
        num_nodes, num_experts = self.num_nodes, self.num_experts

        # ---- pilot selection ----------------------------------------
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
            keys0 = (a.rank * a.max_tok + a.token) * num_nodes + a.node
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
        g_src, g_dest = a.rank[g_idx], a.dest[g_idx]
        sel_bounds = _bounds(np.bincount(g_src, minlength=size))

        # ---- hop 0 send order ---------------------------------------
        # Send order on each source is a stable sort by destination (rows
        # already ascend); one combined-key argsort covers every rank.
        o_send1 = _argsort_key(g_src * size + g_dest, tiebreak=True)
        sent_global = g_idx[o_send1]

        # ---- pilot arrival order ------------------------------------
        # Arrival order at destination d is (source rank, PFT row): the
        # all-to-all concatenates per-source chunks in rank order and each
        # source sends its rows in ascending-row order — i.e. a stable
        # sort by destination alone, since the sent table is already
        # (src, row)-major.
        order = _argsort_key(g_dest, tiebreak=True)
        p_dest = g_dest[order]
        pilot_counts = np.bincount(p_dest, minlength=size)

        # ---- hop 0 fold: returned rows onto (token, node) partials --
        # One global sort with the source rank as the outermost key;
        # per-rank views fall out of the (rank-major) group ids.
        k_rank = g_src[o_send1]
        keys = (k_rank * a.max_tok + a.token[sent_global]) * num_nodes + a.node[
            sent_global
        ]
        if rng is not None:
            # RBD sends one row per (rank, token, node) group, so the keys
            # are unique: the fold is a pure reorder by group id.
            order_k = _argsort_key(keys)
            uniq = keys[order_k]
            inv = np.empty(keys.size, dtype=np.int64)
            inv[order_k] = np.arange(keys.size)
        else:
            uniq, inv = np.unique(keys, return_inverse=True)
            # Fold order (group, expert): experts are unique within a group.
            o_fold = _argsort_key(inv * num_experts + a.expert[sent_global])
        group_bounds = _bounds(
            np.bincount(uniq // (a.max_tok * num_nodes), minlength=size)
        )
        local_group = inv - group_bounds[k_rank]
        partial_token = _split((uniq // num_nodes) % a.max_tok, group_bounds)
        if rng is None:
            fold0 = (
                _split(local_group[o_fold], sel_bounds),
                _split(o_fold - sel_bounds[k_rank[o_fold]], sel_bounds),
            )
        else:
            fold0 = (_split(local_group, sel_bounds), None)
        hops = [self._hop(0, g_src, g_dest, _split(a.row[sent_global], sel_bounds), *fold0)]
        moves = [(g_src, g_dest)]

        if rng is None:
            return self._plan(
                a, pfts, hops, moves, self._arrivals(a, g_idx[order], pilot_counts),
                partial_token,
            )

        # ---- hop 1: replicas copied off their pilot, intra-node -----
        # ``slot_of`` scatters each pilot's arrival slot to its global
        # assignment id; this is the vectorized index that replaces the
        # seed's per-destination dict slot-maps.
        pil_local = np.arange(p_dest.size, dtype=np.int64) - _bounds(pilot_counts)[p_dest]
        slot_of = np.empty(total, dtype=np.int64)
        slot_of[g_idx[order]] = pil_local
        rep_idx = np.flatnonzero(~mask)
        pil_global = pilot_of_all[rep_idx]
        r_pr, r_dr = a.dest[pil_global], a.dest[rep_idx]
        # Pilot-slot index: one gather through ``slot_of`` instead of a
        # per-replica dict lookup / linear scan.
        r_slot = slot_of[pil_global]
        r_pm = self.member_index[r_pr]  # pilot holder's node-member index
        r_dm = self.member_index[r_dr]  # replica destination's index
        mm = self._node_width
        max_pilots = int(pilot_counts.max()) + 1 if pilot_counts.size else 1

        # Send order on each pilot-holding rank: rows ordered by
        # (destination member, pilot slot) with (src, row) ties kept by the
        # composed position tie-break (the replica table is (src, row)-ordered).
        o_send = _argsort_key(
            (r_pr * (mm + 1) + r_dm) * max_pilots + r_slot, tiebreak=True
        )
        pr_counts = np.bincount(r_pr, minlength=size)
        s_slot, s_rank = r_slot[o_send], r_pr[o_send]

        # Fold on each pilot holder: the reversed hop returns the replica
        # outputs in exactly its send order, so the contributions are
        # [own pilot outputs ++ returned replicas] with target slots
        # [0..P) ++ s_slot; folding them sorted by (slot, expert)
        # reproduces the flat oracle's per-(token, node) summation order
        # (experts are unique within a (rank, slot) group, so the combined
        # key is a total order).
        rep_local = (
            pilot_counts[s_rank]
            + np.arange(s_rank.size, dtype=np.int64)
            - _bounds(pr_counts)[s_rank]
        )
        c_rank = np.concatenate([p_dest, s_rank])
        c_local = np.concatenate([pil_local, rep_local])
        c_slot = np.concatenate([pil_local, s_slot])
        c_expert = np.concatenate([a.expert[g_idx[order]], a.expert[rep_idx[o_send]]])
        o_merge = _argsort_key((c_rank * max_pilots + c_slot) * num_experts + c_expert)
        contrib_bounds = _bounds(pilot_counts + pr_counts)
        hops.append(
            self._hop(
                1, r_pr, r_dr,
                _split(s_slot, _bounds(pr_counts)),
                _split(c_slot[o_merge], contrib_bounds),
                _split(c_local[o_merge], contrib_bounds),
                per_node=True,
                append=True,
            )
        )
        moves.append((r_pr, r_dr))

        # Arrival order on each replica destination: the intra-node
        # all-to-all concatenates sender chunks in member order, each chunk
        # ordered by (slot, src, row) — the same tie-break as the send
        # order, so sender and receiver agree row by row.  Replicas follow
        # the pilots in every destination buffer.
        o_arr = _argsort_key(
            (r_dr * (mm + 1) + r_pm) * max_pilots + r_slot, tiebreak=True
        )
        dr_counts = np.bincount(r_dr, minlength=size)
        n_dest = pilot_counts + dr_counts
        dest_bounds = _bounds(n_dest)
        a_dest = r_dr[o_arr]
        ids = np.empty(total, dtype=np.int64)
        ids[dest_bounds[p_dest] + pil_local] = g_idx[order]
        ids[
            dest_bounds[a_dest]
            + pilot_counts[a_dest]
            + np.arange(a_dest.size, dtype=np.int64)
            - _bounds(dr_counts)[a_dest]
        ] = rep_idx[o_arr]
        return self._plan(
            a, pfts, hops, moves, self._arrivals(a, ids, n_dest), partial_token
        )


class FlatPlanner(_PlannerBase):
    """Single uneven all-to-all: every assignment travels to its expert.

    Serves both as the baseline dispatch engine and as the correctness
    oracle for :class:`RBDPlanner` and :class:`HierarchicalPlanner`.
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
    """Two-level hierarchical dispatch through per-node leaders.

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
        """Compile per-rank PFTs into a three-hop plan (``step`` is unused)."""
        return self._compile_hier(pfts)

    # ------------------------------------------------------------------
    def _compile_hier(self, pfts: list) -> DispatchPlan:
        """Build the three-hop plan from one global assignment table.

        All bookkeeping falls out of combined-key argsorts and bincounts
        over flat arrays: the only Python loops run over ranks or nodes,
        never over rows.
        """
        a = self._assignments(pfts)
        size, total = self.group.size, a.total
        num_nodes, num_experts = self.num_nodes, self.num_experts
        mm = self._node_width
        leader_of = self.leader_of

        # ---- dedup: one travelling row per (src, token, dest node) --
        # The group key is token-major per rank — the same key the flat
        # planner uses for its combine partial groups, so ``partial_token``
        # is identical across all three plan kinds.
        uniq, inv = np.unique(
            (a.rank * a.max_tok + a.token) * num_nodes + a.node, return_inverse=True
        )
        num_groups = uniq.size
        g_rank = uniq // (a.max_tok * num_nodes)
        g_token = (uniq // num_nodes) % a.max_tok
        g_node = uniq % num_nodes
        rep_row = np.full(num_groups, np.iinfo(np.int64).max, dtype=np.int64)
        np.minimum.at(rep_row, inv, a.row)
        g_counts = np.bincount(g_rank, minlength=size)
        g_bounds = _bounds(g_counts)

        # ---- hop A: members gather onto their node leader -----------
        # Send order per source is (dest node, token); every row goes to
        # the node leader (member 0), so the leader's buffer is the
        # member-order concatenation of those per-member runs.  The fold
        # reorders the returned rows into partial-group id order.
        o_hA = _argsort_key((g_rank * num_nodes + g_node) * a.max_tok + g_token)
        g_localid = np.arange(num_groups, dtype=np.int64) - g_bounds[g_rank]
        g_sleader = leader_of[g_rank]
        hops = [
            self._hop(
                0, g_rank, g_sleader,
                _split(rep_row[o_hA], g_bounds),
                _split(g_localid[o_hA], g_bounds),
                per_node=True,
            )
        ]
        hA_pos = np.empty(num_groups, dtype=np.int64)
        hA_pos[o_hA] = np.arange(num_groups, dtype=np.int64) - g_bounds[g_rank[o_hA]]
        member_offset = np.zeros(size, dtype=np.int64)
        for members in self.node_members:
            member_offset[members] = np.cumsum(g_counts[members]) - g_counts[members]
        # Slot of each group in its source-node leader's hop-A buffer.
        a_pos = member_offset[g_rank] + hA_pos

        # ---- hop B: one leader-to-leader exchange -------------------
        g_dleader = self.node_leader[g_node]
        max_a = int(a_pos.max(initial=0)) + 1
        o_hB = _argsort_key((g_sleader * size + g_dleader) * max_a + a_pos)
        hB_perm = _split(a_pos[o_hB], _bounds(np.bincount(g_sleader, minlength=size)))
        hops.append(self._hop(1, g_sleader, g_dleader, hB_perm, hB_perm))
        # Slot of each group in its dest-node leader's hop-B arrival buffer
        # (chunks concatenate in source-leader rank order).
        o_arrB = _argsort_key((g_dleader * size + g_sleader) * max_a + a_pos)
        dl_bounds = _bounds(np.bincount(g_dleader, minlength=size))
        b_pos = np.empty(num_groups, dtype=np.int64)
        b_pos[o_arrB] = np.arange(num_groups, dtype=np.int64) - dl_bounds[g_dleader[o_arrB]]

        # ---- hop C: dest leader scatters one row per assignment -----
        # Send order is (dest member, src rank, token, expert): members get
        # contiguous chunks and each chunk matches the destination's
        # arrival-table order below.
        dleader_all = leader_of[a.dest]
        sub = (a.rank * a.max_tok + a.token) * num_experts + a.expert
        max_sub = int(sub.max(initial=0)) + 1
        o_hC = _argsort_key(
            (dleader_all * mm + self.member_index[a.dest]) * max_sub + sub
        )
        cl_bounds = _bounds(np.bincount(dleader_all, minlength=size))
        # The reversed hop returns each leader its hop-C send order.
        # Folding those rows onto hop-B slots sorted by (slot, expert) sums
        # every (token, node) group in ascending expert order, the flat
        # oracle's association order.
        posC = np.empty(total, dtype=np.int64)
        posC[o_hC] = np.arange(total, dtype=np.int64) - cl_bounds[dleader_all[o_hC]]
        slot_b = b_pos[inv]
        max_b = int(b_pos.max(initial=0)) + 1
        o_fold = _argsort_key((dleader_all * max_b + slot_b) * num_experts + a.expert)
        hops.append(
            self._hop(
                2, dleader_all, a.dest,
                _split(slot_b[o_hC], cl_bounds),
                _split(slot_b[o_fold], cl_bounds),
                _split(posC[o_fold], cl_bounds),
                per_node=True,
            )
        )
        moves = [(g_rank, g_sleader), (g_sleader, g_dleader), (dleader_all, a.dest)]

        # ---- arrival tables -----------------------------------------
        # Arrival order at destination d is (src rank, token, expert) —
        # the order hop C delivers.
        arrivals = self._arrivals(
            a, _argsort_key(a.dest * max_sub + sub), np.bincount(a.dest, minlength=size)
        )
        return self._plan(
            a, pfts, hops, moves, arrivals, _split(g_token, g_bounds)
        )
