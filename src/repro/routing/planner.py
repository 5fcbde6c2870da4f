"""Vectorized routing planners: flat all-to-all, redundancy-bypassing and
hierarchical dispatch as three rows of one spec.

Every plan kind works on ``(source rank, token, destination node)``
groups, and :data:`PLAN_SPECS` writes each kind as one row:

* **group legs** move one row per group — the group's *representative*,
  its first row (after a ``(seed, step)`` shuffle for RBD) — and fold
  back by a pure reorder;
* the **fan-out leg** moves one row per assignment, from wherever the
  group legs left the group onto the rank hosting the assignment's
  expert, and folds back by summing in ``(slot, expert)`` order.  When the
  last group leg already landed the representative on its own expert rank
  (RBD), the representative stays there and the fan-out leg *appends* the
  other rows.

==== ============================================ ===========================
kind group legs                                   fan-out leg
==== ============================================ ===========================
flat none                                         source → experts (group)
rbd  source → representative's expert rank        → experts (node, append)
hier source → source leader (node);               → experts (node)
     source leader → destination leader (group)
==== ============================================ ===========================

One function, :meth:`_PlannerBase._compile`, reads the row and builds the
:class:`~repro.routing.plan.DispatchPlan` — an ordered list of
:class:`~repro.routing.plan.Hop` plus the destination arrival tables — by
whole-array numpy operations over one global assignment table: send
orders, arrival slots and folds fall out of combined-key argsorts
(:func:`_argsort_key`), bincounts and scatters, with no per-row Python.
The arrival tables share the canonical ``(dest, expert, src, row)``
grouping and every fold sums in the flat association order, so all three
kinds produce bit-identical expert inputs and outputs.

Determinism
-----------
Only RBD draws randomness: :meth:`RBDPlanner._scan` derives a fresh
generator from ``(seed, step)`` on every build, so planning the same PFTs
twice with the same ``step`` (or with ``step=None``) picks the same
representatives.  Pass a different ``step`` per training step to
decorrelate the choices over time while keeping every step reproducible.
Hierarchical dispatch takes each group's lowest PFT row.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.cluster.topology import LinkTier
from repro.routing.plan import DispatchPlan, Hop


@dataclass(frozen=True)
class Leg:
    """One hop of a plan spec: its op names, where its rows go, its scope."""

    op: str  # dispatch op name recorded in CommStats
    combine_op: str  # op name of the reversed exchange
    per_node: bool = False  # exchange per node subgroup (else across the group)
    to: str = "expert"  # a key of _LANDING


@dataclass(frozen=True)
class PlanSpec:
    """One plan kind: its group legs, then its fan-out leg."""

    group_legs: tuple
    fan_out: Leg

    @property
    def hops(self) -> tuple:
        """Every leg in dispatch order."""
        return (*self.group_legs, self.fan_out)

    @property
    def append(self) -> bool:
        """The last group leg lands each representative on its expert rank,
        so the fan-out leg keeps it there and appends the other rows."""
        return bool(self.group_legs) and self.group_legs[-1].to == "expert"


#: Every plan kind as one spec row; the only table of hop op names.
PLAN_SPECS = {
    "flat": PlanSpec((), Leg("dispatch_a2a", "combine_a2a")),
    "rbd": PlanSpec(
        (Leg("rbd_s1_a2a", "rbd_c2_a2a"),),
        Leg("rbd_s2_a2a", "rbd_c1_a2a", per_node=True),
    ),
    "hier": PlanSpec(
        (
            Leg("hier_gather_a2a", "hier_c_scatter_a2a", per_node=True, to="source leader"),
            Leg("hier_inter_a2a", "hier_c_inter_a2a", to="dest leader"),
        ),
        Leg("hier_scatter_a2a", "hier_c_gather_a2a", per_node=True),
    ),
}

#: Per assignment, the rank a leg sends its group's row to, by ``Leg.to``.
_LANDING = {
    "expert": lambda planner, a: a.dest,
    "source leader": lambda planner, a: planner.leader_of[a.rank],
    "dest leader": lambda planner, a: planner.node_leader[a.node],
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
        return key.astype(np.uint16).argsort(kind="stable")
    if tiebreak:
        if hi < (2**62) // n:
            key = key * n + np.arange(n, dtype=np.int64)
        else:  # compose would overflow int64; fall back to a stable sort
            return key.argsort(kind="stable")
    return key.argsort()


_ZERO = np.zeros(1, dtype=np.int64)


def _bounds(counts: np.ndarray) -> np.ndarray:
    """Exclusive prefix sums of int64 ``counts``: ``[0, c0, c0 + c1, ...]``."""
    return np.concatenate((_ZERO, counts.cumsum()))


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

    kind: str = ""  # the planner's row of PLAN_SPECS

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
        # Expert ids grouped by hosting rank, ascending within each rank.
        self._expert_order = np.argsort(expert_to_rank, kind="stable")
        self._expert_bounds = _bounds(np.bincount(expert_to_rank, minlength=group.size))
        self._experts_by_rank = _split(self._expert_order, self._expert_bounds)

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
        leg: Leg,
        src: np.ndarray,
        dst: np.ndarray,
        gather: list,
        fold_slot: list,
        fold_perm: list | None = None,
        append: bool = False,
    ) -> Hop:
        """The hop of ``leg``; row ``i`` moves ``src[i] → dst[i]``."""
        size = self.group.size
        width = self._node_width if leg.per_node else size
        peer = self.member_index if leg.per_node else np.arange(size)
        cells = size * width
        send = np.bincount(src * width + peer[dst], minlength=cells).reshape(size, width)
        recv = np.bincount(dst * width + peer[src], minlength=cells).reshape(size, width)
        if leg.per_node:
            widths = self.node_group_size.tolist()
            send_splits = [send[r, :w] for r, w in enumerate(widths)]
            recv_splits = [recv[r, :w] for r, w in enumerate(widths)]
        else:
            send_splits, recv_splits = list(send), list(recv)
        return Hop(
            leg.op, leg.combine_op, leg.per_node, gather, send_splits, recv_splits,
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
        t_dest = a.dest[ids]
        t_local = np.arange(a.total, dtype=np.int64) - bounds[t_dest]
        canon_key = ((t_dest * num_experts + expert) * size + src) * a.max_rows + row
        per_expert = np.bincount(a.expert, minlength=num_experts)
        return dict(
            arrival_src=_split(src, bounds),
            arrival_row=_split(row, bounds),
            arrival_expert=_split(expert, bounds),
            arrival_weight=_split(a.weight[ids], bounds),
            sort_order=_split(t_local[_argsort_key(canon_key)], bounds),
            tokens_per_local_expert=_split(
                per_expert[self._expert_order], self._expert_bounds
            ),
        )

    def _plan(
        self, a: _Assignments, pfts, hops, moves, arrivals, partial_token
    ) -> DispatchPlan:
        """Assemble the plan; ``moves`` holds each hop's ``(src, dst)`` rows."""
        tiers = _rows_by_tier(np.concatenate([self.tier_matrix[s, d] for s, d in moves]))
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
            cross_node_assignments=int((self.rank_to_node[a.rank] != a.node).sum()),
            # A row crosses nodes exactly when its link tier is inter-node
            # or cross-rack.
            cross_node_pilots=tiers.get(LinkTier.INTER_NODE, 0)
            + tiers.get(LinkTier.CROSS_RACK, 0),
            dispatch_rows_by_tier=tiers,
        )

    # ------------------------------------------------------------------
    def _orders(self, src: np.ndarray, dst: np.ndarray):
        """Send order of rows moving ``src[i] → dst[i]``, and arrival slots.

        Each source sends destination by destination, every run in row
        order; each destination receives source by source in rank order —
        member order inside a node — every run in the sender's order.  Both
        are stable combined-key sorts, so sender and receiver agree row by
        row.  Returns ``(send order, arrival slot per row, rows per dest)``.
        """
        size = self.group.size
        o_send = _argsort_key(src * size + dst, tiebreak=True)
        o_recv = _argsort_key(dst * size + src, tiebreak=True)
        n_recv = np.bincount(dst, minlength=size)
        arrival = np.empty(src.size, dtype=np.int64)
        arrival[o_recv] = np.arange(src.size, dtype=np.int64) - _bounds(n_recv)[dst[o_recv]]
        return o_send, arrival, n_recv

    def _compile(self, pfts: list, step: int | None) -> DispatchPlan:
        """Compile per-rank PFTs into a plan of this planner's spec row."""
        a = self._assignments(pfts)
        size, total = self.group.size, a.total
        spec = PLAN_SPECS[self.kind]

        # ---- groups and their representatives -----------------------
        # Scan the rows grouped by (rank, token, node) key; the first row
        # of each key run represents its group.
        key = (a.rank * a.max_tok + a.token) * self.num_nodes + a.node
        order = self._scan(key, step)
        sorted_key = key[order]
        is_first = np.empty(total, dtype=bool)
        is_first[:1] = True
        np.not_equal(sorted_key[1:], sorted_key[:-1], out=is_first[1:])
        rep = order[is_first]
        group = np.empty(total, dtype=np.int64)
        group[order] = is_first.cumsum() - 1
        # Group ids ascend with the key: per source rank, the (token, node)
        # partial groups its final fold sums per token.
        g_rank = a.rank[rep]
        g_bounds = _bounds(np.bincount(g_rank, minlength=size))
        partial = np.arange(rep.size, dtype=np.int64) - g_bounds[g_rank]

        # ---- group legs: one row per group, reorder folds -----------
        # Each row is held on a rank at a buffer position and folds back
        # onto a slot: first its source, PFT row and partial group; after a
        # group leg, where the leg delivered the group's representative.
        held, pos, slot = a.rank, a.row, partial[group]
        hops, moves = [], []
        for leg in spec.group_legs:
            src, dst = held[rep], _LANDING[leg.to](self, a)[rep]
            o_send, arrival, _ = self._orders(src, dst)
            sent = _bounds(np.bincount(src, minlength=size))
            hops.append(
                self._hop(
                    leg, src, dst,
                    _split(pos[rep][o_send], sent), _split(slot[rep][o_send], sent),
                )
            )
            moves.append((src, dst))
            held, pos = dst[group], arrival[group]
            slot = pos

        # ---- fan-out leg: one row per assignment, sum folds ---------
        # Each assignment contributes once to its holder's fold: kept in
        # place (an appending leg's representatives) or sent and returned.
        append = spec.append
        kept = rep if append else rep[:0]
        travels = np.ones(total, dtype=bool)
        travels[kept] = False
        fan = travels.nonzero()[0]
        src, dst = held[fan], a.dest[fan]
        o_send, arrival, n_recv = self._orders(src, dst)
        n_held, n_sent = np.bincount(held, minlength=size), np.bincount(src, minlength=size)
        n_kept = n_held - n_sent
        sent = _bounds(n_sent)
        s_src, s_fan = src[o_send], fan[o_send]
        # The reversed leg returns each sender its send order after the
        # kept rows, which stay at their buffer rows; the fold sums them
        # onto their slots in (slot, expert) order — the flat association
        # order, and a total order because experts are unique in a group.
        local = pos.copy()
        local[s_fan] = n_kept[s_src] + np.arange(fan.size, dtype=np.int64) - sent[s_src]
        width = int(slot.max(initial=0)) + 1
        o_fold = _argsort_key((held * width + slot) * self.num_experts + a.expert)
        contrib = _bounds(n_held)
        hops.append(
            self._hop(
                spec.fan_out, src, dst, _split(pos[s_fan], sent),
                _split(slot[o_fold], contrib), _split(local[o_fold], contrib), append,
            )
        )
        moves.append((src, dst))

        # ---- arrival tables: kept rows, then the fan-out's arrivals --
        n_dest = n_kept + n_recv
        dest = _bounds(n_dest)
        ids = np.empty(total, dtype=np.int64)
        ids[dest[held[kept]] + pos[kept]] = kept
        ids[dest[dst] + n_kept[dst] + arrival] = fan
        arrivals = self._arrivals(a, ids, n_dest)
        return self._plan(a, pfts, hops, moves, arrivals, _split(a.token[rep], g_bounds))

    def _scan(self, key: np.ndarray, step: int | None) -> np.ndarray:
        """Rows grouped by ``key``, each group's rows ascending: the first
        row of a group is its lowest."""
        return _argsort_key(key, tiebreak=True)

    def build(self, pfts: list, *, step: int | None = None) -> DispatchPlan:
        """Compile per-rank PFTs into a plan (``step`` salts RBD's draw)."""
        return self._compile(pfts, step)


class FlatPlanner(_PlannerBase):
    """Single uneven all-to-all: every assignment travels to its expert.

    Serves both as the baseline dispatch engine and as the correctness
    oracle for :class:`RBDPlanner` and :class:`HierarchicalPlanner`.
    """

    kind = "flat"


class RBDPlanner(_PlannerBase):
    """Two-stage redundancy-bypassing dispatch (§4.2 of the paper).

    Only one *pilot* row per (token, destination node) group — a uniform
    member, drawn from ``(seed, step)`` — crosses the inter-node links, to
    the rank of its own expert; that rank copies it to the group's other
    experts over the intra-node links.
    """

    kind = "rbd"

    def __init__(self, group, num_experts: int, expert_to_rank=None, *, seed: int = 0):
        super().__init__(group, num_experts, expert_to_rank)
        self.seed = seed

    def _scan(self, key: np.ndarray, step: int | None) -> np.ndarray:
        """The rows permuted by a draw from ``(seed, step)``, then grouped:
        the first row of a group is a uniform member."""
        salt = self.seed if step is None else (self.seed, int(step))
        perm = np.random.default_rng(salt).permutation(key.size)
        return perm[super()._scan(key[perm], step)]


class HierarchicalPlanner(_PlannerBase):
    """Two-level hierarchical dispatch through per-node leaders.

    ColossalAI-style hierarchical all-to-all recast as a planner: each
    group's lowest PFT row is (1) gathered onto its node *leader* over the
    fast intra-node tier, (2) exchanged in one leader-to-leader alltoallv
    over the inter-node tier, and (3) fanned out from the destination
    leader to every expert of its group — the combine path runs the three
    hops in reverse.  Inter-node bytes match RBD, with no RNG, while the
    exchange is aggregated into one large message per node pair.
    """

    kind = "hier"
