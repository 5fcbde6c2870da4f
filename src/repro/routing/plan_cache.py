"""Plan caching + weight-only replanning for the dispatch pipeline.

Between consecutive training steps the routing assignment multiset is
usually nearly identical, yet the pipeline recompiles a full
:class:`~repro.routing.plan.DispatchPlan` (and re-runs the batched PFT
builder) from scratch every step.  This module makes the steady state
cheap without changing a single output bit:

* :class:`StepSignature` / :func:`decision_fingerprint` — a cheap,
  **order-insensitive** fingerprint of one step's per-rank assignment
  multiset, computed from the stacked
  :class:`~repro.routing.policies.RoutingDecision` arrays.  Two digests are
  kept: a *structure* digest over ``(rank, token, expert, dropped)`` keys
  and a *weights* digest that additionally mixes in the raw score bits, so
  "same tokens, drifted gate probabilities" is distinguishable from "same
  everything".  Digests are commutative (wraparound sums of a splitmix64
  mix), so assignment order never matters; every cache hit still verifies
  the stored arrays exactly, so a digest collision can never alias two
  different steps.
* :class:`PlanCache` — a bounded LRU keyed on ``(dispatch kind, capacity,
  placement, RNG salt, batch layout, fingerprint)``.  Resolution tiers,
  cheapest first:

  1. **exact hit** — the stored PFTs + plan (+ fused executor) are reused
     outright;
  2. **weight-only patch** — the structure digest matches but scores
     drifted: the previous plan's arrival-weight tables, the PFT combine
     weights, and the executor's fold weights are re-gathered from the new
     scores through precomputed index maps; splits, arrival tables, and
     sort orders are reused by reference.  Guarded by the no-capacity-drop
     invariant (weights can only change *structure* through the capacity
     rule, so any rank whose densest (rank, expert) segment could overflow
     falls through);
  3. **cold build** — everything else: the batched PFT builder and the
     planner, exactly as a cache-less step runs them.

* :class:`ExecProgram` — a kind-independent fused step executor, compiled
  once per cache entry *before* the entry first executes: what a plan
  compiles to, cold or warm.  Dispatch becomes one global gather in the
  canonical ``(dest, expert, src, token)`` order; combine becomes one
  scatter into fold order + weight multiply followed by two
  position-strided segmented folds that replay ``np.add.at``'s sequential
  accumulation order exactly (``reduceat`` does **not** accumulate
  sequentially and is therefore unusable here); the step's collectives
  are :class:`~repro.comm.process_group.CommEvent` records priced from the
  plan's own :meth:`~repro.routing.plan.DispatchPlan.comm_schedule`
  through the same accounting the executing collectives use (the network
  model is deterministic, so the derived seconds/bytes/tiers are exactly
  what the engine would record).
  Every plan kind (flat, RBD, hierarchical) folds each token's output over
  the same association tree — per ``(token, node)`` partial groups in
  node-ascending order, contributions expert-ascending within a group —
  which is what lets one executor serve all three bit-identically.

Wiring lives in :class:`repro.runtime.StepRuntime` (``plan_cache=``);
hit/weight-patch/miss counters surface on
:class:`~repro.runtime.step.StepTrace` and
:class:`~repro.routing.telemetry.RoutingTelemetry`, and the measured
hit-rate feeds :mod:`repro.tuner.calibration` so the tuner prices
steady-state workloads honestly.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass, replace

import numpy as np

from repro.obs import tracer as obs
from repro.routing.plan import DispatchPlan
from repro.xmoe.pft import PFT

__all__ = [
    "ExecProgram",
    "PlanCache",
    "Resolution",
    "StepSignature",
    "decision_fingerprint",
]

_U64 = np.uint64


def _splitmix64(x: np.ndarray) -> np.ndarray:
    """Vectorized splitmix64 finalizer (a strong 64-bit mixing function)."""
    x = x + _U64(0x9E3779B97F4A7C15)
    x = (x ^ (x >> _U64(30))) * _U64(0xBF58476D1CE4E5B9)
    x = (x ^ (x >> _U64(27))) * _U64(0x94D049BB133111EB)
    return x ^ (x >> _U64(31))


@dataclass
class StepSignature:
    """Stacked per-step routing arrays plus their multiset fingerprints.

    The stacked arrays are what the cache verifies (and patches from); the
    two digests are what it indexes by.  ``keys`` packs each assignment as
    ``((rank * token_base + token) * num_experts + expert) * 2 + dropped``
    in one ``uint64`` — injective for every layout the runtime produces —
    and both digests are wraparound sums over a splitmix64 mix of those
    keys, so they are invariant to assignment order (the multiset
    fingerprint the cache needs) while exact-array verification on every
    hit keeps collisions harmless.
    """

    tokens: np.ndarray
    experts: np.ndarray
    scores: np.ndarray
    dropped: np.ndarray
    rank_offsets: np.ndarray  # [R + 1] stacked slice bounds per rank
    tokens_per_rank: tuple
    num_experts: int
    token_base: int
    keys: np.ndarray  # uint64 composite key per assignment
    structure_digest: int
    weight_digest: int

    @classmethod
    def from_decisions(cls, decisions, tokens_per_rank) -> "StepSignature":
        """Stack one step's per-rank decisions and fingerprint the multiset."""
        tokens_per_rank = tuple(int(t) for t in tokens_per_rank)
        if len(decisions) != len(tokens_per_rank):
            raise ValueError("one decision per rank required")
        counts = np.array([d.token_ids.size for d in decisions], dtype=np.int64)
        offsets = np.concatenate([[0], np.cumsum(counts)])
        tok = _concat_i64([d.token_ids for d in decisions])
        exp = _concat_i64([d.expert_ids for d in decisions])
        scores = _concat_f64([d.scores for d in decisions])
        dropped = (
            np.concatenate([np.asarray(d.dropped, dtype=bool) for d in decisions])
            if counts.sum()
            else np.zeros(0, dtype=bool)
        )
        num_experts = int(decisions[0].num_experts) if decisions else 0
        token_base = max(1, max(tokens_per_rank, default=0))
        rank_of = np.repeat(np.arange(len(decisions), dtype=np.int64), counts)
        keys = (
            ((rank_of.astype(_U64) * _U64(token_base) + tok.astype(_U64))
             * _U64(max(1, num_experts)) + exp.astype(_U64)) * _U64(2)
            + dropped.astype(_U64)
        )
        mixed = _splitmix64(keys)
        salt = _splitmix64(
            np.array([keys.size, token_base, num_experts], dtype=_U64)
        )
        structure = int(mixed.sum(dtype=_U64) ^ salt[0] ^ salt[1] ^ salt[2])
        wmixed = _splitmix64(keys ^ scores.view(_U64) ^ _U64(0xA5A5A5A5A5A5A5A5))
        weights = int(wmixed.sum(dtype=_U64) ^ salt[0])
        return cls(
            tokens=tok,
            experts=exp,
            scores=scores,
            dropped=dropped,
            rank_offsets=offsets,
            tokens_per_rank=tokens_per_rank,
            num_experts=num_experts,
            token_base=token_base,
            keys=keys,
            structure_digest=structure,
            weight_digest=weights,
        )

    def structure_matches(self, other: "StepSignature") -> bool:
        """Exact array-order equality of everything except the scores."""
        return (
            self.tokens_per_rank == other.tokens_per_rank
            and np.array_equal(self.rank_offsets, other.rank_offsets)
            and np.array_equal(self.tokens, other.tokens)
            and np.array_equal(self.experts, other.experts)
            and np.array_equal(self.dropped, other.dropped)
        )

    def matches(self, other: "StepSignature") -> bool:
        """Exact equality (collision-proofing behind the digests)."""
        return self.structure_matches(other) and np.array_equal(
            self.scores, other.scores
        )


def decision_fingerprint(decisions, tokens_per_rank) -> tuple[int, int]:
    """The ``(structure, weights)`` multiset digests of one step's routing."""
    sig = StepSignature.from_decisions(decisions, tokens_per_rank)
    return sig.structure_digest, sig.weight_digest


def _concat_i64(arrays) -> np.ndarray:
    total = sum(a.size for a in arrays)
    if total == 0:
        return np.zeros(0, dtype=np.int64)
    return np.concatenate([np.asarray(a, dtype=np.int64) for a in arrays])


def _concat_f64(arrays) -> np.ndarray:
    total = sum(a.size for a in arrays)
    if total == 0:
        return np.zeros(0, dtype=np.float64)
    return np.concatenate([np.asarray(a, dtype=np.float64) for a in arrays])


# ----------------------------------------------------------------------
# The fused step executor.
# ----------------------------------------------------------------------
@dataclass
class ExecProgram:
    """A fused, kind-independent dispatch + combine program for one plan.

    Compiled once per cache entry from the planned PFT contents; every run
    afterwards is a handful of whole-array gathers and position-strided
    segmented folds, bit-identical to driving the full engine (the test
    suite checks every program it compiles against the plan's own arrival
    tables and partial groups).
    """

    tok_off: np.ndarray  # [R + 1] stacked token-row offsets per rank
    dest_off: np.ndarray  # [R + 1] canonical-slot offsets per dest rank
    disp_gather: np.ndarray  # stacked token row per canonical slot
    fold_scatter: np.ndarray  # fold slot per canonical slot
    fold_w: np.ndarray  # combine weight per fold slot
    fold_pft_rows: np.ndarray  # global PFT row per fold slot (weight patching)
    num_groups: int  # (src, token, node) partial groups
    l1_passes: list  # [(group idx, fold slot)] per within-group position
    l2_passes: list  # [(output row, group idx)] per within-token position
    comm_events: tuple = ()  # CommEvents priced from the plan's comm schedule

    @classmethod
    def build(
        cls,
        pfts: list,
        plan: DispatchPlan,
        tokens_per_rank,
        *,
        comm_events=(),
    ) -> "ExecProgram":
        """Compile the fused program from the planned PFTs.

        All index maps derive from the post-capacity PFT contents (the
        planner's own inputs) and the plan's expert placement.
        """
        num_ranks = len(pfts)
        expert_to_rank = np.asarray(plan.expert_to_rank, dtype=np.int64)
        rank_to_node = np.asarray(plan.rank_to_node, dtype=np.int64)
        tokens_per_rank = [int(t) for t in tokens_per_rank]
        tok_off = np.concatenate([[0], np.cumsum(tokens_per_rank)]).astype(np.int64)

        sizes = np.array([p.num_routed_tokens for p in pfts], dtype=np.int64)
        src = np.repeat(np.arange(num_ranks, dtype=np.int64), sizes)
        tok = _concat_i64([p.token_ids for p in pfts])
        exp = _concat_i64([p.expert_ids for p in pfts])
        wgt = _concat_f64([p.combine_weights for p in pfts])
        rows = tok.size
        dest = expert_to_rank[exp] if rows else np.zeros(0, dtype=np.int64)
        node = rank_to_node[dest] if rows else np.zeros(0, dtype=np.int64)

        num_experts = int(expert_to_rank.size)
        token_base = max(1, max(tokens_per_rank, default=0))
        num_nodes = int(rank_to_node.max()) + 1 if rank_to_node.size else 1

        # Canonical (dest, expert, src, token) total order — the order of
        # every destination's expert input buffer for every plan kind.
        canon_key = ((dest * num_experts + exp) * num_ranks + src) * token_base + tok
        canon = np.argsort(canon_key, kind="stable")
        dest_counts = np.bincount(dest, minlength=num_ranks)
        dest_off = np.concatenate([[0], np.cumsum(dest_counts)]).astype(np.int64)
        disp_gather = tok_off[src[canon]] + tok[canon]

        # Fold order (src, token, node, expert): the shared combine
        # association tree of the flat / RBD / hierarchical slow paths.
        group_key = (src * token_base + tok) * num_nodes + node
        fold_perm = np.argsort(group_key * num_experts + exp, kind="stable")
        fold_pos = np.empty(rows, dtype=np.int64)
        fold_pos[fold_perm] = np.arange(rows, dtype=np.int64)
        fold_scatter = fold_pos[canon]
        fold_w = wgt[fold_perm]
        gk_sorted = group_key[fold_perm]

        l1_passes, grp_starts = _segment_passes(gk_sorted)
        num_groups = grp_starts.size

        # Token-level fold: partial groups collapse per (src, token).
        tok_key = gk_sorted[grp_starts] // num_nodes if num_groups else gk_sorted[:0]
        l2_raw, tseg_starts = _segment_passes(tok_key)
        out_rows = (
            tok_off[tok_key[tseg_starts] // token_base]
            + tok_key[tseg_starts] % token_base
        )
        l2_passes = [(out_rows[sel], start) for sel, start in l2_raw]

        # The first pass of each fold always covers every segment; when its
        # target rows are exactly 0..n-1 a plain slice replaces the fancy
        # index — same elementwise adds, about half the wall-clock on the
        # dominant pass.
        if l1_passes and l1_passes[0][0].size == num_groups:
            l1_passes[0] = (slice(None), l1_passes[0][1])
        if l2_passes and np.array_equal(
            l2_passes[0][0], np.arange(int(tok_off[-1]))
        ):
            l2_passes[0] = (slice(None), l2_passes[0][1])

        return cls(
            tok_off=tok_off,
            dest_off=dest_off,
            disp_gather=disp_gather,
            fold_scatter=fold_scatter,
            fold_w=fold_w,
            fold_pft_rows=fold_perm,
            num_groups=int(num_groups),
            l1_passes=l1_passes,
            l2_passes=l2_passes,
            comm_events=tuple(comm_events),
        )

    # ------------------------------------------------------------------
    def run_dispatch(self, stacked_tokens: np.ndarray) -> list:
        """One global gather: per-dest expert input buffers in canonical order.

        ``stacked_tokens`` is the ``(total_tokens, hidden)`` stack of every
        rank's batch; the result views are slices of one freshly gathered
        buffer, bit-identical to the engine's dispatch + canonical sort.
        """
        big = stacked_tokens[self.disp_gather]
        return [
            big[self.dest_off[d] : self.dest_off[d + 1]]
            for d in range(self.dest_off.size - 1)
        ]

    def run_combine(self, expert_outputs: list, *, workspace=None) -> list:
        """Fused weighted combine: scatter → two strided sequential folds.

        ``expert_outputs[d]`` is destination ``d``'s expert output buffer
        in canonical order; each is scattered straight into fold order
        (the stack of them is only a row permutation away, so it is never
        materialized).  Both folds replay the slow path's ``np.add.at``
        association order exactly: contributions fold into per-(token,
        node) partials expert-ascending, partials fold into tokens
        node-ascending, each accumulation starting from ``+0.0``.
        ``workspace`` (a :class:`repro.runtime.StepWorkspace`-like object
        with ``scratch``) optionally supplies the fold arenas.
        """
        hidden, dtype = expert_outputs[0].shape[1], expert_outputs[0].dtype
        vals_shape = (self.fold_scatter.size, hidden)
        partials_shape = (self.num_groups, hidden)
        if workspace is not None:
            vals = workspace.scratch("fused_fold_vals", vals_shape, dtype=dtype)
            partials = workspace.scratch("fused_fold_partials", partials_shape, dtype=dtype)
        else:
            vals = np.empty(vals_shape, dtype=dtype)
            partials = np.empty(partials_shape, dtype=dtype)
        for d, buf in enumerate(expert_outputs):
            vals[self.fold_scatter[self.dest_off[d] : self.dest_off[d + 1]]] = buf
        vals *= self.fold_w[:, None]
        partials.fill(0.0)
        for grp_sel, fold_rows in self.l1_passes:
            partials[grp_sel] += vals[fold_rows]
        out = np.zeros((int(self.tok_off[-1]), hidden), dtype=dtype)
        for out_sel, grp_rows in self.l2_passes:
            out[out_sel] += partials[grp_rows]
        return [
            out[self.tok_off[r] : self.tok_off[r + 1]]
            for r in range(self.tok_off.size - 1)
        ]

    def replay_comm(self, stats) -> None:
        """Record the step's derived collectives into ``CommStats``.

        The network model is deterministic (congestion sampling off), so
        the events priced from the plan's schedule are exactly what the
        collectives would record; recording them keeps byte/tier/seconds
        accounting honest while skipping the data movement itself.  Each
        event records inside its own ``comm`` span carrying the
        participating ranks, so traces keep their per-rank comm tracks and
        byte tables on fused steps.
        """
        for event in self.comm_events:
            with obs.span(event.op, "comm", ranks=event.ranks):
                stats.record(event)

    def with_fold_weights(self, pft_weights: np.ndarray) -> "ExecProgram":
        """A weight-patched copy: new fold weights, shared index maps."""
        return replace(self, fold_w=pft_weights[self.fold_pft_rows])


def _segment_passes(sorted_keys: np.ndarray):
    """Position-strided passes over contiguous equal-key segments.

    Returns ``(passes, starts)`` where ``passes[j]`` is ``(segment index,
    source row)`` for every segment longer than ``j``.  Driving
    ``out[seg] += vals[row]`` for ``j = 0, 1, …`` accumulates each
    segment's rows in exactly ``np.add.at``'s sequential order (numpy's
    ``reduceat`` does not, which is why it cannot be used here).
    """
    n = sorted_keys.size
    if n == 0:
        return [], np.zeros(0, dtype=np.int64)
    boundaries = np.concatenate([[True], sorted_keys[1:] != sorted_keys[:-1]])
    starts = np.flatnonzero(boundaries).astype(np.int64)
    lengths = np.diff(np.concatenate([starts, [n]]))
    passes = []
    for j in range(int(lengths.max())):
        sel = np.flatnonzero(lengths > j).astype(np.int64)
        passes.append((sel, starts[sel] + j))
    return passes, starts


# ----------------------------------------------------------------------
# The cache proper.
# ----------------------------------------------------------------------
@dataclass
class _CacheEntry:
    """One cached step: signature, artifacts, and patching index maps."""

    key: tuple
    context: tuple
    sig: StepSignature
    pfts: list
    plan: DispatchPlan
    exec_program: ExecProgram | None
    pft_stack_idx: np.ndarray | None  # stacked-signature index per PFT row
    pft_row_offsets: np.ndarray | None
    arrival_stack_idx: list | None  # per dest: stacked index per arrival slot


@dataclass
class Resolution:
    """What one :meth:`PlanCache.resolve` call produced.

    ``outcome`` is ``"hit"`` (exact reuse), ``"weight_patch"`` (same
    structure, re-gathered weights) or ``"miss"`` (cold build).
    ``exec_program`` is ``None`` while the entry's fused executor has not
    been compiled (a fresh miss, or a weight patch of such an entry); the
    runtime compiles it (:meth:`PlanCache.attach_exec`) before the step
    executes.
    """

    pfts: list
    plan: DispatchPlan
    exec_program: ExecProgram | None
    outcome: str
    entry: _CacheEntry


class PlanCache:
    """Bounded LRU of dispatch plans with weight-only patching.

    ``maxsize`` bounds the number of cached steps.  Counters (``hits`` /
    ``weight_patches`` / ``misses`` / ``evictions``) tally every
    resolution; ``stats()`` snapshots them.  Every cached or patched
    artifact is bit-identical to a cold build — exact hits verify the
    stored arrays, and weight patches re-gather through index maps that are
    only built when the capacity rule cannot reorder anything.
    """

    def __init__(self, maxsize: int = 8):
        if maxsize <= 0:
            raise ValueError("maxsize must be positive")
        self.maxsize = int(maxsize)
        self._entries: OrderedDict[tuple, _CacheEntry] = OrderedDict()
        self._by_structure: dict[tuple, _CacheEntry] = {}
        self.hits = 0
        self.weight_patches = 0
        self.misses = 0
        self.evictions = 0

    # ------------------------------------------------------------------
    @property
    def lookups(self) -> int:
        """Total resolutions served."""
        return self.hits + self.weight_patches + self.misses

    @property
    def hit_rate(self) -> float:
        """Fraction of resolutions that skipped the plan build entirely."""
        total = self.lookups
        if total == 0:
            return 0.0
        return (self.hits + self.weight_patches) / total

    def stats(self) -> dict:
        """Counter snapshot (what StepTrace and the benchmark record)."""
        return {
            "hits": self.hits,
            "weight_patches": self.weight_patches,
            "misses": self.misses,
            "evictions": self.evictions,
            "lookups": self.lookups,
            "hit_rate": round(self.hit_rate, 4),
        }

    def __len__(self) -> int:
        return len(self._entries)

    # ------------------------------------------------------------------
    def resolve(
        self,
        decisions,
        *,
        dispatcher,
        capacity,
        tokens_per_rank,
        row_signature=(),
        step=None,
    ) -> Resolution:
        """Resolve one step's routing to (PFTs, plan, executor, outcome).

        ``dispatcher`` is the :class:`~repro.routing.engine.PlanDispatcher`
        whose planner defines the plan kind, placement, and (for RBD) the
        step-salted RNG; ``row_signature`` keys anything the cached
        executor's derived comm events depend on beyond the plan's splits
        (hidden width and payload dtype).
        """
        from repro.routing.policies import RoutingDecision

        planner = dispatcher.planner
        with obs.span("cache.fingerprint", "plan_cache"):
            sig = StepSignature.from_decisions(decisions, tokens_per_rank)
            context = self._context_key(planner, capacity, sig, row_signature, step)
            key = context + (sig.structure_digest, sig.weight_digest)

        entry = self._entries.get(key)
        if entry is not None and entry.sig.matches(sig):
            self.hits += 1
            self._entries.move_to_end(key)
            return Resolution(entry.pfts, entry.plan, entry.exec_program, "hit", entry)

        source = self._by_structure.get(context + (sig.structure_digest,))
        if (
            source is not None
            and source.pft_stack_idx is not None
            and source.sig.structure_matches(sig)
        ):
            with obs.span("cache.weight_patch", "plan_cache"):
                patched = self._weight_patch(source, sig, key, context)
            self.weight_patches += 1
            return Resolution(
                patched.pfts, patched.plan, patched.exec_program, "weight_patch", patched
            )

        with obs.span("cache.cold_build", "plan_cache"):
            pfts = RoutingDecision.to_pfts(list(decisions), capacity)
            plan = dispatcher.plan(pfts, step=step)
            entry = self._store(key, context, sig, pfts, plan, capacity)
        self.misses += 1
        return Resolution(pfts, plan, None, "miss", entry)

    def attach_exec(self, entry: _CacheEntry, *, group, tokens_per_rank, row_bytes):
        """Compile and attach the entry's fused executor before it first runs.

        The program's comm events are priced from the plan's
        :meth:`~repro.routing.plan.DispatchPlan.comm_schedule` over
        ``group`` (the dispatcher's process group) at ``row_bytes`` per
        payload row — the accounting the engine's collectives use, with no
        data moved.  The program attaches only once fully built; a compile
        that raises drops the entry, so a retry is a clean miss rather
        than a hit on a plan that cannot compile.
        """
        if entry.exec_program is None:
            try:
                comm_events = tuple(
                    group.account_alltoallv(
                        splits, row_bytes, op_name=op, members=members
                    )
                    for op, members, splits in entry.plan.comm_schedule()
                )
                entry.exec_program = ExecProgram.build(
                    entry.pfts, entry.plan, tokens_per_rank, comm_events=comm_events
                )
            except BaseException:
                self._forget(entry)
                raise
        return entry.exec_program

    # ------------------------------------------------------------------
    def _context_key(self, planner, capacity, sig, row_signature, step):
        kind = planner.kind
        placement = hash(
            (
                np.asarray(planner.expert_to_rank).tobytes(),
                np.asarray(planner.rank_to_node).tobytes(),
            )
        )
        if kind == "rbd":
            # RBD pilot selection draws from default_rng((seed, step)):
            # plans are reusable only within one (seed, step) salt.
            salt = (getattr(planner, "seed", 0), step)
        else:
            salt = None
        return (
            kind,
            None if capacity is None else int(capacity),
            placement,
            salt,
            sig.tokens_per_rank,
            sig.num_experts,
            tuple(row_signature),
        )

    def _insert(self, entry: _CacheEntry) -> _CacheEntry:
        """Index ``entry`` as most recent, then evict down to ``maxsize``."""
        self._entries[entry.key] = entry
        self._entries.move_to_end(entry.key)
        self._by_structure[entry.context + (entry.sig.structure_digest,)] = entry
        while len(self._entries) > self.maxsize:
            self._forget(next(iter(self._entries.values())))
            self.evictions += 1
        return entry

    def _forget(self, entry: _CacheEntry) -> None:
        """Remove ``entry`` from the LRU and the structure index."""
        if self._entries.get(entry.key) is entry:
            del self._entries[entry.key]
        skey = entry.context + (entry.sig.structure_digest,)
        if self._by_structure.get(skey) is entry:
            del self._by_structure[skey]

    # ------------------------------------------------------------------
    def _store(self, key, context, sig, pfts, plan, capacity) -> _CacheEntry:
        kept_idx = np.flatnonzero(~sig.dropped)

        num_ranks = len(pfts)
        num_experts = max(1, sig.num_experts)
        rank_of = np.repeat(
            np.arange(num_ranks, dtype=np.int64), np.diff(sig.rank_offsets)
        )
        src_kept = rank_of[kept_idx]
        # The densest (rank, expert) segment decides whether the capacity
        # rule could have reordered or dropped anything.
        seg_max = np.bincount(src_kept * num_experts + sig.experts[kept_idx]).max(
            initial=0
        )

        sizes = np.array([p.num_routed_tokens for p in pfts], dtype=np.int64)
        pft_row_offsets = np.concatenate([[0], np.cumsum(sizes)]).astype(np.int64)
        pft_stack_idx = None
        arrival_stack_idx = None
        capacity_safe = capacity is None or int(seg_max) <= int(capacity)
        if capacity_safe and int(pft_row_offsets[-1]) == kept_idx.size:
            # PFT rows are the kept assignments sorted by (rank, expert,
            # token) — true exactly when the capacity rule dropped nothing,
            # which is what makes weight-only patching structurally safe.
            order = np.argsort(
                (src_kept * num_experts + sig.experts[kept_idx]) * sig.token_base
                + sig.tokens[kept_idx],
                kind="stable",
            )
            pft_stack_idx = kept_idx[order]
            arrival_stack_idx = [
                pft_stack_idx[pft_row_offsets[plan.arrival_src[d]] + plan.arrival_row[d]]
                for d in range(num_ranks)
            ]

        return self._insert(
            _CacheEntry(
                key=key,
                context=context,
                sig=sig,
                pfts=pfts,
                plan=plan,
                exec_program=None,
                pft_stack_idx=pft_stack_idx,
                pft_row_offsets=pft_row_offsets,
                arrival_stack_idx=arrival_stack_idx,
            )
        )

    # ------------------------------------------------------------------
    def _weight_patch(self, source, sig, key, context) -> _CacheEntry:
        """Same structure, drifted scores: re-gather every weight table."""
        new_weights = sig.scores[source.pft_stack_idx]
        offsets = source.pft_row_offsets
        pfts = [
            PFT._trusted(
                p.token_ids,
                p.expert_ids,
                p.tokens_per_expert,
                new_weights[offsets[r] : offsets[r + 1]],
                p.num_source_tokens,
                p.dropped_assignments,
            )
            for r, p in enumerate(source.pfts)
        ]
        plan = replace(
            source.plan,
            pfts=pfts,
            arrival_weight=[sig.scores[idx] for idx in source.arrival_stack_idx],
        )
        exec_program = None
        if source.exec_program is not None:
            exec_program = source.exec_program.with_fold_weights(new_weights)

        return self._insert(
            replace(
                source,
                key=key,
                context=context,
                sig=sig,
                pfts=pfts,
                plan=plan,
                exec_program=exec_program,
            )
        )
