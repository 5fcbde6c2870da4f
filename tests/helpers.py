"""Plain (non-conftest) helpers shared by test modules."""

from __future__ import annotations

import math

import numpy as np


def inter_node_bytes(stats, op_names) -> float:
    """Bytes the named ops moved over inter-node (or cross-rack) links."""
    from repro.cluster.topology import LinkTier

    total = 0.0
    for event in stats.events:
        if event.op in op_names:
            total += event.bytes_by_tier.get(LinkTier.INTER_NODE, 0.0)
            total += event.bytes_by_tier.get(LinkTier.CROSS_RACK, 0.0)
    return total


# ----------------------------------------------------------------------
# Per-rank oracles for the rank-batched routing path
# ----------------------------------------------------------------------
# The library routes and builds PFTs only through the rank-batched kernels
# (a single rank is R=1).  The functions below are the straightforward
# one-rank-at-a-time selection bodies and PFT builder those kernels must
# agree with bit for bit; the equivalence tests drive them rank by rank.


def _softmax(logits: np.ndarray) -> np.ndarray:
    shifted = logits - logits.max(axis=-1, keepdims=True)
    np.exp(shifted, out=shifted)
    shifted /= shifted.sum(axis=-1, keepdims=True)
    return shifted


def _z_loss(logits: np.ndarray) -> float:
    """Router z-loss: mean squared log-partition (keeps logits small)."""
    if logits.size == 0:
        return 0.0
    shifted = logits - logits.max(axis=-1, keepdims=True)
    lse = np.log(np.exp(shifted).sum(axis=-1)) + logits.max(axis=-1)
    return float(np.mean(lse**2))


def _scaled_z_loss(policy, logits: np.ndarray) -> float:
    if not policy.z_loss_coef:
        return 0.0
    return policy.z_loss_coef * _z_loss(logits)


def _aux_loss(policy, probs: np.ndarray, expert_ids: np.ndarray) -> float:
    """Switch-Transformer balance loss (same formula as ``TopKGate``)."""
    counts = np.bincount(
        expert_ids.reshape(-1), minlength=policy.num_experts
    ).astype(np.float64)
    fraction = counts / max(1, expert_ids.size)
    mean_probs = probs.sum(axis=0) / max(1, probs.shape[0])
    return float((mean_probs * fraction).sum() * (policy.aux_loss_coef * policy.num_experts))


def _segmented_capacity_drop(segment_key, scores, capacity, num_segments):
    order = np.lexsort((-scores, segment_key))
    sorted_key = segment_key[order]
    counts = np.bincount(sorted_key, minlength=num_segments)
    starts = np.concatenate([[0], np.cumsum(counts)[:-1]])
    rank_in_segment = np.arange(sorted_key.size) - starts[sorted_key]
    drop = np.zeros(segment_key.size, dtype=bool)
    drop[order] = rank_in_segment >= capacity
    return drop


def _from_topk(top_experts, top_scores, drop_mask, *, num_experts, probs, aux_loss, z_loss):
    """Flatten a rectangular ``[S, k]`` selection, row-major."""
    from repro.routing.policies import RoutingDecision

    s, k = top_experts.shape
    return RoutingDecision(
        num_tokens=s,
        num_experts=num_experts,
        token_ids=np.repeat(np.arange(s, dtype=np.int64), k),
        expert_ids=top_experts.reshape(-1).astype(np.int64),
        scores=top_scores.reshape(-1).astype(np.float64),
        dropped=drop_mask.reshape(-1).astype(bool),
        probs=probs,
        aux_loss=aux_loss,
        z_loss=z_loss,
        top_experts=top_experts,
        top_scores=top_scores,
        drop_mask=drop_mask,
    )


def _decide_softmax_topk(policy, logits, step):
    from repro.tensor.ops import topk as _topk

    probs = _softmax(logits)
    top_scores, top_experts = _topk(probs, policy.top_k, axis=-1)
    if policy.score_threshold:
        raw = np.take_along_axis(logits, top_experts, axis=-1)
        drop_mask = raw < 0.0
    else:
        drop_mask = np.zeros_like(top_experts, dtype=bool)
    return _from_topk(
        top_experts,
        top_scores,
        drop_mask,
        num_experts=policy.num_experts,
        probs=probs,
        aux_loss=_aux_loss(policy, probs, top_experts),
        z_loss=_scaled_z_loss(policy, logits),
    )


def _decide_switch_top1(policy, logits, step):
    from repro.tensor.ops import topk as _topk

    s = logits.shape[0]
    noise = 1.0 - policy.eps + policy._rng(step).random(logits.shape) * (2.0 * policy.eps)
    noisy = logits * noise
    probs = _softmax(noisy)
    top_scores, top_experts = _topk(probs, 1, axis=-1)

    capacity = max(1, math.ceil(policy.capacity_factor * s / policy.num_experts))
    drop_mask = _segmented_capacity_drop(
        top_experts.reshape(-1), top_scores.reshape(-1), capacity, policy.num_experts
    )

    return _from_topk(
        top_experts,
        top_scores,
        drop_mask.reshape(top_experts.shape),
        num_experts=policy.num_experts,
        probs=probs,
        aux_loss=_aux_loss(policy, probs, top_experts),
        z_loss=_scaled_z_loss(policy, noisy),
    )


def _decide_noisy_topk(policy, logits, step):
    from repro.tensor.ops import topk as _topk

    noisy = logits + policy._rng(step).normal(0.0, policy.noise_std, size=logits.shape)
    probs = _softmax(noisy)
    top_scores, top_experts = _topk(probs, policy.top_k, axis=-1)
    return _from_topk(
        top_experts,
        top_scores,
        np.zeros_like(top_experts, dtype=bool),
        num_experts=policy.num_experts,
        probs=probs,
        aux_loss=_aux_loss(policy, probs, top_experts),
        z_loss=_scaled_z_loss(policy, noisy),
    )


def _decide_expert_choice(policy, logits, step):
    from repro.routing.policies import RoutingDecision

    s, e = logits.shape
    probs = _softmax(logits)

    budget = s * policy.top_k
    caps = np.full(e, budget // e, dtype=np.int64)
    caps[: budget % e] += 1
    np.minimum(caps, s, out=caps)

    # Each expert's token ranking (ties broken by token id: stable sort).
    order = np.argsort(-probs, axis=0, kind="stable")  # [S, E]
    max_cap = int(caps.max()) if caps.size else 0
    picked = order[:max_cap, :].T  # [E, max_cap], expert-major
    mask = np.arange(max_cap)[None, :] < caps[:, None]
    token_ids = picked[mask].astype(np.int64)
    expert_ids = np.repeat(np.arange(e, dtype=np.int64), caps)
    scores = probs[token_ids, expert_ids]

    return RoutingDecision(
        num_tokens=s,
        num_experts=e,
        token_ids=token_ids,
        expert_ids=expert_ids,
        scores=scores,
        dropped=np.zeros(token_ids.size, dtype=bool),
        probs=probs,
        aux_loss=0.0,
        z_loss=_scaled_z_loss(policy, logits),
    )


_REFERENCE_DECIDERS = {
    "softmax-topk": _decide_softmax_topk,
    "switch-top1": _decide_switch_top1,
    "noisy-topk": _decide_noisy_topk,
    "expert-choice": _decide_expert_choice,
}


def reference_decide(policy, logits, step=None):
    """One rank's :class:`RoutingDecision` from ``[S, E]`` logits, per rank.

    The sequential selection body of each shipped policy, dispatched on
    ``policy.name``; ``policy.decide_batch`` must match it rank by rank.
    """
    logits = np.asarray(logits, dtype=np.float64)
    return _REFERENCE_DECIDERS[policy.name](policy, logits, step)


def reference_pft_flat(
    max_token_count, token_ids, expert_ids, combine_weights, num_experts, num_source_tokens
):
    """One rank's PFT from flat assignment arrays (capacity, then sort).

    Same capacity rule and ordering as ``build_pft_flat_batched`` for a
    single rank, computed with a plain lexsort per rank.
    """
    from repro.xmoe.pft import _assemble_pft

    if max_token_count <= 0:
        raise ValueError("max_token_count must be positive")
    token_ids = np.asarray(token_ids, dtype=np.int64)
    expert_ids = np.asarray(expert_ids, dtype=np.int64)
    weights = np.asarray(combine_weights, dtype=np.float64)
    if not (token_ids.shape == expert_ids.shape == weights.shape) or token_ids.ndim != 1:
        raise ValueError("assignment arrays must be 1-D and of equal length")
    s = num_source_tokens

    if expert_ids.size == 0:
        keep = np.zeros(0, dtype=bool)
        return _assemble_pft(token_ids, expert_ids, weights, keep, num_experts, s)

    # Sort by expert id, breaking ties by descending weight: within each
    # expert segment, position index == rank by score.
    order = np.lexsort((-weights, expert_ids))
    sorted_experts = expert_ids[order]
    counts = np.bincount(sorted_experts, minlength=num_experts)
    starts = np.concatenate([[0], np.cumsum(counts)[:-1]])
    rank_in_expert = np.arange(sorted_experts.size) - starts[sorted_experts]
    keep_sorted = rank_in_expert < max_token_count
    keep = np.zeros(expert_ids.size, dtype=bool)
    keep[order] = keep_sorted

    return _assemble_pft(token_ids, expert_ids, weights, keep, num_experts, s)


def reference_to_pft(decision, max_token_count=None):
    """One rank's decision compiled to a PFT by :func:`reference_pft_flat`."""
    keep = ~decision.dropped
    return reference_pft_flat(
        max_token_count if max_token_count is not None else 2**62,
        decision.token_ids[keep],
        decision.expert_ids[keep],
        decision.scores[keep],
        decision.num_experts,
        decision.num_tokens,
    )


def reference_route(policy, hidden, step=None):
    """Per-rank ``route``: project one rank's hidden states, then decide."""
    hidden = np.asarray(hidden, dtype=np.float64)
    return reference_decide(policy, hidden @ policy.weight, step)


# ----------------------------------------------------------------------
# Reference oracles for the single-process MoE layers
# ----------------------------------------------------------------------
# The library runs every buffer layout through one forward body (gather →
# buffer scatter → grouped_ffn → gather back → weighted scatter).  Below
# are the two layers that body replaced, kept verbatim as oracles: the
# DeepSpeed-MoE padded layer with its own dispatch plan and ``[E, C, H]``
# batched matmul, and the Megablocks no-drop grouped forward.  Their
# statistics bookkeeping is left out.


def reference_forward_padded(experts, expert_inputs):
    """Batched expert execution over fixed-capacity buffers ``[E, C, H]``.

    Zero-padded rows produce zero outputs (before bias-free projections),
    reproducing the baseline's wasted FLOPs without changing results.
    """
    from repro.tensor import ops

    if expert_inputs.ndim != 3 or expert_inputs.shape[0] != experts.num_experts:
        raise ValueError(
            f"expected [E={experts.num_experts}, C, H] inputs, got {expert_inputs.shape}"
        )
    h = expert_inputs @ experts.w1  # [E, C, F]
    h = ops.activate(h, experts.activation)
    return h @ experts.w2  # [E, C, H]


class ReferencePaddedMoELayer:
    """DeepSpeed-MoE style layer: dispatch plan, padded scatter, batched GEMM."""

    def __init__(self, gate, experts, capacity_factor=1.25):
        self.gate = gate
        self.experts = experts
        self.capacity_factor = capacity_factor
        self._step = 0

    def __call__(self, tokens):
        from repro.moe.layer import compute_capacity
        from repro.tensor import ops

        gate_out = self.gate(tokens, step=self._step)
        self._step += 1
        s, h = tokens.shape
        e = self.gate.num_experts
        k = self.gate.top_k
        capacity = compute_capacity(s, k, e, self.capacity_factor)

        plan = self._plan_dispatch(gate_out, capacity)
        (token_idx, expert_idx, positions, dropped_score, dropped_cap) = plan

        dest_rows = expert_idx * capacity + positions
        gathered = ops.gather_rows(tokens, token_idx)
        dispatched_flat = ops.scatter_rows(gathered, dest_rows, e * capacity)
        dispatched = dispatched_flat.reshape(e, capacity, h)

        expert_out = reference_forward_padded(self.experts, dispatched)
        expert_out_flat = expert_out.reshape(e * capacity, h)

        per_assignment = ops.gather_rows(expert_out_flat, dest_rows)
        combine_weights = gate_out.probs[token_idx, expert_idx]
        output = ops.scatter_rows(per_assignment, token_idx, s, weights=combine_weights)
        return output, gate_out.aux_loss

    def _plan_dispatch(self, gate_out, capacity):
        """Kept (token, expert, slot) assignments: policy drops first, then
        capacity in token order (GShard semantics)."""
        token_idx = gate_out.decision.token_ids
        expert_idx = gate_out.decision.expert_ids
        drop_score = gate_out.decision.dropped

        keep_after_score = ~drop_score
        dropped_score = int(drop_score.sum())

        token_idx = token_idx[keep_after_score]
        expert_idx = expert_idx[keep_after_score]

        # Position of each surviving assignment within its expert, in token
        # order (stable sort preserves token order inside each expert group).
        order = np.argsort(expert_idx, kind="stable")
        sorted_experts = expert_idx[order]
        counts = np.bincount(sorted_experts, minlength=self.gate.num_experts)
        starts = np.concatenate([[0], np.cumsum(counts)[:-1]])
        positions_sorted = np.arange(sorted_experts.size) - starts[sorted_experts]
        positions = np.empty_like(positions_sorted)
        positions[order] = positions_sorted

        within_capacity = positions < capacity
        dropped_cap = int((~within_capacity).sum())

        return (
            token_idx[within_capacity],
            expert_idx[within_capacity],
            positions[within_capacity],
            dropped_score,
            dropped_cap,
        )


class ReferenceMegablocksDispatcher:
    """Megablocks' no-drop forward: group by expert, sequential GEMM."""

    def __init__(self, gate, experts):
        self.gate = gate
        self.experts = experts
        self._step = 0

    def plan_assignments(self, token_idx, expert_idx):
        """Sort assignments by expert (stable, so token order within each)."""
        order = np.argsort(expert_idx, kind="stable")
        return token_idx[order], expert_idx[order]

    def __call__(self, tokens):
        from repro.tensor import ops

        gate_out = self.gate(tokens, step=self._step)
        self._step += 1
        s, h = tokens.shape
        # Megablocks itself never drops, but policy-level drops (switch
        # top-1's capacity rule) are routing decisions made upstream of any
        # dispatcher, so they are respected here too.
        keep = ~gate_out.decision.dropped
        token_idx, expert_idx = self.plan_assignments(
            gate_out.decision.token_ids[keep], gate_out.decision.expert_ids[keep]
        )

        counts = np.bincount(expert_idx, minlength=self.gate.num_experts)
        gathered = ops.gather_rows(tokens, token_idx)
        expert_out = self.experts.forward_sequential(gathered, counts)
        combine_weights = gate_out.probs[token_idx, expert_idx]
        output = ops.scatter_rows(expert_out, token_idx, s, weights=combine_weights)
        return output, gate_out.aux_loss


def reference_paper_configs(model, world_size, kind, *, global_batch_size, micro_batch_size=1):
    """The paper's EP / TP / ZeRO sweep (§5.2) as a plain enumeration."""
    import itertools

    from repro.config import ParallelConfig, PlacementOrder, ZeroStage
    from repro.xmoe.memory_model import SystemKind

    ep_options = [e for e in (8, 16, 32, 64, 128, 256) if e <= min(world_size, model.num_experts)]
    if not ep_options:
        ep_options = [min(world_size, model.num_experts)]
    zero_options = [ZeroStage.OPTIMIZER, ZeroStage.GRADIENTS]
    if kind is SystemKind.DEEPSPEED_TED:
        tp_options = [1, 2, 4, 8]
    elif kind is SystemKind.XMOE:
        tp_options = [1, 2, 4]
    else:
        tp_options = [1]

    configs = []
    for ep, tp, zero in itertools.product(ep_options, tp_options, zero_options):
        if world_size % tp or world_size % ep or model.num_experts % ep:
            continue
        if global_batch_size % (world_size // tp):
            continue
        configs.append(
            ParallelConfig(
                world_size=world_size,
                ep_size=ep,
                tp_size=tp,
                zero_stage=zero,
                use_ssmb=(kind is SystemKind.XMOE and tp > 1),
                dispatch="rbd" if kind is SystemKind.XMOE else "flat",
                placement=(
                    PlacementOrder.DP_FIRST
                    if kind is SystemKind.XMOE
                    else PlacementOrder.EP_FIRST
                ),
                micro_batch_size=micro_batch_size,
                global_batch_size=global_batch_size,
            )
        )
    return configs


def reference_sweep_best_config(
    model, world_size, kind, system, *, global_batch_size=1024, micro_batch_size=1
):
    """The paper's sweep as a plain loop over one plan at a time.

    Each plan gets the memory model's verdict, then (if it fits) the perf
    model's throughput; the first plan with the highest throughput wins.
    With no plan fitting, the first plan needing the least memory is
    returned with ``oom=True``.
    """
    from types import SimpleNamespace

    from repro.xmoe.memory_model import MoEMemoryModel
    from repro.xmoe.perf_model import MoEPerformanceModel

    best = least_oom = None
    for parallel in reference_paper_configs(
        model,
        world_size,
        kind,
        global_batch_size=global_batch_size,
        micro_batch_size=micro_batch_size,
    ):
        report = MoEMemoryModel(model, parallel, system.node.gpu).report(kind)
        result = SimpleNamespace(
            parallel=parallel, oom=not report.fits, peak_memory_gb=report.total_gb,
            tflops_per_gpu=None,
        )
        if result.oom:
            if least_oom is None or result.peak_memory_gb < least_oom.peak_memory_gb:
                least_oom = result
            continue
        perf = MoEPerformanceModel(model, parallel, system, kind)
        result.tflops_per_gpu = perf.throughput_tflops_per_gpu()
        if best is None or result.tflops_per_gpu > best.tflops_per_gpu:
            best = result
    return best or least_oom


# ----------------------------------------------------------------------
# Reference planners: flat, RBD and hier as separate code paths
# ----------------------------------------------------------------------
# The library compiles every dispatch kind with one function that reads the
# kind's spec row.  Below are the two functions that did it before — one
# for flat and RBD (``rng=None`` is flat), one for hier — kept as oracles.
# They borrow the planner's assignment-table, arrival-table and plan
# helpers and its topology; the op names are their own table.  Plans the
# library builds must agree with them on everything the engine, the comm
# accounting and the statistics read; only the internal orders (hop
# ``gather`` arrays, the arrival order before ``sort_order``) may differ.

#: ``(dispatch op, combine op)`` of every hop, in dispatch order, per kind.
REFERENCE_HOP_OPS = {
    "flat": (("dispatch_a2a", "combine_a2a"),),
    "rbd": (("rbd_s1_a2a", "rbd_c2_a2a"), ("rbd_s2_a2a", "rbd_c1_a2a")),
    "hier": (
        ("hier_gather_a2a", "hier_c_scatter_a2a"),
        ("hier_inter_a2a", "hier_c_inter_a2a"),
        ("hier_scatter_a2a", "hier_c_gather_a2a"),
    ),
}


def reference_plan(kind, planner, pfts, step=None):
    """The plan ``planner`` builds from ``pfts``, by the pre-spec code path."""
    if kind == "hier":
        return _reference_compile_hier(planner, pfts)
    rng = None
    if kind == "rbd":
        seed = planner.seed
        rng = np.random.default_rng(seed if step is None else (seed, int(step)))
    return _reference_compile(planner, kind, pfts, rng)


def _reference_hop(
    planner, kind, index, src, dst, gather, fold_slot, fold_perm=None, *,
    per_node=False, append=False,
):
    from repro.routing.plan import Hop

    size = planner.group.size
    width = planner._node_width if per_node else size
    peer = planner.member_index if per_node else np.arange(size)
    cells = size * width
    send = np.bincount(src * width + peer[dst], minlength=cells).reshape(size, width)
    recv = np.bincount(dst * width + peer[src], minlength=cells).reshape(size, width)
    if per_node:
        widths = planner.node_group_size.tolist()
        send_splits = [send[r, :w] for r, w in enumerate(widths)]
        recv_splits = [recv[r, :w] for r, w in enumerate(widths)]
    else:
        send_splits, recv_splits = list(send), list(recv)
    op, combine_op = REFERENCE_HOP_OPS[kind][index]
    return Hop(
        op, combine_op, per_node, gather, send_splits, recv_splits,
        fold_slot, fold_perm, append,
    )


def _reference_compile(planner, kind, pfts, rng):
    """Flat (``rng=None``) and RBD plans: a group hop, then RBD's node hop."""
    from repro.routing.planner import _argsort_key, _bounds, _split

    self = planner
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
        # One random pilot per (rank, token, node) group.
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

    # ---- hop 0 send order and pilot arrival order ---------------
    o_send1 = _argsort_key(g_src * size + g_dest, tiebreak=True)
    sent_global = g_idx[o_send1]
    order = _argsort_key(g_dest, tiebreak=True)
    p_dest = g_dest[order]
    pilot_counts = np.bincount(p_dest, minlength=size)

    # ---- hop 0 fold: returned rows onto (token, node) partials --
    k_rank = g_src[o_send1]
    keys = (k_rank * a.max_tok + a.token[sent_global]) * num_nodes + a.node[sent_global]
    if rng is not None:
        order_k = _argsort_key(keys)
        uniq = keys[order_k]
        inv = np.empty(keys.size, dtype=np.int64)
        inv[order_k] = np.arange(keys.size)
    else:
        uniq, inv = np.unique(keys, return_inverse=True)
        o_fold = _argsort_key(inv * num_experts + a.expert[sent_global])
    group_bounds = _bounds(np.bincount(uniq // (a.max_tok * num_nodes), minlength=size))
    local_group = inv - group_bounds[k_rank]
    partial_token = _split((uniq // num_nodes) % a.max_tok, group_bounds)
    if rng is None:
        fold0 = (
            _split(local_group[o_fold], sel_bounds),
            _split(o_fold - sel_bounds[k_rank[o_fold]], sel_bounds),
        )
    else:
        fold0 = (_split(local_group, sel_bounds), None)
    hops = [
        _reference_hop(
            self, kind, 0, g_src, g_dest, _split(a.row[sent_global], sel_bounds), *fold0
        )
    ]
    moves = [(g_src, g_dest)]
    if rng is None:
        return self._plan(
            a, pfts, hops, moves, self._arrivals(a, g_idx[order], pilot_counts),
            partial_token,
        )

    # ---- hop 1: replicas copied off their pilot, intra-node -----
    pil_local = np.arange(p_dest.size, dtype=np.int64) - _bounds(pilot_counts)[p_dest]
    slot_of = np.empty(total, dtype=np.int64)
    slot_of[g_idx[order]] = pil_local
    rep_idx = np.flatnonzero(~mask)
    pil_global = pilot_of_all[rep_idx]
    r_pr, r_dr = a.dest[pil_global], a.dest[rep_idx]
    r_slot = slot_of[pil_global]
    r_pm = self.member_index[r_pr]
    r_dm = self.member_index[r_dr]
    mm = self._node_width
    max_pilots = int(pilot_counts.max()) + 1 if pilot_counts.size else 1
    o_send = _argsort_key((r_pr * (mm + 1) + r_dm) * max_pilots + r_slot, tiebreak=True)
    pr_counts = np.bincount(r_pr, minlength=size)
    s_slot, s_rank = r_slot[o_send], r_pr[o_send]
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
        _reference_hop(
            self, kind, 1, r_pr, r_dr,
            _split(s_slot, _bounds(pr_counts)),
            _split(c_slot[o_merge], contrib_bounds),
            _split(c_local[o_merge], contrib_bounds),
            per_node=True,
            append=True,
        )
    )
    moves.append((r_pr, r_dr))
    o_arr = _argsort_key((r_dr * (mm + 1) + r_pm) * max_pilots + r_slot, tiebreak=True)
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
    return self._plan(a, pfts, hops, moves, self._arrivals(a, ids, n_dest), partial_token)


def _reference_compile_hier(planner, pfts):
    """Hier plans: node gather, leader exchange, node scatter."""
    from repro.routing.planner import _argsort_key, _bounds, _split

    self = planner
    a = self._assignments(pfts)
    size, total = self.group.size, a.total
    num_nodes, num_experts = self.num_nodes, self.num_experts
    mm = self._node_width
    leader_of = self.leader_of

    # ---- dedup: one travelling row per (src, token, dest node) --
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
    o_hA = _argsort_key((g_rank * num_nodes + g_node) * a.max_tok + g_token)
    g_localid = np.arange(num_groups, dtype=np.int64) - g_bounds[g_rank]
    g_sleader = leader_of[g_rank]
    hops = [
        _reference_hop(
            self, "hier", 0, g_rank, g_sleader,
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
    a_pos = member_offset[g_rank] + hA_pos

    # ---- hop B: one leader-to-leader exchange -------------------
    g_dleader = self.node_leader[g_node]
    max_a = int(a_pos.max(initial=0)) + 1
    o_hB = _argsort_key((g_sleader * size + g_dleader) * max_a + a_pos)
    hB_perm = _split(a_pos[o_hB], _bounds(np.bincount(g_sleader, minlength=size)))
    hops.append(_reference_hop(self, "hier", 1, g_sleader, g_dleader, hB_perm, hB_perm))
    o_arrB = _argsort_key((g_dleader * size + g_sleader) * max_a + a_pos)
    dl_bounds = _bounds(np.bincount(g_dleader, minlength=size))
    b_pos = np.empty(num_groups, dtype=np.int64)
    b_pos[o_arrB] = np.arange(num_groups, dtype=np.int64) - dl_bounds[g_dleader[o_arrB]]

    # ---- hop C: dest leader scatters one row per assignment -----
    dleader_all = leader_of[a.dest]
    sub = (a.rank * a.max_tok + a.token) * num_experts + a.expert
    max_sub = int(sub.max(initial=0)) + 1
    o_hC = _argsort_key((dleader_all * mm + self.member_index[a.dest]) * max_sub + sub)
    cl_bounds = _bounds(np.bincount(dleader_all, minlength=size))
    posC = np.empty(total, dtype=np.int64)
    posC[o_hC] = np.arange(total, dtype=np.int64) - cl_bounds[dleader_all[o_hC]]
    slot_b = b_pos[inv]
    max_b = int(b_pos.max(initial=0)) + 1
    o_fold = _argsort_key((dleader_all * max_b + slot_b) * num_experts + a.expert)
    hops.append(
        _reference_hop(
            self, "hier", 2, dleader_all, a.dest,
            _split(slot_b[o_hC], cl_bounds),
            _split(slot_b[o_fold], cl_bounds),
            _split(posC[o_fold], cl_bounds),
            per_node=True,
        )
    )
    moves = [(g_rank, g_sleader), (g_sleader, g_dleader), (dleader_all, a.dest)]
    arrivals = self._arrivals(
        a, _argsort_key(a.dest * max_sub + sub), np.bincount(a.dest, minlength=size)
    )
    return self._plan(a, pfts, hops, moves, arrivals, _split(g_token, g_bounds))


def verify_program(program, plan):
    """Assert a fused :class:`ExecProgram` agrees with the plan it fuses.

    Reads the program's own index maps: per destination, the canonical
    slots must hold the plan's arrival rows in ``sort_order`` (source, PFT
    row, expert and fold weight alike) and gather those rows' tokens; the
    first-level fold must segment exactly the plan's ``(token, node)``
    partial groups, rank by rank, in ``partial_token`` order.
    """
    pfts = plan.pfts
    sizes = np.array([p.num_routed_tokens for p in pfts], dtype=np.int64)
    row_off = np.concatenate([[0], np.cumsum(sizes)]).astype(np.int64)
    src = np.repeat(np.arange(len(pfts), dtype=np.int64), sizes)
    tok = np.concatenate([np.zeros(0, np.int64)] + [p.token_ids for p in pfts])
    exp = np.concatenate([np.zeros(0, np.int64)] + [p.expert_ids for p in pfts])
    # Global PFT row and fold weight of every canonical slot.
    canon = program.fold_pft_rows[program.fold_scatter]
    weight = program.fold_w[program.fold_scatter]
    for d in range(len(pfts)):
        lo, hi = program.dest_off[d], program.dest_off[d + 1]
        sl, order = canon[lo:hi], plan.sort_order[d]
        if not (
            np.array_equal(src[sl], plan.arrival_src[d][order])
            and np.array_equal(sl - row_off[src[sl]], plan.arrival_row[d][order])
            and np.array_equal(exp[sl], plan.arrival_expert[d][order])
            and np.array_equal(weight[lo:hi], plan.arrival_weight[d][order])
            and np.array_equal(
                program.disp_gather[lo:hi], program.tok_off[src[sl]] + tok[sl]
            )
        ):
            raise AssertionError(f"fused canonical order disagrees with plan at dest {d}")
    if int(program.dest_off[-1]) != plan.total_assignments:
        raise AssertionError("fused canonical slots do not cover the plan")
    # The first fold pass reads each partial group's first fold slot.
    starts = program.l1_passes[0][1] if program.l1_passes else np.zeros(0, np.int64)
    first = program.fold_pft_rows[starts]
    start = 0
    for r in range(len(pfts)):
        expected = np.asarray(plan.partial_token[r], dtype=np.int64)
        stop = start + expected.size
        if not (
            np.array_equal(tok[first[start:stop]], expected)
            and bool(np.all(src[first[start:stop]] == r))
        ):
            raise AssertionError(f"fused partial groups disagree with plan at source {r}")
        start = stop
    if not start == first.size == program.num_groups:
        raise AssertionError("fused partial groups do not cover the plan")
