"""Dispatch-plan micro-benchmark: vectorized planner vs seed bookkeeping.

Workload (the acceptance configuration of the routing-plan refactor):
S=4096 routed sequence positions, top-k=8, 64 experts, 8 Frontier nodes
(64 ranks, one expert per rank) — 32768 (token, expert) assignments.

Three measurements:

* ``plan_build`` — compiling all dispatch/combine bookkeeping into a
  :class:`~repro.routing.plan.DispatchPlan`, for the flat and RBD planners.
* ``legacy_bookkeeping`` — a faithful distillation of the seed RBD
  dispatcher's bookkeeping: Python list building per destination,
  dict slot-maps, per-row replica-request loops with ``members.index``, and
  the O(B²) linear pilot-slot scan the combine stage performed per replica.
* ``dispatch`` / ``combine`` — executing the plan with real (hidden=64)
  buffers over the simulated cluster, flat vs RBD.

Next to the wall bar sits a deterministic twin: the Python calls into
``repro`` one flat, RBD or hier plan build makes at EP 32 (top-6 of 64
experts) must be the same at 64 and at 1024 tokens per rank.

Each run (re)writes a machine-local JSON record
(``benchmarks/results/dispatch_plan_micro.json``, gitignored) so future PRs
can track the perf trajectory on a fixed machine (the call counts
included), and asserts the
vectorized planner beats the seed bookkeeping by >= 10x (tunable via
``DISPATCH_PLAN_MIN_SPEEDUP`` for throttled CI runners).
"""

import gc
import os
import time
from dataclasses import dataclass

import numpy as np

from conftest import count_calls, print_table, write_record

from repro.comm import CommWorld
from repro.routing import make_dispatcher
from repro.xmoe import build_pft

S, K, E, NODES, HIDDEN = 4096, 8, 64, 8, 64
RANKS = E  # one expert per rank, 8 ranks per Frontier node
TOKENS_PER_RANK = S // RANKS


def build_workload(seed=0, ranks=RANKS, tokens_per_rank=TOKENS_PER_RANK, k=K, e=E):
    rng = np.random.default_rng(seed)
    tokens, pfts = [], []
    for _ in range(ranks):
        top_experts = np.argsort(rng.random((tokens_per_rank, e)), axis=1)[:, :k]
        weights = rng.uniform(0.05, 1.0, size=(tokens_per_rank, k))
        pfts.append(build_pft(10**6, top_experts, weights, e))
        tokens.append(rng.normal(size=(tokens_per_rank, HIDDEN)))
    return tokens, pfts


#: Shape of the call-count check: EP 32 over four nodes, top-6 of 64 experts.
COUNT_EP, COUNT_K, COUNT_E, COUNT_TOKENS = 32, 6, 64, (64, 1024)


def plan_call_counts() -> dict:
    """Python calls into ``repro`` per plan build, per kind and batch size."""
    group = CommWorld(num_ranks=COUNT_EP).world_group()
    counts = {}
    for kind in ("flat", "rbd", "hier"):
        dispatcher = make_dispatcher(group, COUNT_E, kind=kind, seed=0)
        for tokens in COUNT_TOKENS:
            _, pfts = build_workload(1, COUNT_EP, tokens, COUNT_K, COUNT_E)
            counts[f"{kind}@{tokens}"] = count_calls(lambda: dispatcher.plan(pfts, step=0))[1]
    return counts


@dataclass
class RBDPlan:
    """The seed's per-source-rank stage-0 plan: which PFT rows are pilots."""

    pilot_mask: np.ndarray  # [B] bool
    pilot_of: np.ndarray  # [B] index (into PFT rows) of each row's pilot
    dest_rank: np.ndarray  # [B] destination group-local rank
    dest_node: np.ndarray  # [B] destination node id


def select_pilots(pft, dest_rank, dest_node, num_nodes, rng) -> RBDPlan:
    """The seed's pilot rule: one random pilot per (token, destination node)
    group of one source rank, drawn from a generator shared across ranks.

    The library's :class:`~repro.routing.RBDPlanner` draws its pilots over
    all ranks at once from ``(seed, step)``; this per-rank rule is part of
    the baseline only.
    """
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
    pilot_of = pilot_rows[np.searchsorted(uniq_keys, keys)]
    return RBDPlan(
        pilot_mask=pilot_mask,
        pilot_of=pilot_of,
        dest_rank=dest_rank,
        dest_node=dest_node,
    )


def legacy_bookkeeping(pfts, expert_to_rank, rank_to_node, seed=0):
    """The seed RBD dispatcher's bookkeeping, loops and dicts included.

    Kept here (not in the library) purely as the baseline the vectorized
    planner is measured against: per-destination Python list building, dict
    slot-maps, per-replica request loops with ``members.index`` inner calls,
    per-row expert/weight lookups, and the combine stage's O(B²) linear
    pilot-slot scan.
    """
    size = len(pfts)
    num_nodes = int(rank_to_node.max()) + 1
    rng = np.random.default_rng(seed)
    plans = []
    for pft in pfts:
        dest = expert_to_rank[pft.expert_ids]
        plans.append(select_pilots(pft, dest, rank_to_node[dest], num_nodes, rng))

    s1_send_rows, s1_send_splits = [], []
    for r in range(size):
        plan = plans[r]
        pilot_rows = np.flatnonzero(plan.pilot_mask)
        pilot_dest = plan.dest_rank[pilot_rows]
        order = np.lexsort((pilot_rows, pilot_dest))
        s1_send_rows.append(pilot_rows[order])
        s1_send_splits.append(np.bincount(pilot_dest, minlength=size).astype(np.int64))

    # Per-destination pilot metadata, built row by row.
    pilot_src = [[] for _ in range(size)]
    pilot_row = [[] for _ in range(size)]
    for r in range(size):
        offsets = np.concatenate([[0], np.cumsum(s1_send_splits[r])])
        for d in range(size):
            rows = s1_send_rows[r][offsets[d] : offsets[d + 1]]
            pilot_src[d].extend([r] * rows.size)
            pilot_row[d].extend(rows.tolist())
    slot_maps = [
        {(pilot_src[d][i], pilot_row[d][i]): i for i in range(len(pilot_src[d]))}
        for d in range(size)
    ]

    # Replica requests keyed by the pilot-holding rank.
    replica_requests = [[] for _ in range(size)]
    for r in range(size):
        plan = plans[r]
        for row in np.flatnonzero(~plan.pilot_mask):
            pilot = int(plan.pilot_of[row])
            pr = int(plan.dest_rank[pilot])
            dr = int(plan.dest_rank[row])
            slot = slot_maps[pr][(r, pilot)]
            replica_requests[pr].append((slot, dr, r, int(row)))

    # Intra-node send programs with members.index inner loops.
    arrival_src = [list(v) for v in pilot_src]
    arrival_row = [list(v) for v in pilot_row]
    for n in sorted(set(rank_to_node.tolist())):
        members = [int(m) for m in np.flatnonzero(rank_to_node == n)]
        send_meta, splits = [], []
        for member in members:
            reqs = sorted(
                replica_requests[member], key=lambda t: (members.index(t[1]), t[0])
            )
            dest_local = np.array([members.index(t[1]) for t in reqs], dtype=np.int64)
            splits.append(np.bincount(dest_local, minlength=len(members)))
            send_meta.append([(t[2], t[3]) for t in reqs])
        for j, _receiver in enumerate(members):
            for i, _sender in enumerate(members):
                offs = np.concatenate([[0], np.cumsum(splits[i])])
                for (src, row) in send_meta[i][offs[j] : offs[j + 1]]:
                    arrival_src[members[j]].append(src)
                    arrival_row[members[j]].append(row)

    # Per-row expert/weight/pilot-slot metadata (seed dispatch tail).
    arr_experts, arr_weights, sort_orders = [], [], []
    for d in range(size):
        experts = np.array(
            [pfts[s].expert_ids[i] for s, i in zip(arrival_src[d], arrival_row[d])],
            dtype=np.int64,
        )
        arr_experts.append(experts)
        arr_weights.append(
            np.array(
                [
                    pfts[s].combine_weights[i]
                    for s, i in zip(arrival_src[d], arrival_row[d])
                ]
            )
        )
        pslot = np.full(len(arrival_src[d]), -1, dtype=np.int64)
        for idx in range(len(arrival_src[d])):
            if idx < len(pilot_src[d]):
                pslot[idx] = idx
        sort_orders.append(np.argsort(experts, kind="stable"))

    # Combine stage C1 bookkeeping: per-replica dests/slots with the O(B²)
    # linear pilot-slot scan and members.index, then the per-member-pair
    # target-slot rebuild — exactly the seed's combine-side loops.
    resolved = 0
    for n in sorted(set(rank_to_node.tolist())):
        members = [int(m) for m in np.flatnonzero(rank_to_node == n)]
        splits, send_slots = [], []
        for member in members:
            rep_idx = list(range(len(pilot_src[member]), len(arrival_src[member])))
            dests, slots = [], []
            for idx in rep_idx:
                src, row = arrival_src[member][idx], arrival_row[member][idx]
                pilot = int(plans[src].pilot_of[row])
                pr = int(plans[src].dest_rank[pilot])
                slot = None
                for cand in range(len(pilot_src[pr])):  # the O(B²) scan
                    if pilot_src[pr][cand] == src and pilot_row[pr][cand] == pilot:
                        slot = cand
                        break
                dests.append(members.index(pr))
                slots.append(slot)
                resolved += 1
            dests_arr = np.array(dests, dtype=np.int64)
            order = np.argsort(dests_arr, kind="stable")
            splits.append(np.bincount(dests_arr[order], minlength=len(members)))
            send_slots.append([slots[i] for i in order])
        for j, _member in enumerate(members):
            target_slots = []
            for i, _sender in enumerate(members):
                offs = np.concatenate([[0], np.cumsum(splits[i])])
                target_slots.extend(send_slots[i][offs[j] : offs[j + 1]])
    total_arrivals = sum(len(a) for a in arrival_src)
    return resolved, total_arrivals, arr_experts, arr_weights


def _time(fn, repeats=3):
    best, result = float("inf"), None
    gc.disable()
    try:
        for _ in range(repeats):
            t0 = time.perf_counter()
            result = fn()
            best = min(best, time.perf_counter() - t0)
    finally:
        gc.enable()
    return best, result


def test_dispatch_plan_micro():
    tokens, pfts = build_workload()
    world = CommWorld(num_ranks=RANKS)
    group = world.world_group()
    flat = make_dispatcher(group, E)
    rbd = make_dispatcher(group, E, kind="rbd", seed=0)

    # ---- plan construction ------------------------------------------
    for _ in range(2):  # warm-up
        rbd.plan(pfts)
    flat_build_s, flat_plan = _time(lambda: flat.plan(pfts), repeats=5)
    rbd_build_s, rbd_plan = _time(lambda: rbd.plan(pfts), repeats=5)
    legacy_s, legacy_out = _time(
        lambda: legacy_bookkeeping(pfts, rbd.expert_to_rank, rbd.rank_to_node),
        repeats=2,
    )
    # Both sides account for the same assignment population.
    assert legacy_out[1] == rbd_plan.total_assignments
    assert legacy_out[0] == rbd_plan.num_replicas

    # ---- execution (dispatch + combine) over the simulated cluster --
    flat_dispatch_s, _ = _time(lambda: flat.dispatch(tokens, pfts, plan=flat_plan))
    rbd_dispatch_s, _ = _time(lambda: rbd.dispatch(tokens, pfts, plan=rbd_plan))
    flat_inputs, _ = flat.dispatch(tokens, pfts, plan=flat_plan)
    rbd_inputs, _ = rbd.dispatch(tokens, pfts, plan=rbd_plan)
    flat_combine_s, _ = _time(
        lambda: flat.combine(
            [i.copy() for i in flat_inputs], flat_plan, [TOKENS_PER_RANK] * RANKS
        )
    )
    rbd_combine_s, _ = _time(
        lambda: rbd.combine(
            [i.copy() for i in rbd_inputs], rbd_plan, [TOKENS_PER_RANK] * RANKS
        )
    )

    speedup = legacy_s / rbd_build_s
    calls = plan_call_counts()
    record = {
        "workload": {
            "sequence_positions": S,
            "top_k": K,
            "num_experts": E,
            "num_nodes": NODES,
            "num_ranks": RANKS,
            "hidden": HIDDEN,
            "assignments": int(rbd_plan.total_assignments),
            "pilots": int(rbd_plan.total_pilots),
            "replicas": int(rbd_plan.num_replicas),
            "redundancy_rate": round(rbd_plan.redundancy, 4),
        },
        "seconds": {
            "legacy_rbd_bookkeeping": round(legacy_s, 6),
            "flat_plan_build": round(flat_build_s, 6),
            "rbd_plan_build": round(rbd_build_s, 6),
            "flat_dispatch": round(flat_dispatch_s, 6),
            "rbd_dispatch": round(rbd_dispatch_s, 6),
            "flat_combine": round(flat_combine_s, 6),
            "rbd_combine": round(rbd_combine_s, 6),
        },
        "speedup_vs_seed_bookkeeping": round(speedup, 2),
        "plan_build_calls": calls,
    }
    write_record("dispatch_plan_micro", record)

    print_table(
        f"Dispatch-plan micro-benchmark (S={S}, k={K}, E={E}, {NODES} nodes)",
        [
            {"stage": "legacy RBD bookkeeping (seed)", "seconds": legacy_s},
            {"stage": "RBD plan build (vectorized)", "seconds": rbd_build_s},
            {"stage": "flat plan build", "seconds": flat_build_s},
            {"stage": "RBD dispatch (plan given)", "seconds": rbd_dispatch_s},
            {"stage": "flat dispatch (plan given)", "seconds": flat_dispatch_s},
            {"stage": "RBD combine", "seconds": rbd_combine_s},
            {"stage": "flat combine", "seconds": flat_combine_s},
            {"stage": f"plan-build speedup: {speedup:.0f}x", "seconds": ""},
        ],
    )

    # The deterministic twin of the wall bar below: a plan build makes as
    # many Python calls at 1024 tokens per rank as at 64 — the work per
    # row is whole-array numpy, never Python.
    for kind in ("flat", "rbd", "hier"):
        small, large = (calls[f"{kind}@{t}"] for t in COUNT_TOKENS)
        assert small == large, f"{kind} plan: {small} calls at 64 tokens, {large} at 1024"

    # Acceptance criterion of the routing-plan refactor (>=10x locally;
    # CI sets DISPATCH_PLAN_MIN_SPEEDUP lower because shared runners are
    # throttled and wall-clock ratios get noisy).
    min_speedup = float(os.environ.get("DISPATCH_PLAN_MIN_SPEEDUP", "10.0"))
    assert speedup >= min_speedup, (
        f"vectorized planner only {speedup:.1f}x faster than seed bookkeeping"
    )
