"""Router-policy sweep: load balance / drops / dispatch bytes per policy.

Every registered router policy (softmax top-k, switch top-1 with
exploration noise + capacity dropping, noisy top-k, expert-choice) drives
the full dispatch/combine pipeline over the simulated cluster, under both
the flat all-to-all planner and the two-stage RBD planner, on a Zipf-skewed
token distribution.  The printed table compares, per (policy, dispatch)
pair, the accumulated load-balance entropy, max/mean load imbalance, drop
rate, and stage-1/stage-2 dispatch megabytes.

Expected shape:

* expert-choice routing achieves strictly better load-balance entropy than
  switch top-1 under the skewed distribution (balance by construction vs
  capacity-truncated token choice) — asserted;
* switch top-1 is the only policy with a non-zero policy-level drop rate
  under skew (its capacity factor bites when tokens pile up);
* RBD moves strictly fewer stage-1 (inter-node) bytes than flat dispatch
  for every policy, and the routing regime itself (entropy, drops) is
  identical across the two dispatch paths.
"""

from conftest import print_table

from repro.routing import ROUTER_POLICY_NAMES
from repro.xmoe.trainer import run_routing_validation

RANKS, EXPERTS, TOP_K = 16, 16, 2  # 2 Frontier nodes, one expert per rank
TOKENS_PER_RANK, HIDDEN = 64, 32
STEPS, SKEW, SEED = 3, 1.2, 0


def test_router_policy_sweep():
    assert len(ROUTER_POLICY_NAMES) >= 4
    rows = []
    summaries: dict[tuple[str, str], dict] = {}
    telemetries: dict[tuple[str, str], object] = {}
    for name in ROUTER_POLICY_NAMES:
        for dispatch in ("flat", "rbd"):
            telemetry = run_routing_validation(
                name,
                num_ranks=RANKS,
                num_experts=EXPERTS,
                top_k=TOP_K,
                hidden_size=HIDDEN,
                tokens_per_rank=TOKENS_PER_RANK,
                steps=STEPS,
                dispatch=dispatch,
                seed=SEED,
                skew=SKEW,
            )
            key = (name, dispatch)
            summary = telemetry.summary()
            summaries[key] = summary
            telemetries[key] = telemetry
            rows.append({"policy": name, "dispatch": key[1], **summary})
    print_table(
        f"Router-policy sweep ({RANKS} ranks, E={EXPERTS}, k={TOP_K}, "
        f"S={TOKENS_PER_RANK}/rank, skew={SKEW})",
        rows,
    )

    # Acceptance: expert-choice beats switch-top-1 on load-balance entropy
    # under the skewed token distribution, on both dispatch paths.
    for dispatch in ("flat", "rbd"):
        ec = summaries[("expert-choice", dispatch)]
        sw = summaries[("switch-top1", dispatch)]
        assert ec["balance_entropy"] > sw["balance_entropy"], (
            f"expert-choice entropy {ec['balance_entropy']} not better than "
            f"switch-top1 {sw['balance_entropy']} under {dispatch} dispatch"
        )

    for name in ROUTER_POLICY_NAMES:
        flat, rbd = summaries[(name, "flat")], summaries[(name, "rbd")]
        # The routing regime is a property of the policy, not the dispatch
        # path: identical decisions feed both planners.
        assert flat["balance_entropy"] == rbd["balance_entropy"]
        assert flat["drop_rate"] == rbd["drop_rate"]
        assert flat["assignments"] == rbd["assignments"]
        # RBD's whole point: fewer stage-1 all-to-all rows, made up with
        # intra-node stage-2 replica traffic (compare raw byte counters —
        # the table rounds to MB).  Top-1 routing is the degenerate case:
        # a token never targets two experts on one node, so RBD finds no
        # redundancy to bypass and matches flat traffic exactly.
        t_flat, t_rbd = telemetries[(name, "flat")], telemetries[(name, "rbd")]
        assert t_flat.stage2_bytes == 0.0
        if name == "switch-top1":
            assert t_rbd.stage1_bytes == t_flat.stage1_bytes
            assert t_rbd.stage2_bytes == 0.0
            assert t_rbd.redundancy == 0.0
        else:
            assert t_rbd.stage1_bytes < t_flat.stage1_bytes
            assert t_rbd.stage2_bytes > 0.0
            assert t_rbd.redundancy > 0.0

    # Expert-choice load balance holds by construction: perfect entropy and
    # at most one token between the most and least loaded experts.
    assert summaries[("expert-choice", "flat")]["balance_entropy"] >= 0.999
    # Switch-top-1's capacity factor bites under skew.
    assert summaries[("switch-top1", "flat")]["policy_dropped"] > 0
