"""Redundancy-bypassing dispatch (RBD, §4.2): the redundancy analysis.

With large top-k routing a token often selects several experts on one
destination node, and a flat all-to-all sends one copy of its activation
per expert over the slow inter-node links.  RBD sends one *pilot* row per
(token, destination node) group across nodes, to the rank of the pilot's
own expert, which copies it to the group's other experts over the fast
intra-node links; combine runs the same hops in reverse, bit-identical to
flat dispatch.

The dispatch itself is ``make_dispatcher(group, num_experts, kind="rbd")``
in :mod:`repro.routing`: the ``"rbd"`` row of
:data:`repro.routing.planner.PLAN_SPECS` (a group leg of pilots, then an
appending intra-node fan-out), compiled by the one planner function that
also builds flat and hierarchical plans, with pilots drawn from
``(seed, step)`` on every build.  This module holds the analysis behind
Fig. 4.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "expected_redundancy_rate",
    "redundancy_rate",
]


# ----------------------------------------------------------------------
# Redundancy analysis (Fig. 4)
# ----------------------------------------------------------------------
def redundancy_rate(
    top_experts: np.ndarray,
    expert_to_rank: np.ndarray,
    rank_to_node: np.ndarray,
) -> float:
    """Fraction of dispatched (token, expert) assignments that are redundant.

    An assignment is redundant when another expert selected by the same
    token lives on the same destination node — only one copy of the token
    actually needs to cross the network to that node.
    """
    top_experts = np.asarray(top_experts, dtype=np.int64)
    expert_to_rank = np.asarray(expert_to_rank, dtype=np.int64)
    rank_to_node = np.asarray(rank_to_node, dtype=np.int64)
    if top_experts.ndim != 2:
        raise ValueError("top_experts must be [S, k]")
    s, k = top_experts.shape
    if s == 0 or k == 0:
        return 0.0
    dest_nodes = rank_to_node[expert_to_rank[top_experts]]  # [S, k]
    # Distinct-count per row via a sort along the k axis: a node is counted
    # once per run of equal values, so distinct = 1 + (#value changes).
    sorted_nodes = np.sort(dest_nodes, axis=1)
    distinct = 1 + (np.diff(sorted_nodes, axis=1) != 0).sum(axis=1)
    total = s * k
    pilots = int(distinct.sum())
    return 1.0 - pilots / total


def expected_redundancy_rate(num_experts: int, top_k: int, num_nodes: int) -> float:
    """Analytic redundancy rate under uniform routing (Fig. 4's curve).

    A token picks ``k`` distinct experts uniformly at random out of ``E``
    experts spread evenly over ``num_nodes`` nodes.  The expected number of
    distinct destination nodes is ``N * (1 - C(E - E/N, k) / C(E, k))``
    (hypergeometric "at least one expert on this node"), and the redundancy
    rate is ``1 - E[distinct nodes] / k``: every selected expert beyond the
    first on a node is a redundant copy over the inter-node links.
    """
    if num_nodes <= 0:
        raise ValueError("num_nodes must be positive")
    if not (1 <= top_k <= num_experts):
        raise ValueError("top_k must be in [1, num_experts]")
    if num_experts % num_nodes:
        raise ValueError("num_experts must be divisible by num_nodes")
    if num_nodes == 1:
        return 1.0 - 1.0 / top_k
    experts_per_node = num_experts // num_nodes
    # P(no selected expert on a given node) = C(E - E/N, k) / C(E, k)
    p_miss = 1.0
    for i in range(top_k):
        p_miss *= (num_experts - experts_per_node - i) / (num_experts - i)
    expected_nodes = num_nodes * (1.0 - p_miss)
    expected_nodes = min(expected_nodes, float(top_k))
    return 1.0 - expected_nodes / top_k
