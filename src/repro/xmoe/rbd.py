"""Hierarchical Redundancy-Bypassing Dispatch (RBD), §4.2.

With large top-k routing, a token frequently selects several experts that
live on the *same* destination node.  A flat all-to-all sends one copy of the
token's activation per selected expert, so the slow inter-node links carry
duplicated data.  RBD splits dispatch into stages:

* **Stage 0** — on the source rank, group each token's assignments by
  destination node; in every (token, node) group pick one *pilot* at random
  and mark the rest *local replicas*.
* **Stage 1** — only pilot tokens travel across nodes (uneven all-to-all to
  the rank hosting the pilot's expert).
* **Stage 2** — on the destination node, replica rows are reconstructed by
  copying their pilot's data and exchanged over the fast intra-node links to
  the ranks hosting the replicas' experts.

The combine stage reverses the process: replica outputs are scaled by their
combine weights and merged onto their pilot's row intra-node, then a single
row per (token, node) group returns inter-node, and the source adds it into
the output sequence.  Because the plan engine folds the partial sums in the
same order on both paths, this produces **bit-identical** results to the
flat dispatch while moving only the non-redundant rows across nodes.

This module holds the redundancy analysis behind Fig. 4.  The dispatch
itself is ``make_dispatcher(group, num_experts, kind="rbd")`` in
:mod:`repro.routing`: a :class:`repro.routing.RBDPlanner` compiles all
bookkeeping (send orders, splits, arrival tables, pilot-slot indices, merge
orders) once per step into a :class:`repro.routing.DispatchPlan` of flat
numpy arrays, which a :class:`repro.routing.PlanDispatcher` executes over
the :class:`~repro.comm.process_group.ProcessGroup` collectives, so the
recorded communication statistics reflect the inter- vs intra-node byte
split.  ``plan.stats_dict(row_bytes)`` reports pilots, replicas and the
redundancy rate of the plan a dispatch used.

Determinism: pilot selection derives a fresh generator from ``(seed, step)``
on every plan build, so dispatching the same PFTs twice with the same
``step`` (or the default ``step=None``) picks the same pilots.  Pass an
incrementing ``step`` to decorrelate pilot choices across training steps
while keeping each step reproducible.
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
