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

Since the vectorized routing-plan refactor, :class:`RBDDispatcher` is a thin
compatibility wrapper over :class:`repro.routing.PlanDispatcher` driven by a
:class:`repro.routing.RBDPlanner`: all bookkeeping (send orders, splits,
arrival tables, ``searchsorted``-based pilot-slot indices, merge orders) is
compiled once per step into a :class:`repro.routing.DispatchPlan` of flat
numpy arrays, and every data-carrying exchange still goes through the
:class:`~repro.comm.process_group.ProcessGroup` collectives so the recorded
communication statistics reflect the inter- vs intra-node byte split.

Determinism: pilot selection derives a fresh generator from ``(seed, step)``
on every dispatch, so dispatching the same PFTs twice with the same ``step``
(or the default ``step=None``) picks the same pilots.  Pass an incrementing
``step`` to decorrelate pilot choices across training steps while keeping
each step reproducible.
"""

from __future__ import annotations

import numpy as np

from repro.comm.process_group import ProcessGroup
from repro.routing.engine import PlanDispatcher
from repro.routing.plan import DispatchPlan
from repro.routing.planner import RBDPlan, RBDPlanner

__all__ = [
    "RBDDispatcher",
    "RBDPlan",
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


class RBDDispatcher:
    """Redundancy-bypassing dispatch over an expert-parallel process group.

    Compatibility wrapper: the routing decisions live in
    :class:`repro.routing.RBDPlanner` and the data movement in
    :class:`repro.routing.PlanDispatcher`; this class preserves the
    historical ``dispatch / run_experts / combine`` call surface and the
    ``last_stats`` payload.
    """

    def __init__(
        self,
        group: ProcessGroup,
        num_experts: int,
        expert_to_rank: np.ndarray | None = None,
        *,
        seed: int = 0,
    ):
        self.planner = RBDPlanner(group, num_experts, expert_to_rank, seed=seed)
        self.engine = PlanDispatcher(group, self.planner)
        self.group = group
        self.num_experts = num_experts
        self.expert_to_rank = self.planner.expert_to_rank
        self.rank_to_node = self.planner.rank_to_node
        self.seed = seed
        self.last_stats: dict[str, float] | None = None
        self.last_plan: DispatchPlan | None = None

    def experts_on_rank(self, local_rank: int) -> np.ndarray:
        """Global ids of the experts hosted by a group-local rank."""
        return self.planner.experts_on_rank(local_rank)

    # ------------------------------------------------------------------
    # Planning
    # ------------------------------------------------------------------
    def plan(self, per_rank_pfts: list, *, step: int | None = None) -> DispatchPlan:
        """Build the full routing plan — exactly what :meth:`dispatch` uses.

        Deterministic: the generator is re-derived from ``(seed, step)`` on
        every call, so the same PFTs always yield the same plan.
        """
        return self.engine.plan(per_rank_pfts, step=step)

    def stage0_plan(self, pft, *, step: int | None = None) -> RBDPlan:
        """Standalone stage-0 pilot selection for one source rank's PFT.

        Deterministic per call (the generator is re-derived from
        ``(seed, step)``), and drawn from the same distribution as
        :meth:`dispatch` — one uniformly random pilot per (token, node)
        group — but as an independent sample: the full planner permutes
        the global assignment table across all ranks, so the specific
        pilot rows it picks are not reproducible from a single PFT.  Use
        :meth:`plan` (or the plan returned by :meth:`dispatch`) when the
        actual dispatched pilot set matters.
        """
        return self.planner.stage0(pft, self.planner._rng(step))

    # ------------------------------------------------------------------
    # Dispatch / experts / combine (the Dispatcher protocol)
    # ------------------------------------------------------------------
    def dispatch(
        self,
        per_rank_tokens: list[np.ndarray],
        per_rank_pfts: list,
        *,
        plan: DispatchPlan | None = None,
        step: int | None = None,
    ) -> tuple[list[np.ndarray], DispatchPlan]:
        """Route tokens to expert-hosting ranks with redundancy bypassing."""
        expert_inputs, plan = self.engine.dispatch(
            per_rank_tokens, per_rank_pfts, plan=plan, step=step
        )
        hidden = per_rank_tokens[0].shape[1]
        row_bytes = hidden * per_rank_tokens[0].dtype.itemsize
        self.last_stats = plan.stats_dict(row_bytes)
        self.last_plan = plan
        return expert_inputs, plan

    def run_experts(
        self,
        expert_inputs: list[np.ndarray],
        plan: DispatchPlan,
        per_rank_w1: list[np.ndarray],
        per_rank_w2: list[np.ndarray],
        *,
        activation: str = "silu",
    ) -> list[np.ndarray]:
        """Run each rank's local experts over its grouped input buffer."""
        return self.engine.run_experts(
            expert_inputs, plan, per_rank_w1, per_rank_w2, activation=activation
        )

    def combine(
        self,
        per_rank_expert_outputs: list[np.ndarray],
        plan: DispatchPlan,
        num_tokens_per_rank: list[int],
        **fused,
    ) -> list[np.ndarray]:
        """Weighted combine with the reverse of the two-stage dispatch.

        ``fused`` forwards the engine's ``program=`` / ``workspace=``.
        """
        return self.engine.combine(
            per_rank_expert_outputs, plan, num_tokens_per_rank, **fused
        )
