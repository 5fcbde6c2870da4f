"""DeepSpeed-MoE / GShard style zero-padded MoE layer.

This is the conventional pipeline of §3.1 and Appendix B.1: every expert
gets a fixed-capacity ``C`` buffer, unused slots are zero-padded, excess
tokens are dropped, and the padded ``E*C`` buffer runs through the expert
GEMMs.  Two properties matter for the reproduction:

* the zero padding inflates both activation memory and communication volume
  (the padded buffer is ``E*C*H`` regardless of how many tokens are real);
* capacity keeps each expert's first ``C`` assignments in token order, and
  the softmax top-k router's ``score_threshold`` drops an assignment whose
  raw routing score is negative even if capacity remains (§5.6), which is
  why its loss curve sits slightly above X-MoE's.

:class:`PaddedMoELayer` is the single-process functional version used by the
loss-validation experiment and the kernel-level comparisons.  Its forward
body is :class:`~repro.moe.layer.MoELayer`'s; only the layout is its own.
Tutel runs this same layout; its fp32 combine buffer is
:meth:`~repro.moe.layer.MoELayerStats.combine_buffer_bytes`.
"""

from __future__ import annotations

import numpy as np

from repro.moe.experts import ExpertBank
from repro.moe.gating import TopKGate
from repro.moe.layer import MoELayer
from repro.routing.policies import RoutingDecision


class PaddedMoELayer(MoELayer):
    """Single-process functional DeepSpeed-MoE style layer."""

    def __init__(
        self, gate: TopKGate, experts: ExpertBank, capacity_factor: float = 1.25
    ):
        if capacity_factor is None:
            raise ValueError("the padded layout needs a capacity factor")
        super().__init__(gate, experts, capacity_factor)

    def _layout(self, decision: RoutingDecision, capacity: int):
        """Keep each expert's first ``capacity`` policy-kept assignments in
        token order (GShard) and place each at row ``expert * C + position``.

        Works from the :class:`RoutingDecision`, so any router policy,
        including assignment-level expert-choice routing, can drive the
        padded baseline.
        """
        keep = ~decision.dropped
        token_idx = decision.token_ids[keep]
        expert_idx = decision.expert_ids[keep]

        # Position of each surviving assignment within its expert, in token
        # order (stable sort preserves token order inside each expert group).
        order = np.argsort(expert_idx, kind="stable")
        sorted_experts = expert_idx[order]
        counts = np.bincount(sorted_experts, minlength=self.gate.num_experts)
        starts = np.concatenate([[0], np.cumsum(counts)[:-1]])
        positions = np.empty_like(order)
        positions[order] = np.arange(sorted_experts.size) - starts[sorted_experts]

        within = positions < capacity
        expert_idx = expert_idx[within]
        return (
            token_idx[within],
            expert_idx,
            expert_idx * capacity + positions[within],
            np.full(self.gate.num_experts, capacity, dtype=np.int64),
        )
