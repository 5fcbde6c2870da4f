"""One single-process MoE layer: gate → capacity → layout → experts → combine.

The systems the paper compares (§3.1, Appendix B.1) run the same pipeline
and differ only in the expert buffer's layout.  :class:`MoELayer` owns that
pipeline once; a subclass supplies only :meth:`MoELayer._layout`, which maps
the gate's :class:`~repro.routing.policies.RoutingDecision` and the GShard
capacity to the kept ``(token, expert)`` assignments, their rows in the
expert buffer, and the rows each expert's GEMM runs over.  Two layouts
execute differently:

* padding-free (X-MoE's PFT, :class:`repro.xmoe.pipeline.PaddingFreeMoELayer`):
  the buffer is exactly the kept assignments, and capacity keeps each
  expert's highest scores;
* capacity-padded (DeepSpeed-MoE / GShard,
  :class:`repro.baselines.PaddedMoELayer`): every expert owns ``C`` buffer
  rows, zero rows included, and capacity keeps each expert's first ``C``
  assignments in token order.

Tutel and Megablocks are accounting on :class:`MoELayerStats`: Tutel is
the padded layout with an fp32 combine buffer
(:meth:`MoELayerStats.combine_buffer_bytes`), Megablocks the no-drop
padding-free layout rounded up to GEMM blocks
(:meth:`MoELayerStats.block_padded_rows`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from repro.moe.experts import ExpertBank
from repro.moe.gating import TopKGate
from repro.routing.policies import RoutingDecision
from repro.tensor import ops
from repro.tensor.autograd import Tensor


def compute_capacity(num_tokens: int, top_k: int, num_experts: int, capacity_factor: float) -> int:
    """GShard expert capacity: ``ceil(c * S * k / E)``, at least 1."""
    if num_tokens <= 0:
        raise ValueError("num_tokens must be positive")
    return max(1, math.ceil(capacity_factor * num_tokens * top_k / num_experts))


@dataclass
class MoELayerStats:
    """Bookkeeping from one MoE layer forward, for every layout.

    ``tokens_per_expert`` counts the kept assignments per expert and
    ``buffer_rows`` the expert-buffer rows the GEMMs ran over (``E * C``
    for the padded layout, the kept assignments for the padding-free one).
    """

    num_tokens: int
    num_assignments: int
    capacity: int | None
    hidden_size: int
    tokens_per_expert: np.ndarray
    buffer_rows: int
    dropped_by_policy: int
    dtype_bytes: int = 8

    @property
    def kept_assignments(self) -> int:
        return int(self.tokens_per_expert.sum())

    @property
    def dropped_by_capacity(self) -> int:
        return self.num_assignments - self.dropped_by_policy - self.kept_assignments

    @property
    def padding_fraction(self) -> float:
        """Fraction of expert-buffer rows that hold zero padding."""
        if self.buffer_rows == 0:
            return 0.0
        return 1.0 - self.kept_assignments / self.buffer_rows

    @property
    def dispatch_buffer_bytes(self) -> int:
        """Bytes of the expert buffer (``[E, C, H]`` padded, ``[B, H]`` PFT)."""
        return self.buffer_rows * self.hidden_size * self.dtype_bytes

    @property
    def dispatch_mask_bytes(self) -> int:
        """Bytes of the dense ``[S, rows]`` dispatch mask a GShard einsum over
        this buffer materializes (``[S, E, C]`` for the padded layout)."""
        return self.num_tokens * self.buffer_rows * self.dtype_bytes

    @property
    def alltoall_bytes(self) -> int:
        """Bytes one dispatch all-to-all moves: the whole buffer."""
        return self.dispatch_buffer_bytes

    def block_padded_rows(self, block_size: int) -> int:
        """Rows after rounding each non-empty expert group up to a multiple
        of ``block_size`` (Megablocks' block-sparse GEMM)."""
        if block_size <= 0:
            raise ValueError("block_size must be positive")
        return int((-(-self.tokens_per_expert // block_size) * block_size).sum())

    def combine_buffer_bytes(self, dtype_bytes: int) -> int:
        """Bytes of the combine-stage buffer held in ``dtype_bytes`` (Tutel
        keeps it in fp32 on AMD GPUs, Table 4)."""
        return self.buffer_rows * self.hidden_size * dtype_bytes


class MoELayer:
    """The shared forward; subclasses choose the expert buffer's layout.

    Implements :class:`~repro.moe.transformer.MoELayerProtocol`.
    ``capacity_factor=None`` applies no capacity cap.
    """

    def __init__(
        self,
        gate: TopKGate,
        experts: ExpertBank,
        capacity_factor: float | None = 1.25,
    ):
        if gate.num_experts != experts.num_experts:
            raise ValueError("gate and expert bank disagree on the expert count")
        self.gate = gate
        self.experts = experts
        self.capacity_factor = capacity_factor
        self.last_stats: MoELayerStats | None = None
        self._step = 0  # decorrelates router exploration noise across calls

    def parameters(self) -> list[Tensor]:
        """All trainable tensors: gate weight plus expert banks."""
        return self.gate.parameters() + self.experts.parameters()

    def _layout(
        self, decision: RoutingDecision, capacity: int | None
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray | None, np.ndarray]:
        """``(token_idx, expert_idx, buffer_rows, rows_per_expert)``.

        The kept assignments and, when the buffer holds more rows than
        there are kept assignments, each one's row in it (``None`` when the
        kept assignments already are the buffer, grouped by expert).
        """
        raise NotImplementedError

    def __call__(self, tokens: Tensor) -> tuple[Tensor, Tensor]:
        """Forward ``[S, H]`` tokens; returns ``(output, aux_loss)``."""
        gate_out = self.gate(tokens, step=self._step)
        self._step += 1
        s, h = tokens.shape
        e = self.gate.num_experts
        capacity = (
            None
            if self.capacity_factor is None
            else compute_capacity(s, self.gate.top_k, e, self.capacity_factor)
        )
        decision = gate_out.decision
        token_idx, expert_idx, buffer_rows, rows_per_expert = self._layout(decision, capacity)
        num_rows = int(rows_per_expert.sum())

        # Dispatch: gather the kept tokens, then place them in the buffer.
        rows = ops.gather_rows(tokens, token_idx)
        if buffer_rows is not None:
            rows = ops.scatter_rows(rows, buffer_rows, num_rows)
        # Experts: one GEMM per expert over its rows.
        expert_out = self.experts.forward_sequential(rows, rows_per_expert)
        if buffer_rows is not None:
            expert_out = ops.gather_rows(expert_out, buffer_rows)
        # Combine: scatter back to sequence positions, scaled by gate probs.
        combine_weights = gate_out.probs[token_idx, expert_idx]
        output = ops.scatter_rows(expert_out, token_idx, s, weights=combine_weights)

        self.last_stats = MoELayerStats(
            num_tokens=s,
            num_assignments=decision.num_assignments,
            capacity=capacity,
            hidden_size=h,
            tokens_per_expert=(
                rows_per_expert
                if buffer_rows is None
                else np.bincount(expert_idx, minlength=e)
            ),
            buffer_rows=num_rows,
            dropped_by_policy=decision.num_dropped,
        )
        return output, gate_out.aux_loss
