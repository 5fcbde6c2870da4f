"""The padding-free MoE pipeline (single process).

:class:`PaddingFreeMoELayer` is the autograd version that plugs into
:class:`~repro.moe.transformer.MoETransformerLM`.  It follows Listing 1
exactly: gating → PFT construction → gather → sequential GEMM → weighted
scatter, with no zero padding anywhere.  It trains the loss-validation
model (Fig. 15) against the padded baseline.

The multi-rank version, which moves PFT rows over a
:class:`~repro.comm.process_group.ProcessGroup` with real uneven
all-to-alls, is :func:`repro.routing.make_dispatcher`: ``kind="flat"`` is
the correctness oracle that ``"rbd"`` and ``"hier"`` are compared against.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.baselines.deepspeed_moe import compute_capacity
from repro.moe.experts import ExpertBank
from repro.moe.gating import TopKGate
from repro.tensor import ops
from repro.tensor.autograd import Tensor
from repro.xmoe.pft import PFT


@dataclass
class PaddingFreeStats:
    """Bookkeeping from one padding-free forward pass."""

    num_tokens: int
    num_routed_tokens: int
    capacity: int
    num_experts: int
    hidden_size: int
    dropped_assignments: int
    dtype_bytes: int = 8

    @property
    def dispatch_buffer_bytes(self) -> int:
        """Bytes of the padding-free dispatched token buffer (``B * H``)."""
        return self.num_routed_tokens * self.hidden_size * self.dtype_bytes

    @property
    def alltoall_bytes(self) -> int:
        """Bytes one dispatch all-to-all moves (only real tokens travel)."""
        return self.dispatch_buffer_bytes

    @property
    def padding_fraction(self) -> float:
        """Always zero — kept for symmetry with the padded baseline stats."""
        return 0.0


class PaddingFreeMoELayer:
    """Single-process functional X-MoE layer (Listing 1 semantics)."""

    def __init__(
        self,
        gate: TopKGate,
        experts: ExpertBank,
        capacity_factor: float = 1.25,
    ):
        if gate.num_experts != experts.num_experts:
            raise ValueError("gate and expert bank disagree on the expert count")
        self.gate = gate
        self.experts = experts
        self.capacity_factor = capacity_factor
        self.last_stats: PaddingFreeStats | None = None
        self.last_pft: PFT | None = None
        self._step = 0  # decorrelates router exploration noise across calls

    def parameters(self) -> list[Tensor]:
        """All trainable tensors: gate weight plus expert banks."""
        return self.gate.parameters() + self.experts.parameters()

    def __call__(self, tokens: Tensor) -> tuple[Tensor, Tensor]:
        """Forward ``[S, H]`` tokens; returns ``(output, aux_loss)``."""
        gate_out = self.gate(tokens, step=self._step)
        self._step += 1
        s, h = tokens.shape
        e = self.gate.num_experts
        k = self.gate.top_k
        capacity = compute_capacity(s, k, e, self.capacity_factor)

        # Policy drops are filtered inside to_pft, then the standard
        # capacity rule applies.
        pft = gate_out.decision.to_pft(capacity)
        self.last_pft = pft

        # Dispatch: gather routed tokens into an expert-grouped buffer.
        dispatched = ops.gather_rows(tokens, pft.token_ids)
        # Experts: one GEMM per expert over exactly its tokens.
        expert_out = self.experts.forward_sequential(dispatched, pft.tokens_per_expert)
        # Combine: scatter back to sequence positions, scaled by gate probs.
        combine_weights = gate_out.probs[pft.token_ids, pft.expert_ids]
        output = ops.scatter_rows(expert_out, pft.token_ids, s, weights=combine_weights)

        self.last_stats = PaddingFreeStats(
            num_tokens=s,
            num_routed_tokens=pft.num_routed_tokens,
            capacity=capacity,
            num_experts=e,
            hidden_size=h,
            dropped_assignments=pft.dropped_assignments,
        )
        return output, gate_out.aux_loss
