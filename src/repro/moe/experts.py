"""Banks of fine-grained expert FFNs.

An :class:`ExpertBank` holds the weights of all (local) experts of one MoE
layer as stacked arrays ``w1: [E, H, F]`` and ``w2: [E, F, H]``.  Every
layout runs them the same way, as the sequential GEMM of §4.1.2: one GEMM
per expert over that expert's buffer rows.  For the padding-free layout
these are exactly the tokens routed to it; for the capacity-padded
baseline they are its ``C`` rows, zero padding included (silu/relu/gelu
map a zero row to a zero row, so padding costs FLOPs, not results).  The
whole loop is one tape node, :func:`repro.tensor.ops.grouped_ffn`, with a
hand-written vector-Jacobian product (VJP) that writes each expert's
gradient slice once.
"""

from __future__ import annotations

import numpy as np

from repro.tensor.autograd import Tensor
from repro.tensor import ops


class ExpertBank:
    """Weights and execution helpers for the experts of one MoE layer."""

    def __init__(
        self,
        num_experts: int,
        hidden_size: int,
        ffn_hidden_size: int,
        *,
        rng: np.random.Generator | None = None,
        activation: str = "silu",
    ):
        if num_experts <= 0:
            raise ValueError("num_experts must be positive")
        if activation not in ops.ACTIVATIONS:
            raise ValueError(
                f"unknown activation {activation!r}; available: {sorted(ops.ACTIVATIONS)}"
            )
        rng = rng or np.random.default_rng(0)
        self.num_experts = num_experts
        self.hidden_size = hidden_size
        self.ffn_hidden_size = ffn_hidden_size
        self.activation = activation
        std_in = 1.0 / np.sqrt(hidden_size)
        std_out = 1.0 / np.sqrt(ffn_hidden_size)
        self.w1 = Tensor(
            rng.normal(0.0, std_in, size=(num_experts, hidden_size, ffn_hidden_size)),
            requires_grad=True,
        )
        self.w2 = Tensor(
            rng.normal(0.0, std_out, size=(num_experts, ffn_hidden_size, hidden_size)),
            requires_grad=True,
        )

    def parameters(self) -> list[Tensor]:
        return [self.w1, self.w2]

    @property
    def params_per_expert(self) -> int:
        return 2 * self.hidden_size * self.ffn_hidden_size

    # ------------------------------------------------------------------
    def forward_sequential(
        self, tokens: Tensor, tokens_per_expert: np.ndarray
    ) -> Tensor:
        """Sequential-GEMM execution over a padding-free token buffer.

        ``tokens`` is ``[B, H]`` with tokens grouped by expert id (ascending)
        and ``tokens_per_expert[e]`` gives each group's length.  Only experts
        with at least one token launch a GEMM, exactly like the loop in
        §4.1.2 of the paper; see :func:`repro.tensor.ops.grouped_ffn`.
        """
        return ops.grouped_ffn(
            tokens, self.w1, self.w2, tokens_per_expert, self.activation
        )
