"""Padding-free "kernels": gather, scatter, sequential GEMM, and a cost model.

The real system implements these as Triton kernels so they run unmodified on
AMD and NVIDIA GPUs (§4.1.2).  Here the same operations are expressed as
vectorized numpy — the semantics (what is moved / multiplied) are identical
and that is what the correctness tests and the relative performance shapes
depend on.  :class:`KernelCostModel` supplies the time estimates the layer
time-breakdown figures (Figs. 11 and 12) are built from, charging each
operation for the bytes it streams and the FLOPs it performs on the target
GPU, with a penalty factor for the uncoalesced / padded access patterns of
the baseline pipeline.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.config.hardware import GPUSpec


# ----------------------------------------------------------------------
# Functional kernels
# ----------------------------------------------------------------------
def gather_kernel(gate_out: np.ndarray, token_ids: np.ndarray) -> np.ndarray:
    """``dispatch_in[i, :] = gate_out[token_ids[i], :]``.

    ``gate_out`` is the ``[S, H]`` output of the gating stage and
    ``token_ids`` the PFT ERI-array of length ``B``.
    """
    gate_out = np.asarray(gate_out)
    token_ids = np.asarray(token_ids, dtype=np.int64)
    if gate_out.ndim != 2:
        raise ValueError(f"gate_out must be [S, H], got shape {gate_out.shape}")
    if token_ids.ndim != 1:
        raise ValueError("token_ids must be 1-D")
    if token_ids.size and (token_ids.min() < 0 or token_ids.max() >= gate_out.shape[0]):
        raise ValueError("token_ids out of range")
    return gate_out[token_ids]


def scatter_kernel(
    combine_in: np.ndarray,
    token_ids: np.ndarray,
    combine_weights: np.ndarray,
    num_tokens: int,
) -> np.ndarray:
    """``out[token_ids[i], :] += combine_in[i, :] * combine_weights[i]``.

    This is the combine-stage scatter: expert outputs are returned to their
    original sequence positions, scaled by the gate probability, and summed
    over the ``k`` experts that processed each token.
    """
    combine_in = np.asarray(combine_in)
    token_ids = np.asarray(token_ids, dtype=np.int64)
    combine_weights = np.asarray(combine_weights, dtype=combine_in.dtype)
    if combine_in.ndim != 2:
        raise ValueError("combine_in must be [B, H]")
    if token_ids.shape[0] != combine_in.shape[0]:
        raise ValueError("token_ids length must match combine_in rows")
    if combine_weights.shape[0] != combine_in.shape[0]:
        raise ValueError("combine_weights length must match combine_in rows")
    if token_ids.size and (token_ids.min() < 0 or token_ids.max() >= num_tokens):
        raise ValueError("token_ids out of range")
    out = np.zeros((num_tokens, combine_in.shape[1]), dtype=combine_in.dtype)
    np.add.at(out, token_ids, combine_in * combine_weights[:, None])
    return out


def sequential_gemm(
    tokens: np.ndarray,
    w1: np.ndarray,
    w2: np.ndarray,
    tokens_per_expert: np.ndarray,
    *,
    activation: str = "silu",
) -> np.ndarray:
    """Per-expert two-layer FFN over an expert-grouped, padding-free buffer.

    ``tokens`` is ``[B, H]`` grouped by expert (ascending expert id);
    ``w1``/``w2`` are ``[E_local, H, F]`` / ``[E_local, F, H]`` stacked
    weights; ``tokens_per_expert`` has ``E_local`` entries summing to ``B``.
    One GEMM is launched per expert that has at least one token — no padding
    anywhere.
    """
    tokens = np.asarray(tokens)
    tokens_per_expert = np.asarray(tokens_per_expert, dtype=np.int64)
    if w1.ndim != 3 or w2.ndim != 3:
        raise ValueError("w1 and w2 must be stacked [E, ..] weight tensors")
    e_local = w1.shape[0]
    if tokens_per_expert.size != e_local:
        raise ValueError(
            f"tokens_per_expert has {tokens_per_expert.size} entries for {e_local} experts"
        )
    if tokens_per_expert.sum() != tokens.shape[0]:
        raise ValueError("tokens_per_expert must sum to the number of token rows")
    out = np.empty((tokens.shape[0], w2.shape[2]), dtype=tokens.dtype)
    offsets = np.concatenate([[0], np.cumsum(tokens_per_expert)])
    for e in range(e_local):
        lo, hi = int(offsets[e]), int(offsets[e + 1])
        if hi == lo:
            continue
        h = tokens[lo:hi] @ w1[e]
        h = _activate(h, activation)
        out[lo:hi] = h @ w2[e]
    return out


#: The activations :func:`sequential_gemm` implements, by name.
GEMM_ACTIVATIONS = {
    "silu": lambda x: x / (1.0 + np.exp(-x)),
    "relu": lambda x: np.maximum(x, 0.0),
    "identity": lambda x: x,
}


def _activate(x: np.ndarray, activation: str) -> np.ndarray:
    if activation not in GEMM_ACTIVATIONS:
        raise ValueError(f"unknown activation {activation!r}")
    return GEMM_ACTIVATIONS[activation](x)


# ----------------------------------------------------------------------
# Kernel cost model
# ----------------------------------------------------------------------
@dataclass
class KernelCostModel:
    """Time estimates for the MoE-layer stages on a given GPU.

    Memory-bound operations (gather, scatter, mask construction) are charged
    ``bytes_streamed / effective_bandwidth``; compute-bound operations
    (expert GEMMs) are charged ``flops / achievable_flops``.  The baseline's
    einsum-based dispatch additionally streams the ``[S, E, C]`` mask and the
    zero-padded buffers, and its uncoalesced fallback path (plain PyTorch
    indexing) gets an efficiency penalty — this is what produces the 5–35x
    gating/dispatch/combine speedups of Fig. 11.
    """

    gpu: GPUSpec
    #: fraction of peak HBM bandwidth achieved by coalesced Triton kernels
    coalesced_efficiency: float = 0.8
    #: fraction achieved by the baseline's uncoalesced indexing fallback
    uncoalesced_efficiency: float = 0.12
    #: fraction of peak FLOPs achieved by large batched GEMMs
    gemm_efficiency: float = 0.5
    #: fraction of peak FLOPs achieved by the small per-expert GEMMs of the
    #: sequential path (launch overhead + small shapes)
    small_gemm_efficiency: float = 0.35
    #: fixed launch overhead per sequential GEMM (seconds)
    gemm_launch_overhead_s: float = 5e-6

    def _bandwidth(self, coalesced: bool) -> float:
        eff = self.coalesced_efficiency if coalesced else self.uncoalesced_efficiency
        return self.gpu.memory_bandwidth_gbps * 1e9 * eff

    def _flops_rate(self, large: bool) -> float:
        eff = self.gemm_efficiency if large else self.small_gemm_efficiency
        return self.gpu.peak_tflops * 1e12 * eff

    # -- memory-bound stages --------------------------------------------
    def gather_time(self, num_rows: int, hidden: int, dtype_bytes: int = 2, *, coalesced: bool = True) -> float:
        """Row-gather: read + write every routed token once."""
        nbytes = 2.0 * num_rows * hidden * dtype_bytes
        return nbytes / self._bandwidth(coalesced)

    def scatter_time(self, num_rows: int, hidden: int, dtype_bytes: int = 2, *, coalesced: bool = True) -> float:
        """Weighted row-scatter: read, scale, and accumulate every routed token."""
        nbytes = 3.0 * num_rows * hidden * dtype_bytes
        return nbytes / self._bandwidth(coalesced)

    def gating_time(self, num_tokens: int, hidden: int, num_experts: int, dtype_bytes: int = 2) -> float:
        """Router projection + softmax + top-k (compute + streaming)."""
        flops = 2.0 * num_tokens * hidden * num_experts
        nbytes = num_tokens * (hidden + 2 * num_experts) * dtype_bytes
        return flops / self._flops_rate(True) + nbytes / self._bandwidth(True)

    def mask_construction_time(self, num_tokens: int, num_experts: int, capacity: int, dtype_bytes: int = 2) -> float:
        """Baseline dispatch-mask build: materializes ``[S, E, C]``."""
        nbytes = float(num_tokens) * num_experts * capacity * dtype_bytes
        return nbytes / self._bandwidth(False)

    def einsum_dispatch_time(
        self, num_tokens: int, num_experts: int, capacity: int, hidden: int, dtype_bytes: int = 2
    ) -> float:
        """Baseline einsum dispatch: ``SEC,SH->ECH`` touching padded buffers."""
        flops = 2.0 * num_tokens * num_experts * capacity * hidden
        nbytes = (
            float(num_tokens) * num_experts * capacity
            + num_tokens * hidden
            + num_experts * capacity * hidden
        ) * dtype_bytes
        # The einsum is effectively bandwidth-bound on the huge sparse mask.
        return max(flops / self._flops_rate(True), nbytes / self._bandwidth(False))

    # -- compute-bound stages ---------------------------------------------
    def padded_expert_gemm_time(self, num_experts_local: int, capacity: int, hidden: int, ffn_hidden: int) -> float:
        """Batched GEMM over fixed-capacity (zero-padded) expert buffers."""
        flops = 4.0 * num_experts_local * capacity * hidden * ffn_hidden
        return flops / self._flops_rate(True)

    def sequential_gemm_time(
        self, tokens_per_expert: np.ndarray, hidden: int, ffn_hidden: int
    ) -> float:
        """Per-expert GEMMs over exactly the routed tokens (no padding)."""
        tokens_per_expert = np.asarray(tokens_per_expert, dtype=np.float64)
        active = tokens_per_expert[tokens_per_expert > 0]
        flops = 4.0 * float(active.sum()) * hidden * ffn_hidden
        return flops / self._flops_rate(False) + active.size * self.gemm_launch_overhead_s
