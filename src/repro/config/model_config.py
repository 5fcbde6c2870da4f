"""MoE model architecture configuration.

The central object is :class:`MoEModelConfig`, which describes a
transformer language model whose FFN blocks are replaced by MoE layers in
the DeepSeek / expert-specialized style: many fine-grained experts with a
large top-k routing value.

Parameter counting follows the conventions of the paper (Section 3.2 and
Table 3): an MoE layer's expert parameters are ``2 * E * H * H_FFN`` (two
projection matrices per expert, gate/up fused into the ``2``), attention
contributes ``4 * H^2`` per layer, and the router contributes ``E * H``.
The goal is not bit-exact parity with DeepSeek checkpoints but producing
total / activated parameter counts that match Table 3 closely (10.1B,
55.2B, 201.4B, 545.4B total; 1.3B, 5.2B, 11.5B, 28.7B activated).
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass


@dataclass(frozen=True)
class MoEModelConfig:
    """Architecture of an expert-specialized MoE transformer.

    Attributes
    ----------
    name:
        Human-readable identifier (e.g. ``"small"``).
    seq_length:
        Training sequence length ``S``.
    hidden_size:
        Model (residual stream) dimension ``H``.
    ffn_hidden_size:
        Per-expert FFN intermediate dimension ``H_FFN``.
    num_experts:
        Number of routed experts per MoE layer ``E``.
    top_k:
        Number of experts activated per token ``k``.
    num_layers:
        Number of transformer layers; every layer holds one MoE block.
    num_shared_experts:
        DeepSeek-style always-active shared experts (0 disables them).
    vocab_size:
        Vocabulary size used for the embedding / LM head.
    capacity_factor:
        Expert capacity factor ``c`` used by capacity-based dispatchers.
    dtype_bytes:
        Bytes per element of activations / parameters (2 for bf16/fp16).
    moe_layer_frequency:
        Place an MoE block every ``moe_layer_frequency`` layers; remaining
        layers use a dense FFN of width ``dense_ffn_hidden_size``.
    dense_ffn_hidden_size:
        Width of dense FFN layers (defaults to ``4 * hidden_size``).
    router:
        Router-policy spec: the name of a registered
        :mod:`repro.routing.policies` policy (``"softmax-topk"``,
        ``"switch-top1"``, ``"noisy-topk"``, ``"expert-choice"``).
        ``repro.xmoe.trainer.policy_for_config`` instantiates it.
    """

    name: str
    seq_length: int
    hidden_size: int
    ffn_hidden_size: int
    num_experts: int
    top_k: int
    num_layers: int
    num_shared_experts: int = 0
    vocab_size: int = 51200
    capacity_factor: float = 1.25
    dtype_bytes: int = 2
    moe_layer_frequency: int = 1
    dense_ffn_hidden_size: int | None = None
    router: str = "softmax-topk"

    def __post_init__(self) -> None:
        if self.seq_length <= 0:
            raise ValueError(f"seq_length must be positive, got {self.seq_length}")
        if self.hidden_size <= 0:
            raise ValueError(f"hidden_size must be positive, got {self.hidden_size}")
        if self.ffn_hidden_size <= 0:
            raise ValueError(
                f"ffn_hidden_size must be positive, got {self.ffn_hidden_size}"
            )
        if self.num_experts <= 0:
            raise ValueError(f"num_experts must be positive, got {self.num_experts}")
        if not (1 <= self.top_k <= self.num_experts):
            raise ValueError(
                f"top_k must be in [1, num_experts={self.num_experts}], got {self.top_k}"
            )
        if self.num_layers <= 0:
            raise ValueError(f"num_layers must be positive, got {self.num_layers}")
        if self.capacity_factor <= 0:
            raise ValueError(
                f"capacity_factor must be positive, got {self.capacity_factor}"
            )
        if self.moe_layer_frequency <= 0:
            raise ValueError(
                "moe_layer_frequency must be positive, got "
                f"{self.moe_layer_frequency}"
            )
        # Imported lazily: repro.routing pulls in the comm/cluster stack,
        # which itself reads repro.config.hardware at import time.
        from repro.routing.policies import ROUTER_POLICY_NAMES

        if self.router not in ROUTER_POLICY_NAMES:
            raise ValueError(
                f"unknown router policy {self.router!r}; "
                f"available: {sorted(ROUTER_POLICY_NAMES)}"
            )

    # ------------------------------------------------------------------
    # Derived quantities
    # ------------------------------------------------------------------
    @property
    def dense_ffn_width(self) -> int:
        """Width of non-MoE FFN layers."""
        if self.dense_ffn_hidden_size is not None:
            return self.dense_ffn_hidden_size
        return 4 * self.hidden_size

    @property
    def num_moe_layers(self) -> int:
        """Number of layers that contain an MoE block."""
        return self.num_layers // self.moe_layer_frequency

    @property
    def num_dense_layers(self) -> int:
        """Number of layers with a dense FFN instead of an MoE block."""
        return self.num_layers - self.num_moe_layers

    # -- per-layer parameter counts ------------------------------------
    def expert_params_per_expert(self) -> int:
        """Parameters in a single expert FFN (two projections)."""
        return 2 * self.hidden_size * self.ffn_hidden_size

    def moe_layer_expert_params(self) -> int:
        """Routed + shared expert parameters in one MoE layer."""
        routed = self.num_experts * self.expert_params_per_expert()
        shared = self.num_shared_experts * self.expert_params_per_expert()
        return routed + shared

    def router_params(self) -> int:
        """Router (gating) projection parameters in one MoE layer."""
        return self.hidden_size * self.num_experts

    def attention_params(self) -> int:
        """Attention parameters per layer (Q, K, V, O projections)."""
        return 4 * self.hidden_size * self.hidden_size

    def dense_ffn_params(self) -> int:
        """Dense FFN parameters per non-MoE layer."""
        return 2 * self.hidden_size * self.dense_ffn_width

    def embedding_params(self) -> int:
        """Token embedding parameters (tied LM head assumed)."""
        return self.vocab_size * self.hidden_size

    # -- model-level parameter counts ----------------------------------
    def total_params(self) -> int:
        """Total parameter count of the model."""
        per_moe_layer = (
            self.attention_params()
            + self.moe_layer_expert_params()
            + self.router_params()
        )
        per_dense_layer = self.attention_params() + self.dense_ffn_params()
        return (
            self.num_moe_layers * per_moe_layer
            + self.num_dense_layers * per_dense_layer
            + self.embedding_params()
        )

    def activated_params(self) -> int:
        """Parameters touched by a single token in the forward pass."""
        activated_experts = self.top_k + self.num_shared_experts
        per_moe_layer = (
            self.attention_params()
            + activated_experts * self.expert_params_per_expert()
            + self.router_params()
        )
        per_dense_layer = self.attention_params() + self.dense_ffn_params()
        return (
            self.num_moe_layers * per_moe_layer
            + self.num_dense_layers * per_dense_layer
            + self.embedding_params()
        )

    # -- FLOPs accounting -----------------------------------------------
    def flops_per_token_layer(self) -> float:
        """Forward FLOPs per token in one MoE transformer layer."""
        attn = 8 * self.hidden_size * self.hidden_size
        # Attention score/value matmuls scale with sequence length.
        attn += 4 * self.hidden_size * self.seq_length
        router = 2 * self.hidden_size * self.num_experts
        experts = (
            (self.top_k + self.num_shared_experts)
            * 2
            * self.expert_params_per_expert()
        )
        return attn + router + experts

    def flops_per_token(self) -> float:
        """Forward FLOPs per token for the full model."""
        per_moe = self.flops_per_token_layer()
        per_dense = (
            8 * self.hidden_size * self.hidden_size
            + 4 * self.hidden_size * self.seq_length
            + 2 * self.dense_ffn_params()
        )
        return self.num_moe_layers * per_moe + self.num_dense_layers * per_dense

    def train_flops_per_token(self) -> float:
        """Training FLOPs per token (forward + backward ≈ 3x forward)."""
        return 3.0 * self.flops_per_token()

    # -- utilities -------------------------------------------------------
    def scaled(self, **overrides) -> "MoEModelConfig":
        """Return a copy of this config with the given fields replaced."""
        return dataclasses.replace(self, **overrides)

    @property
    def fine_grained_factor(self) -> int:
        """The paper's ``m``: how many fine-grained experts replace one
        conventional expert.  Approximated as ``top_k`` for specialized
        models and 1 for small-k models."""
        return max(1, self.top_k // 2) if self.top_k > 2 else 1

    def summary(self) -> dict:
        """A dictionary of the headline numbers for reporting."""
        return {
            "name": self.name,
            "seq_length": self.seq_length,
            "hidden_size": self.hidden_size,
            "ffn_hidden_size": self.ffn_hidden_size,
            "num_experts": self.num_experts,
            "top_k": self.top_k,
            "num_layers": self.num_layers,
            "router": self.router,
            "total_params_B": self.total_params() / 1e9,
            "activated_params_B": self.activated_params() / 1e9,
        }


# ----------------------------------------------------------------------
# Paper configurations (Table 3)
# ----------------------------------------------------------------------
def small_config() -> MoEModelConfig:
    """The 10.1B "Small" model of Table 3."""
    return MoEModelConfig(
        name="small",
        seq_length=2048,
        hidden_size=2048,
        ffn_hidden_size=1408,
        num_experts=64,
        top_k=6,
        num_layers=28,
    )


def medium_config() -> MoEModelConfig:
    """The 55.2B "Medium" model of Table 3."""
    return MoEModelConfig(
        name="medium",
        seq_length=4096,
        hidden_size=5120,
        ffn_hidden_size=1536,
        num_experts=128,
        top_k=6,
        num_layers=28,
    )


def large_config() -> MoEModelConfig:
    """The 201.4B "Large" model of Table 3."""
    return MoEModelConfig(
        name="large",
        seq_length=4096,
        hidden_size=7168,
        ffn_hidden_size=2048,
        num_experts=256,
        top_k=8,
        num_layers=28,
    )


def super_config() -> MoEModelConfig:
    """The 545.4B "Super" model of Table 3."""
    return MoEModelConfig(
        name="super",
        seq_length=4096,
        hidden_size=7168,
        ffn_hidden_size=2560,
        num_experts=256,
        top_k=8,
        num_layers=61,
    )


def small_sr_config() -> MoEModelConfig:
    """Table 5's "Small-SR": Small with the sequence length halved to 1024."""
    return small_config().scaled(name="small-sr", seq_length=1024)


def small_lr_config() -> MoEModelConfig:
    """Table 5's "Small-LR": Small with the layer count halved to 14."""
    return small_config().scaled(name="small-lr", num_layers=14)


PAPER_CONFIGS = {
    "small": small_config,
    "medium": medium_config,
    "large": large_config,
    "super": super_config,
    "small-sr": small_sr_config,
    "small-lr": small_lr_config,
}


def paper_config(name: str) -> MoEModelConfig:
    """Look up one of the paper's evaluation configurations by name."""
    key = name.lower()
    if key not in PAPER_CONFIGS:
        raise KeyError(
            f"unknown paper config {name!r}; available: {sorted(PAPER_CONFIGS)}"
        )
    return PAPER_CONFIGS[key]()
