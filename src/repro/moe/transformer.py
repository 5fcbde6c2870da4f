"""A small MoE transformer language model with pluggable MoE pipelines.

The model exists to reproduce the loss-validation experiment (Fig. 15):
trained twice with bit-identical weights and data but two different MoE
*pipelines* — the zero-padded DeepSpeed-MoE style pipeline and X-MoE's
padding-free PFT pipeline — the two loss curves must closely track each
other, with X-MoE slightly lower late in training because its capacity-only
dropping policy retains more tokens.

The MoE pipeline is injected via ``moe_layer_factory``: a callable that
receives the per-layer :class:`~repro.moe.gating.TopKGate` and
:class:`~repro.moe.experts.ExpertBank` (already initialized, so weights are
shared between pipeline choices) plus the capacity factor, and returns an
object with ``__call__(tokens) -> (output, aux_loss)``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Protocol

import numpy as np

from repro.moe.blocks import CausalSelfAttention, LayerNorm, Linear
from repro.moe.experts import ExpertBank
from repro.moe.gating import TopKGate
from repro.routing.policies import ROUTER_POLICY_NAMES, make_policy
from repro.tensor import ops
from repro.tensor.autograd import Tensor


class MoELayerProtocol(Protocol):
    """Interface a MoE pipeline must implement to plug into the model."""

    def __call__(self, tokens: Tensor) -> tuple[Tensor, Tensor]:
        """Process ``[S, H]`` tokens; return ``(output [S, H], aux_loss)``."""

    def parameters(self) -> list[Tensor]:
        """Trainable parameters owned by the pipeline (gate + experts)."""


MoELayerFactory = Callable[[TopKGate, ExpertBank, float], MoELayerProtocol]


@dataclass(frozen=True)
class TransformerConfig:
    """Architecture of the tiny validation transformer.

    ``router`` names a registered :mod:`repro.routing.policies` policy that
    every MoE layer builds through ``make_policy``.  ``score_threshold``
    turns on the softmax top-k router's negative-score dropping
    (DeepSpeed-MoE's rule, §5.6); it is rejected for routers that have no
    such knob.
    """

    vocab_size: int = 512
    hidden_size: int = 64
    ffn_hidden_size: int = 32
    num_experts: int = 8
    top_k: int = 2
    num_layers: int = 2
    seq_length: int = 64
    capacity_factor: float = 1.25
    score_threshold: bool = False
    aux_loss_coef: float = 0.01
    router: str = "softmax-topk"
    router_seed: int = 0

    def __post_init__(self) -> None:
        if self.top_k > self.num_experts:
            raise ValueError("top_k cannot exceed num_experts")
        if min(
            self.vocab_size,
            self.hidden_size,
            self.ffn_hidden_size,
            self.num_layers,
            self.seq_length,
        ) <= 0:
            raise ValueError("all transformer dimensions must be positive")
        if self.router not in ROUTER_POLICY_NAMES:
            raise ValueError(
                f"unknown router policy {self.router!r}; "
                f"available: {sorted(ROUTER_POLICY_NAMES)}"
            )


class _TransformerLayer:
    """One pre-norm transformer layer with an MoE FFN."""

    def __init__(
        self,
        config: TransformerConfig,
        rng: np.random.Generator,
        moe_layer_factory: MoELayerFactory,
    ):
        self.ln1 = LayerNorm(config.hidden_size)
        self.attn = CausalSelfAttention(config.hidden_size, rng)
        self.ln2 = LayerNorm(config.hidden_size)
        # Only a set knob is passed, so a router without one raises.
        knobs = {"score_threshold": True} if config.score_threshold else {}
        policy = make_policy(
            config.router,
            config.hidden_size,
            config.num_experts,
            config.top_k,
            capacity_factor=config.capacity_factor,
            aux_loss_coef=config.aux_loss_coef,
            seed=config.router_seed,
            **knobs,
        )
        gate = TopKGate(
            config.hidden_size,
            config.num_experts,
            config.top_k,
            rng=rng,
            aux_loss_coef=config.aux_loss_coef,
            policy=policy,
        )
        experts = ExpertBank(
            config.num_experts,
            config.hidden_size,
            config.ffn_hidden_size,
            rng=rng,
        )
        self.moe = moe_layer_factory(gate, experts, config.capacity_factor)

    def __call__(self, x: Tensor) -> tuple[Tensor, Tensor]:
        x = x + self.attn(self.ln1(x))
        moe_out, aux = self.moe(self.ln2(x))
        return x + moe_out, aux

    def parameters(self) -> list[Tensor]:
        params = self.ln1.parameters() + self.attn.parameters() + self.ln2.parameters()
        params += self.moe.parameters()
        return params


class MoETransformerLM:
    """Decoder-only MoE language model on the autograd substrate."""

    def __init__(
        self,
        config: TransformerConfig,
        moe_layer_factory: MoELayerFactory,
        *,
        seed: int = 0,
    ):
        self.config = config
        rng = np.random.default_rng(seed)
        self.embedding = Tensor(
            rng.normal(0.0, 0.02, size=(config.vocab_size, config.hidden_size)),
            requires_grad=True,
        )
        self.layers = [
            _TransformerLayer(config, rng, moe_layer_factory)
            for _ in range(config.num_layers)
        ]
        self.final_ln = LayerNorm(config.hidden_size)
        self.lm_head = Linear(config.hidden_size, config.vocab_size, rng)

    def parameters(self) -> list[Tensor]:
        params = [self.embedding]
        for layer in self.layers:
            params.extend(layer.parameters())
        params.extend(self.final_ln.parameters())
        params.extend(self.lm_head.parameters())
        return params

    def num_parameters(self) -> int:
        return sum(p.size for p in self.parameters())

    def forward(self, token_ids: np.ndarray) -> tuple[Tensor, Tensor]:
        """Forward a ``[S]`` token-id sequence; returns (logits, total aux loss)."""
        token_ids = np.asarray(token_ids, dtype=np.int64)
        if token_ids.ndim != 1:
            raise ValueError(f"expected a 1-D token sequence, got shape {token_ids.shape}")
        x = ops.embedding(self.embedding, token_ids)
        total_aux = Tensor(np.zeros(()))
        for layer in self.layers:
            x, aux = layer(x)
            total_aux = total_aux + aux
        x = self.final_ln(x)
        logits = self.lm_head(x)
        return logits, total_aux

    def loss(self, token_ids: np.ndarray) -> tuple[Tensor, float]:
        """Next-token LM loss over a sequence; returns (loss tensor, lm loss value)."""
        token_ids = np.asarray(token_ids, dtype=np.int64)
        inputs, targets = token_ids[:-1], token_ids[1:]
        logits, aux = self.forward(inputs)
        lm_loss = ops.cross_entropy(logits, targets)
        total = lm_loss + aux
        return total, float(lm_loss.data)
