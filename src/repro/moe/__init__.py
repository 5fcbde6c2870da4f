"""MoE model substrate: gating, experts, transformer blocks, synthetic data.

This package contains the *model* side of the reproduction — everything a
training system (the baselines in :mod:`repro.baselines` or X-MoE in
:mod:`repro.xmoe`) operates on:

* :mod:`repro.moe.gating` — top-k gating with load-balancing auxiliary loss;
  selection and dropping are delegated to a router policy.
* :mod:`repro.moe.experts` — banks of fine-grained expert FFNs.
* :mod:`repro.moe.layer` — the one single-process MoE layer pipeline
  (gate → capacity → layout → grouped experts → weighted combine), its
  stats record, and the GShard capacity formula.
* :mod:`repro.moe.blocks` — dense attention / FFN / layer-norm blocks.
* :mod:`repro.moe.transformer` — a small MoE transformer LM whose MoE layer
  implementation is pluggable (padded baseline vs padding-free X-MoE).
* :mod:`repro.moe.data` — synthetic Zipf-distributed language-modelling data.
"""

from repro.moe.gating import TopKGate, GateOutput
from repro.moe.experts import ExpertBank
from repro.moe.layer import MoELayer, MoELayerStats, compute_capacity
from repro.moe.blocks import Linear, LayerNorm, CausalSelfAttention, DenseFFN
from repro.moe.transformer import MoETransformerLM, TransformerConfig
from repro.moe.data import SyntheticLMDataset, zipf_token_batch

__all__ = [
    "TopKGate",
    "GateOutput",
    "ExpertBank",
    "MoELayer",
    "MoELayerStats",
    "compute_capacity",
    "Linear",
    "LayerNorm",
    "CausalSelfAttention",
    "DenseFFN",
    "MoETransformerLM",
    "TransformerConfig",
    "SyntheticLMDataset",
    "zipf_token_batch",
]
