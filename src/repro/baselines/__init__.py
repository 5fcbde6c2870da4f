"""Baseline MoE training systems the paper compares against.

Each baseline reproduces the *algorithmic* behaviour of the corresponding
system's MoE layer — how tokens are dispatched, how much padding is
created, which dtype the combine buffer uses, how the model is sharded —
because those properties (not CUDA kernel details) are what the paper's
comparisons measure.

* :mod:`repro.baselines.deepspeed_moe` — :class:`PaddedMoELayer`, the
  GShard-style capacity-padded layout of the one
  :class:`~repro.moe.layer.MoELayer` pipeline: fixed expert capacity kept
  first-come in token order, zero padding, and the negative-score
  token-dropping policy (§5.6).
* :mod:`repro.baselines.ted` — DeepSpeed-TED: tensor-expert-data three-way
  sharding description used by the memory/throughput models.

Tutel and Megablocks execute no layout of their own.  Tutel is the padded
layout with an fp32 combine buffer on AMD GPUs
(:meth:`~repro.moe.layer.MoELayerStats.combine_buffer_bytes`); Megablocks is
the no-drop padding-free layout (``PaddingFreeMoELayer(...,
capacity_factor=None)``) with each expert group rounded up to a GEMM block
(:meth:`~repro.moe.layer.MoELayerStats.block_padded_rows`).
"""

from repro.baselines.deepspeed_moe import PaddedMoELayer
from repro.baselines.ted import TEDShardingModel

__all__ = [
    "PaddedMoELayer",
    "TEDShardingModel",
]
