"""Quickstart: run one expert-specialized MoE layer with the padded baseline
and with X-MoE's padding-free pipeline, and compare outputs, memory, and
padding.

Run:  python examples/quickstart.py
"""

import numpy as np

from repro.baselines import PaddedMoELayer
from repro.moe import ExpertBank, TopKGate
from repro.tensor import Tensor
from repro.xmoe import PaddingFreeMoELayer


def build_layer_pair(hidden=64, experts=32, top_k=6, ffn_hidden=16, seed=0):
    """Two MoE layers (padded / padding-free) sharing bit-identical weights."""
    layers = []
    for cls in (PaddedMoELayer, PaddingFreeMoELayer):
        gate = TopKGate(hidden, experts, top_k, rng=np.random.default_rng(seed))
        bank = ExpertBank(experts, hidden, ffn_hidden, rng=np.random.default_rng(seed + 1))
        # A generous capacity factor so no token is dropped: the two
        # pipelines are then numerically identical and the padded buffers
        # clearly show how much of their space is zero padding.
        layers.append(cls(gate, bank, capacity_factor=2.0))
    return layers


def main():
    rng = np.random.default_rng(42)
    seq_len, hidden = 256, 64
    padded, padding_free = build_layer_pair(hidden=hidden)

    tokens = Tensor(rng.normal(size=(seq_len, hidden)))
    out_padded, _ = padded(tokens)
    out_pfree, _ = padding_free(tokens)

    print("=== X-MoE quickstart: one expert-specialized MoE layer ===")
    print(f"tokens: {seq_len} x {hidden}, experts: 32, top-k: 6, capacity factor 2.0\n")

    ps = padded.last_stats
    fs = padding_free.last_stats
    print("DeepSpeed-MoE style (zero-padded) pipeline:")
    print(f"  expert capacity C                : {ps.capacity}")
    print(f"  padded buffer slots (E*C)        : {ps.buffer_rows}")
    print(f"  real routed tokens               : {ps.kept_assignments}")
    print(f"  padding fraction                 : {ps.padding_fraction:.1%}")
    print(f"  dispatch buffer + mask (KiB)     : "
          f"{(ps.dispatch_buffer_bytes + ps.dispatch_mask_bytes) / 1024:.0f}")

    print("\nX-MoE padding-free (PFT) pipeline:")
    print(f"  routed tokens in PFT buffer      : {fs.kept_assignments}")
    print(f"  padding fraction                 : {fs.padding_fraction:.1%}")
    print(f"  dispatch buffer + ERI (KiB)      : "
          f"{(fs.dispatch_buffer_bytes + padding_free.last_pft.eri_bytes()) / 1024:.0f}")

    max_diff = np.abs(out_padded.data - out_pfree.data).max()
    print(f"\nMax |output difference| between pipelines: {max_diff:.2e}")
    print("The two pipelines are numerically identical; X-MoE just never")
    print("materializes or communicates the zero padding.")


if __name__ == "__main__":
    main()
