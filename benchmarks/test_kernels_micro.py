"""§4.1 micro-benchmarks — padding-free kernels vs the padded einsum pipeline.

These measure the *functional* numpy implementations (wall-clock via
pytest-benchmark) and check the analytic cost model's qualitative claims:
the PFT gather/scatter path touches only real tokens, while the padded
einsum path pays for the [S, E, C] mask and capacity-sized buffers.
"""

import numpy as np
import pytest

from repro.baselines import PaddedMoELayer
from repro.config import MI250X_GCD
from repro.moe import ExpertBank, TopKGate, compute_capacity
from repro.tensor import Tensor
from repro.xmoe import KernelCostModel, PaddingFreeMoELayer, build_pft, gather_kernel, scatter_kernel, sequential_gemm

S, H, F, E, K = 512, 128, 64, 32, 4


@pytest.fixture(scope="module")
def routed(rng=np.random.default_rng(0)):
    gate = TopKGate(H, E, K, rng=np.random.default_rng(1))
    tokens = rng.normal(size=(S, H))
    gate_out = gate(Tensor(tokens))
    pft = build_pft(10**6, gate_out.top_experts, gate_out.top_scores, E)
    w1 = rng.normal(size=(E, H, F))
    w2 = rng.normal(size=(E, F, H))
    return tokens, pft, w1, w2


def test_bench_gather_kernel(benchmark, routed):
    tokens, pft, _, _ = routed
    result = benchmark(gather_kernel, tokens, pft.token_ids)
    assert result.shape == (pft.num_routed_tokens, H)


def test_bench_scatter_kernel(benchmark, routed):
    tokens, pft, _, _ = routed
    rows = np.random.default_rng(2).normal(size=(pft.num_routed_tokens, H))
    result = benchmark(scatter_kernel, rows, pft.token_ids, pft.combine_weights, S)
    assert result.shape == (S, H)


def test_bench_sequential_gemm(benchmark, routed):
    tokens, pft, w1, w2 = routed
    gathered = gather_kernel(tokens, pft.token_ids)
    result = benchmark(sequential_gemm, gathered, w1, w2, pft.tokens_per_expert)
    assert result.shape == gathered.shape


def test_bench_padding_free_layer_forward(benchmark):
    gate = TopKGate(H, E, K, rng=np.random.default_rng(1))
    experts = ExpertBank(E, H, F, rng=np.random.default_rng(2))
    layer = PaddingFreeMoELayer(gate, experts)
    tokens = Tensor(np.random.default_rng(3).normal(size=(S, H)))
    out, _ = benchmark(layer, tokens)
    assert out.shape == (S, H)


def test_bench_padded_layer_forward(benchmark):
    gate = TopKGate(H, E, K, rng=np.random.default_rng(1))
    experts = ExpertBank(E, H, F, rng=np.random.default_rng(2))
    layer = PaddedMoELayer(gate, experts)
    tokens = Tensor(np.random.default_rng(3).normal(size=(S, H)))
    out, _ = benchmark(layer, tokens)
    assert out.shape == (S, H)


def test_cost_model_predicts_padding_free_advantage(benchmark):
    """The analytic kernel model agrees with the paper's Fig. 11 claims."""

    def evaluate():
        model = KernelCostModel(MI250X_GCD)
        tokens, e, k, h, f = 4096, 256, 8, 7168, 2048
        capacity = compute_capacity(tokens, k, e, 1.25)
        return {
            "einsum_dispatch": model.einsum_dispatch_time(tokens, e, capacity, h),
            "pft_gather": model.gather_time(k * tokens, h),
            "mask_construction": model.mask_construction_time(tokens, e, capacity),
            "padded_gemm": model.padded_expert_gemm_time(e // 64, capacity, h, f),
            "sequential_gemm": model.sequential_gemm_time(
                np.full(e // 64, k * tokens / e), h, f
            ),
        }

    costs = benchmark(evaluate)
    assert costs["pft_gather"] < costs["einsum_dispatch"] / 5
    assert costs["mask_construction"] > costs["pft_gather"]
    # Expert compute is in the same ballpark for both: the sequential GEMM
    # avoids the 1.25x padded FLOPs but runs smaller, less efficient GEMMs
    # (Fig. 11 shows X-MoE's expert time slightly higher at small scale).
    assert costs["sequential_gemm"] < 2.0 * costs["padded_gemm"]
