"""Fig. 20 (Appendix E) — scaling by model depth and by top-k on 256 GPUs.

Paper shape: (left) increasing the number of layers of the Large base
config, the padded baselines OOM beyond ~16 layers while X-MoE keeps
training with stable (>22 TFLOPs) throughput from 8 to 24 layers;
(right) increasing top-k from 4 to 16, X-MoE's advantage over Tutel grows
(1.12x at k=4 up to 1.64x at k=16) because all-to-all volume scales with k
and X-MoE removes padding and redundant inter-node copies.
"""


from conftest import print_table

from repro.config import frontier_system, paper_config
from repro.xmoe.memory_model import SystemKind
from repro.tuner import sweep_best_config

SYS256 = frontier_system(num_nodes=32)
LAYERS = (8, 12, 16, 20, 24)
TOPKS = (4, 8, 12, 16)


def run_depth_sweep():
    out = {}
    for layers in LAYERS:
        model = paper_config("large").scaled(name=f"large-{layers}L", num_layers=layers)
        out[layers] = {
            kind: sweep_best_config(model, 256, kind, SYS256)
            for kind in (SystemKind.DEEPSPEED_MOE, SystemKind.TUTEL, SystemKind.XMOE)
        }
    return out


def run_topk_sweep():
    out = {}
    for k in TOPKS:
        model = paper_config("large").scaled(name=f"large-k{k}", top_k=k, num_layers=16)
        out[k] = {
            kind: sweep_best_config(model, 256, kind, SYS256)
            for kind in (SystemKind.TUTEL, SystemKind.XMOE)
        }
    return out


def test_fig20_left_depth_scaling(benchmark):
    results = benchmark.pedantic(run_depth_sweep, rounds=1, iterations=1)
    rows = []
    for layers, by_system in results.items():
        row = {"layers": layers}
        for kind, res in by_system.items():
            row[kind.value] = "OOM" if not res.feasible else f"{res.tflops_per_gpu:.1f}"
        rows.append(row)
    print_table("Fig. 20 (left) — throughput vs number of layers", rows)

    # X-MoE trains every depth with healthy throughput.
    xmoe = [results[layers][SystemKind.XMOE] for layers in LAYERS]
    assert all(r.feasible for r in xmoe)
    assert min(r.tflops_per_gpu for r in xmoe) > 10.0
    # Baselines hit OOM as depth grows.
    assert not results[24][SystemKind.DEEPSPEED_MOE].feasible
    assert not results[24][SystemKind.TUTEL].feasible


def test_fig20_right_topk_scaling(benchmark):
    results = benchmark.pedantic(run_topk_sweep, rounds=1, iterations=1)
    rows = []
    ratios = {}
    for k, by_system in results.items():
        xm, tu = by_system[SystemKind.XMOE], by_system[SystemKind.TUTEL]
        ratio = (
            xm.tflops_per_gpu / tu.tflops_per_gpu
            if (xm.feasible and tu.feasible)
            else float("nan")
        )
        ratios[k] = ratio
        rows.append(
            {
                "top_k": k,
                "X-MoE": "OOM" if not xm.feasible else f"{xm.tflops_per_gpu:.1f}",
                "Tutel": "OOM" if not tu.feasible else f"{tu.tflops_per_gpu:.1f}",
                "speedup": ratio,
            }
        )
    print_table("Fig. 20 (right) — throughput vs top-k", rows)

    # X-MoE never OOMs and always wins where both run.
    for k in TOPKS:
        assert results[k][SystemKind.XMOE].feasible
    comparable = [k for k in TOPKS if results[k][SystemKind.TUTEL].feasible]
    assert comparable, "Tutel should train at least the smallest top-k"
    for k in comparable:
        assert ratios[k] > 1.0
    # The advantage grows with k (paper: 1.12x at k=4 -> 1.64x at k=16).
    if len(comparable) >= 2:
        assert ratios[comparable[-1]] > ratios[comparable[0]]
