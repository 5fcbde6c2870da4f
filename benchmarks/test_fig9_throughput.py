"""Fig. 9 — trainability and throughput of Small/Medium/Large on 256 GPUs
and Super on 1024 GPUs.

Paper shape: DeepSpeed-MoE OOMs beyond the Small model; DeepSpeed-TED and
Tutel OOM on Large; only X-MoE trains the Large (201B) model on 256 GPUs and
the Super (545B) model on 1024 GPUs, while also having the highest
throughput on the configurations every system can train (paper: 1.42x over
Tutel and 5.15x over TED on Medium).
"""


from conftest import print_table

from repro.config import frontier_system, paper_config
from repro.xmoe.memory_model import SystemKind
from repro.tuner import sweep_best_config

SYSTEMS = [
    SystemKind.DEEPSPEED_MOE,
    SystemKind.DEEPSPEED_TED,
    SystemKind.TUTEL,
    SystemKind.XMOE,
]


def run_fig9():
    results = {}
    sys256 = frontier_system(num_nodes=32)
    for name in ("small", "medium", "large"):
        model = paper_config(name)
        results[name] = {
            kind: sweep_best_config(model, 256, kind, sys256) for kind in SYSTEMS
        }
    sys1024 = frontier_system(num_nodes=128)
    results["super"] = {
        kind: sweep_best_config(paper_config("super"), 1024, kind, sys1024)
        for kind in (SystemKind.TUTEL, SystemKind.XMOE)
    }
    return results


def test_fig9_trainability_and_throughput(benchmark):
    results = benchmark.pedantic(run_fig9, rounds=1, iterations=1)
    rows = []
    for model_name, by_system in results.items():
        row = {"model": model_name}
        for kind, res in by_system.items():
            row[kind.value] = "OOM" if not res.feasible else f"{res.tflops_per_gpu:.1f}"
        rows.append(row)
    print_table("Fig. 9 — TFLOPs per GPU (OOM = not trainable)", rows)

    # Trainability verdicts.
    assert not results["medium"][SystemKind.DEEPSPEED_MOE].feasible
    for kind in (SystemKind.DEEPSPEED_MOE, SystemKind.DEEPSPEED_TED, SystemKind.TUTEL):
        assert not results["large"][kind].feasible
    assert results["large"][SystemKind.XMOE].feasible
    assert not results["super"][SystemKind.TUTEL].feasible
    assert results["super"][SystemKind.XMOE].feasible

    # Throughput ordering where everyone trains (Small / Medium).
    small = results["small"]
    assert (
        small[SystemKind.XMOE].tflops_per_gpu
        > small[SystemKind.TUTEL].tflops_per_gpu
        > 0
    )
    medium = results["medium"]
    assert (
        medium[SystemKind.XMOE].tflops_per_gpu
        > medium[SystemKind.TUTEL].tflops_per_gpu
        > medium[SystemKind.DEEPSPEED_TED].tflops_per_gpu
    )
    # Speedup factors in the ballpark the paper reports (1.42x / 5.15x).
    assert medium[SystemKind.XMOE].tflops_per_gpu / medium[SystemKind.TUTEL].tflops_per_gpu > 1.2
    assert medium[SystemKind.XMOE].tflops_per_gpu / medium[SystemKind.DEEPSPEED_TED].tflops_per_gpu > 2.5

    # Super model sustains a multi-PFLOPs aggregate.
    assert results["super"][SystemKind.XMOE].aggregated_pflops > 1.0
