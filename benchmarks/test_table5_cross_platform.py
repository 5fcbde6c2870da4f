"""Table 5 — cross-platform results on 8 × NVIDIA A100-40GB.

Paper shape: at the full Small configuration (2k sequence, 28 layers) the
padded baselines run out of the A100's 40 GB while X-MoE sustains training;
on the reduced configurations (Small-SR: 1k sequence, Small-LR: 14 layers)
every system trains with broadly comparable throughput.

Known deviation (recorded in EXPERIMENTS.md): in our simulated memory
accounting the baselines sit close to — but not always above — the 40 GB
limit at the full Small configuration, so this benchmark asserts the robust
part of the shape: X-MoE always trains, X-MoE's activation footprint is the
smallest, and all systems train the SR/LR variants.
"""


from conftest import print_table

from repro.config import ParallelConfig, dgx_cluster, paper_config
from repro.xmoe.memory_model import MoEMemoryModel, SystemKind
from repro.tuner import sweep_best_config

SYSTEMS = [SystemKind.DEEPSPEED_MOE, SystemKind.TUTEL, SystemKind.XMOE]


def run_table5():
    dgx = dgx_cluster(1)
    results = {}
    for name in ("small", "small-sr", "small-lr"):
        model = paper_config(name)
        results[name] = {
            kind: sweep_best_config(model, 8, kind, dgx, global_batch_size=64)
            for kind in SYSTEMS
        }
    return results


def test_table5_cross_platform(benchmark):
    results = benchmark.pedantic(run_table5, rounds=1, iterations=1)
    rows = []
    for model_name, by_system in results.items():
        row = {"model": model_name}
        for kind, res in by_system.items():
            row[kind.value] = "OOM" if not res.feasible else f"{res.tflops_per_gpu:.1f}"
        rows.append(row)
    print_table("Table 5 — TFLOPs on 8 x A100-40GB", rows)

    # X-MoE trains every configuration, including the full Small model.
    for name in results:
        assert results[name][SystemKind.XMOE].feasible
    # The reduced configurations train under every system.
    for name in ("small-sr", "small-lr"):
        for kind in SYSTEMS:
            assert results[name][kind].feasible
    # X-MoE needs the least memory at the full Small configuration.
    parallel = ParallelConfig(world_size=8, ep_size=8, micro_batch_size=1, global_batch_size=64)
    mm = MoEMemoryModel(paper_config("small"), parallel, dgx_cluster(1).node.gpu)
    xmoe_mem = mm.report(SystemKind.XMOE).total_gb
    for kind in (SystemKind.DEEPSPEED_MOE, SystemKind.TUTEL):
        assert mm.report(kind).total_gb > xmoe_mem
