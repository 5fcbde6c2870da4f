"""Plan training of the 545B "Super" DeepSeek-style MoE on 1024 Frontier GCDs.

Reproduces the planning decisions behind Fig. 9's headline result: sweep
EP / TP / ZeRO configurations for each training system, check which fit in
64 GB per GCD, and report the best trainable configuration and its modelled
throughput.  Also prints the EP-first vs DP-first placement analysis.

Run:  python examples/plan_545b_on_frontier.py
"""

from repro.cluster import Topology
from repro.config import ParallelConfig, frontier_system, paper_config
from repro.tuner import sweep_best_config
from repro.xmoe import plan_placement
from repro.xmoe.memory_model import MoEMemoryModel, SystemKind


def main():
    model = paper_config("super")
    system = frontier_system(num_nodes=128)  # 1024 GCDs
    print("=== Planning the 545B 'Super' model on 1024 MI250X GCDs ===")
    print(f"total parameters    : {model.total_params() / 1e9:.1f} B")
    print(f"activated per token : {model.activated_params() / 1e9:.1f} B")
    print(f"experts / top-k     : {model.num_experts} / {model.top_k}\n")

    print("Sweeping EP, TP, and ZeRO stage for each training system:")
    for kind in (SystemKind.DEEPSPEED_MOE, SystemKind.DEEPSPEED_TED, SystemKind.TUTEL, SystemKind.XMOE):
        result = sweep_best_config(model, 1024, kind, system)
        status = f"{result.tflops_per_gpu:.1f} TFLOPs/GPU" if result.feasible else "OOM"
        print(f"  {kind.value:>14s} | {model.name:>8s} | {result.candidate.parallel.describe()} | "
              f"mem={result.peak_memory_gb:.1f} GB | {status}")

    best = sweep_best_config(model, 1024, SystemKind.XMOE, system)
    if best.feasible:
        parallel = best.candidate.parallel
        print("\nBest X-MoE configuration:")
        print(f"  {parallel.describe()}")
        print(f"  peak memory per GCD : {best.peak_memory_gb:.1f} GB (of 64 GB)")
        print(f"  iteration time      : {best.step_seconds:.1f} s")
        print(f"  throughput          : {best.tflops_per_gpu:.1f} TFLOPs/GPU "
              f"({best.aggregated_pflops:.2f} PFLOPs aggregate)")

        memory = MoEMemoryModel(model, parallel, system.node.gpu)
        layer = memory.moe_layer_activations(SystemKind.XMOE)
        print("\nPer-MoE-layer activation breakdown (per device):")
        for name, value in layer.as_dict().items():
            print(f"  {name:<18s}: {value / 2**30:.3f} GB")

    print("\nEP-first vs DP-first placement (Appendix C.1), 64-GPU subgroup:")
    topo = Topology(frontier_system(num_nodes=8), 64)
    parallel = ParallelConfig(world_size=64, ep_size=8, global_batch_size=64)
    ep_first, dp_first, recommended = plan_placement(model, parallel, topo)
    print(f"  EP-first : a2a {ep_first.ep_alltoall_seconds:.3f}s + "
          f"allreduce {ep_first.dp_allreduce_seconds:.3f}s")
    print(f"  DP-first : a2a {dp_first.ep_alltoall_seconds:.3f}s + "
          f"allreduce {dp_first.dp_allreduce_seconds:.3f}s")
    print(f"  recommended placement: {recommended.value}")


if __name__ == "__main__":
    main()
