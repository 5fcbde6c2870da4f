"""Fig. 10 — weak and strong scaling.

Paper shape:
  (a) Weak scaling (Small model, EP=8, 16→256 GPUs, batch grows with GPUs):
      X-MoE stays above Tutel at every scale, with only a small throughput
      drop as the GPU count grows (48.3 → 44.5 TFLOPs for X-MoE).
  (b) Strong scaling (Medium model, fixed global batch 2048, 128→1024 GPUs):
      X-MoE's iteration time keeps decreasing as GPUs are added, with
      diminishing returns at 1024 GPUs where all-to-all latency dominates.
"""


from conftest import print_table

from repro.config import ParallelConfig, frontier_system, paper_config
from repro.xmoe.memory_model import SystemKind
from repro.xmoe.perf_model import MoEPerformanceModel

WEAK_POINTS = [(16, 256), (32, 512), (64, 1024), (128, 2048), (256, 4096)]
STRONG_POINTS = [128, 256, 512, 1024]


def run_weak_scaling():
    out = {}
    model = paper_config("small")
    for world, gbs in WEAK_POINTS:
        system = frontier_system(num_nodes=max(2, world // 8))
        row = {}
        for kind in (SystemKind.XMOE, SystemKind.TUTEL):
            parallel = ParallelConfig(
                world_size=world,
                ep_size=8,
                micro_batch_size=1,
                global_batch_size=gbs,
                dispatch="rbd" if kind is SystemKind.XMOE else "flat",
            )
            perf = MoEPerformanceModel(model, parallel, system, kind)
            row[kind] = perf.throughput_tflops_per_gpu()
        out[world] = row
    return out


def run_strong_scaling():
    out = {}
    model = paper_config("medium")
    for world in STRONG_POINTS:
        system = frontier_system(num_nodes=max(2, world // 8))
        parallel = ParallelConfig(
            world_size=world,
            ep_size=64,
            micro_batch_size=1,
            global_batch_size=2048,
            dispatch="rbd",
        )
        out[world] = MoEPerformanceModel(
            model, parallel, system, SystemKind.XMOE
        ).iteration_time()
    return out


def test_fig10a_weak_scaling(benchmark):
    results = benchmark(run_weak_scaling)
    rows = [
        {
            "GPUs": world,
            "X-MoE_TFLOPs": results[world][SystemKind.XMOE],
            "Tutel_TFLOPs": results[world][SystemKind.TUTEL],
        }
        for world, _ in WEAK_POINTS
    ]
    print_table("Fig. 10(a) — weak scaling (Small model, EP=8)", rows)
    xmoe = [results[w][SystemKind.XMOE] for w, _ in WEAK_POINTS]
    tutel = [results[w][SystemKind.TUTEL] for w, _ in WEAK_POINTS]
    assert all(x > t for x, t in zip(xmoe, tutel))
    # Mild degradation only: the largest scale keeps >= 70% of the smallest.
    assert xmoe[-1] > 0.7 * xmoe[0]
    assert xmoe[0] >= xmoe[-1]


def test_fig10b_strong_scaling(benchmark):
    results = benchmark(run_strong_scaling)
    rows = [
        {"GPUs": world, "iteration_s": results[world]} for world in STRONG_POINTS
    ]
    print_table("Fig. 10(b) — strong scaling (Medium model, batch 2048)", rows)
    times = [results[w] for w in STRONG_POINTS]
    assert all(a > b for a, b in zip(times, times[1:]))
    # Diminishing returns at the largest scale: speedup from 512 to 1024 is
    # no better than the speedup from 128 to 256.
    assert times[2] / times[3] <= times[0] / times[1] + 0.2
