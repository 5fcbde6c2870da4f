"""Fig. 11 — forward MoE-layer time breakdown, DeepSpeed-MoE vs X-MoE.

Paper shape: for the Small model (EP=8) the baseline's time is dominated by
gating / buffer dispatch / buffer combine, which X-MoE accelerates by large
factors (5.7x / 35.7x / 8.1x), cutting total layer time by ~62%; expert
compute is slightly *higher* for X-MoE (sequential GEMM overhead).  For the
Large model (EP=64) the all-to-alls dominate and X-MoE roughly halves them
by eliminating zero padding.
"""


from conftest import print_table

from repro.config import ParallelConfig, frontier_system, paper_config
from repro.xmoe.memory_model import SystemKind
from repro.xmoe.perf_model import MoEPerformanceModel

SYS256 = frontier_system(num_nodes=32)


def breakdowns(model_name: str, ep: int):
    model = paper_config(model_name)
    out = {}
    for kind in (SystemKind.DEEPSPEED_MOE, SystemKind.XMOE):
        parallel = ParallelConfig(
            world_size=256, ep_size=ep, micro_batch_size=1, global_batch_size=1024
        )
        perf = MoEPerformanceModel(model, parallel, SYS256, kind)
        out[kind] = perf.moe_layer_breakdown(dispatch="flat")
    return out


def run_both():
    return {"small": breakdowns("small", 8), "large": breakdowns("large", 64)}


def test_fig11_layer_time_breakdown(benchmark):
    results = benchmark(run_both)
    for model_name, by_kind in results.items():
        rows = []
        for kind, breakdown in by_kind.items():
            row = {"system": kind.value}
            row.update({k: v * 1e3 for k, v in breakdown.as_dict().items()})
            row["total_ms"] = breakdown.total() * 1e3
            rows.append(row)
        print_table(f"Fig. 11 — {model_name} model forward MoE layer (ms)", rows)

    small_ds = results["small"][SystemKind.DEEPSPEED_MOE]
    small_xm = results["small"][SystemKind.XMOE]
    # Large speedups on the gating / buffer stages.
    assert small_ds.gate / small_xm.gate > 3.0
    assert small_ds.dispatch_buffer / small_xm.dispatch_buffer > 5.0
    assert small_ds.combine_buffer / small_xm.combine_buffer > 5.0
    # Overall layer time cut by more than 40% (paper: 62.3%).
    assert small_xm.total() < 0.6 * small_ds.total()

    large_ds = results["large"][SystemKind.DEEPSPEED_MOE]
    large_xm = results["large"][SystemKind.XMOE]
    # For the Large model the all-to-all dominates and shrinks substantially.
    assert large_ds.dispatch_a2a + large_ds.combine_a2a > 0.3 * large_ds.total()
    a2a_reduction = 1.0 - large_xm.dispatch_a2a / large_ds.dispatch_a2a
    assert 0.3 < a2a_reduction < 0.7
    assert large_xm.total() < large_ds.total()
