"""Fig. 12 — dispatch time breakdown with and without RBD.

Paper shape: single MoE layer of the Large model on 32 GPUs with EP=32,
measured redundancy 54.8%.  Inter-node all-to-all dominates the padding-free
dispatch; RBD cuts the inter-node communication time by ~52% and wins
overall (~1.55x) despite adding an intra-node exchange and reconstruction
work.

This benchmark reports both the analytic model (paper configuration) and a
functional measurement on the simulated cluster (scaled-down layer), where
the actual inter-node bytes with and without RBD are counted.
"""

import numpy as np
import pytest

from conftest import print_table

from repro.cluster.topology import LinkTier
from repro.comm import CommWorld
from repro.config import ParallelConfig, frontier_system, paper_config
from repro.moe import TopKGate
from repro.routing import make_dispatcher
from repro.tensor import Tensor
from repro.xmoe import build_pft
from repro.xmoe.memory_model import SystemKind
from repro.xmoe.perf_model import MoEPerformanceModel


def analytic_breakdown():
    model = paper_config("large")
    parallel = ParallelConfig(
        world_size=32, ep_size=32, micro_batch_size=1, global_batch_size=64, dispatch="rbd"
    )
    perf = MoEPerformanceModel(model, parallel, frontier_system(num_nodes=4), SystemKind.XMOE)
    return {
        "redundancy": perf.redundancy(),
        "without": perf.dispatch_breakdown("flat"),
        "with": perf.dispatch_breakdown("rbd"),
    }


def functional_inter_node_bytes(num_ranks=16, num_experts=32, top_k=8, tokens=32, hidden=16):
    """Measured inter-node dispatch bytes with the flat vs RBD dispatchers."""
    rng = np.random.default_rng(0)
    gate = TopKGate(hidden, num_experts, top_k, rng=np.random.default_rng(1))
    tokens_list, pfts = [], []
    for _ in range(num_ranks):
        toks = rng.normal(size=(tokens, hidden))
        g = gate(Tensor(toks))
        pfts.append(build_pft(10**6, g.top_experts, g.top_scores, num_experts))
        tokens_list.append(toks)

    def inter_bytes(world, ops):
        total = 0.0
        for e in world.stats.events:
            if e.op in ops:
                total += e.bytes_by_tier.get(LinkTier.INTER_NODE, 0.0)
                total += e.bytes_by_tier.get(LinkTier.CROSS_RACK, 0.0)
        return total

    world_flat = CommWorld(num_ranks=num_ranks)
    make_dispatcher(world_flat.world_group(), num_experts).dispatch(tokens_list, pfts)
    world_rbd = CommWorld(num_ranks=num_ranks)
    rbd = make_dispatcher(world_rbd.world_group(), num_experts, kind="rbd", seed=3)
    _, plan = rbd.dispatch(tokens_list, pfts)
    return (
        inter_bytes(world_flat, {"dispatch_a2a"}),
        inter_bytes(world_rbd, {"rbd_s1_a2a"}),
        plan.redundancy,
    )


def run_all():
    return analytic_breakdown(), functional_inter_node_bytes()


def test_fig12_rbd_dispatch_breakdown(benchmark):
    analytic, functional = benchmark.pedantic(run_all, rounds=1, iterations=1)

    without, with_rbd = analytic["without"], analytic["with"]
    rows = [
        {
            "variant": "w/o RBD",
            "buffer_ms": without.buffer_instantiation * 1e3,
            "inter_node_a2a_ms": without.inter_node_a2a * 1e3,
            "s2_instantiation_ms": without.stage2_instantiation * 1e3,
            "intra_node_a2a_ms": without.intra_node_a2a * 1e3,
            "reconstruction_ms": without.input_reconstruction * 1e3,
            "total_ms": without.total() * 1e3,
        },
        {
            "variant": "w/ RBD",
            "buffer_ms": with_rbd.buffer_instantiation * 1e3,
            "inter_node_a2a_ms": with_rbd.inter_node_a2a * 1e3,
            "s2_instantiation_ms": with_rbd.stage2_instantiation * 1e3,
            "intra_node_a2a_ms": with_rbd.intra_node_a2a * 1e3,
            "reconstruction_ms": with_rbd.input_reconstruction * 1e3,
            "total_ms": with_rbd.total() * 1e3,
        },
    ]
    print_table(
        f"Fig. 12 — dispatch breakdown (analytic, redundancy={analytic['redundancy']:.1%})",
        rows,
    )

    # Redundancy close to the paper's measured 54.8% for this configuration.
    assert analytic["redundancy"] == pytest.approx(0.548, abs=0.05)
    # Inter-node time reduced by roughly the redundancy rate (paper: 52.5%).
    reduction = 1.0 - with_rbd.inter_node_a2a / without.inter_node_a2a
    assert 0.35 < reduction < 0.7
    # Overall dispatch faster despite the extra stages.  The paper measures
    # 1.55x; our network model charges the intra-node stage more
    # conservatively, so the modelled end-to-end gain is smaller but the
    # direction and the inter-node saving match.
    assert without.total() / with_rbd.total() > 1.1

    flat_bytes, rbd_bytes, measured_redundancy = functional
    print_table(
        "Fig. 12 — functional inter-node dispatch bytes (simulated cluster)",
        [
            {"variant": "flat a2a", "inter_node_MB": flat_bytes / 2**20},
            {"variant": "RBD stage-1", "inter_node_MB": rbd_bytes / 2**20},
            {"variant": "measured redundancy", "inter_node_MB": measured_redundancy},
        ],
    )
    assert rbd_bytes < flat_bytes
    assert 1.0 - rbd_bytes / flat_bytes == pytest.approx(measured_redundancy, abs=0.15)
