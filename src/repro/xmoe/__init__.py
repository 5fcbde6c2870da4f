"""X-MoE core: the paper's contribution.

Sub-modules:

* :mod:`repro.xmoe.pft` — the Padding-Free Token buffer (PFT) data structure
  and its construction routine (Listing 1), including the transposed-cumsum
  optimization of Appendix B.2 and the rank-batched builder behind the
  :class:`repro.runtime.StepRuntime` (all ranks' PFTs in one sort pass).
* :mod:`repro.xmoe.kernels` — padding-free gather / scatter / sequential-GEMM
  "kernels" (numpy stand-ins for the Triton kernels) plus a kernel cost
  model used by the time-breakdown benchmarks.
* :mod:`repro.xmoe.pipeline` — the single-process padding-free MoE layer
  (multi-rank dispatch is :func:`repro.routing.make_dispatcher`).
* :mod:`repro.xmoe.rbd` — Redundancy-Bypassing Dispatch redundancy analysis.
* :mod:`repro.xmoe.ssmb` — sequence-sharded MoE blocks.
* :mod:`repro.xmoe.parallelism` — hybrid parallelism planning (EP-first vs
  DP-first placement, expert-to-rank maps, group construction).
* :mod:`repro.xmoe.memory_model` — activation / model-state memory
  accounting (Table 2, Table 4, Figs. 3 and 13, Eqs. 1–2).
* :mod:`repro.xmoe.perf_model` — FLOPs / time-breakdown / throughput model
  (Figs. 9–12, 14, 20, Table 5).
* :mod:`repro.xmoe.trainer` — training-config glue (dispatcher and router
  policy for a plan) and the functional routing / ZeRO validation drivers.
  The paper's plan sweep is :func:`repro.tuner.sweep_best_config`.
"""

from repro.xmoe.pft import (
    PFT,
    build_pft,
    build_pft_flat_batched,
    build_pft_reference,
)
from repro.xmoe.kernels import (
    gather_kernel,
    scatter_kernel,
    sequential_gemm,
    KernelCostModel,
)
from repro.xmoe.pipeline import PaddingFreeMoELayer
from repro.xmoe.rbd import redundancy_rate
from repro.xmoe.ssmb import SequenceShardedMoEBlock, ssmb_activation_saving_bytes
from repro.xmoe.parallelism import PlacementPlan, plan_placement, expert_to_rank_map
from repro.xmoe.memory_model import (
    ActivationBreakdown,
    MemoryReport,
    MoEMemoryModel,
    zero_divisors,
)
from repro.xmoe.perf_model import MoEPerformanceModel, LayerTimeBreakdown, SystemKind
from repro.xmoe.trainer import (
    ZeroValidationResult,
    dispatcher_for_config,
    policy_for_config,
    run_routing_validation,
    run_zero_training_validation,
    sweep_dispatch_validation,
)

__all__ = [
    "PFT",
    "build_pft",
    "build_pft_flat_batched",
    "build_pft_reference",
    "gather_kernel",
    "scatter_kernel",
    "sequential_gemm",
    "KernelCostModel",
    "PaddingFreeMoELayer",
    "redundancy_rate",
    "SequenceShardedMoEBlock",
    "ssmb_activation_saving_bytes",
    "PlacementPlan",
    "plan_placement",
    "expert_to_rank_map",
    "ActivationBreakdown",
    "MemoryReport",
    "MoEMemoryModel",
    "zero_divisors",
    "MoEPerformanceModel",
    "LayerTimeBreakdown",
    "SystemKind",
    "ZeroValidationResult",
    "dispatcher_for_config",
    "policy_for_config",
    "run_routing_validation",
    "run_zero_training_validation",
    "sweep_dispatch_validation",
]
