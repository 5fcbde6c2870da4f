"""Performance model: per-stage times, iteration time, and throughput.

This is the analytic counterpart of the functional simulator.  Given a
model configuration, a parallel layout, a hardware system, and a training
system kind, it produces:

* a forward MoE-layer time breakdown (gate, buffer dispatch, dispatch
  all-to-all, expert compute, combine all-to-all, buffer combine, others) —
  Fig. 11 and Fig. 12;
* iteration time and achieved TFLOPs per GPU — Figs. 9, 10, 14, 20 and
  Table 5;
* the dispatch-stage decomposition with and without RBD — Fig. 12.

The absolute numbers depend on the calibration constants of the kernel and
network models; the benchmarks only rely on the *relative* shapes (who wins,
roughly by how much, where the crossovers are), which follow from byte and
FLOP counting rather than from the constants.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.cluster.network import NetworkModel, TransferEstimate
from repro.cluster.topology import LinkTier, Topology
from repro.comm.cost_model import (
    hierarchical_alltoall_time,
    hierarchical_dispatch_time,
    uniform_alltoall_time,
)
from repro.config.hardware import SystemSpec, frontier_system
from repro.config.model_config import MoEModelConfig
from repro.config.parallel_config import ParallelConfig
from repro.moe.layer import compute_capacity
from repro.xmoe.kernels import KernelCostModel
from repro.xmoe.memory_model import MoEMemoryModel, SystemKind
from repro.xmoe.rbd import expected_redundancy_rate

#: Speedup of Tutel's fused dispatch/combine kernels over the plain einsum
#: pipeline on its capacity-padded buffers.
TUTEL_KERNEL_EFFICIENCY = 1.35


@dataclass
class LayerTimeBreakdown:
    """Forward-pass time (seconds) of one MoE layer, by stage (Fig. 11)."""

    gate: float
    dispatch_buffer: float
    dispatch_a2a: float
    experts: float
    combine_a2a: float
    combine_buffer: float
    others: float

    def total(self) -> float:
        """Summed seconds across every stage of one MoE layer."""
        return (
            self.gate
            + self.dispatch_buffer
            + self.dispatch_a2a
            + self.experts
            + self.combine_a2a
            + self.combine_buffer
            + self.others
        )

    def as_dict(self) -> dict[str, float]:
        """Per-stage seconds keyed by stage name (Fig. 11's breakdown)."""
        return {
            "gate": self.gate,
            "dispatch": self.dispatch_buffer,
            "1st_a2a": self.dispatch_a2a,
            "experts": self.experts,
            "2nd_a2a": self.combine_a2a,
            "combine": self.combine_buffer,
            "others": self.others,
        }


@dataclass
class DispatchBreakdown:
    """Dispatch-stage time decomposition with/without RBD (Fig. 12)."""

    buffer_instantiation: float
    inter_node_a2a: float
    stage2_instantiation: float = 0.0
    intra_node_a2a: float = 0.0
    input_reconstruction: float = 0.0

    def total(self) -> float:
        """Summed seconds across the dispatch sub-stages (Fig. 12)."""
        return (
            self.buffer_instantiation
            + self.inter_node_a2a
            + self.stage2_instantiation
            + self.intra_node_a2a
            + self.input_reconstruction
        )


class MoEPerformanceModel:
    """Analytic throughput / time model for one training configuration."""

    #: relative efficiency of each system's expert GEMM + framework overhead.
    #: The paper measures Tutel / DeepSpeed-MoE sustaining well under 10% of
    #: peak on MI250X because their kernels fall back to unfused PyTorch ops
    #: on ROCm; X-MoE's Triton kernels do substantially better.
    _system_efficiency = {
        SystemKind.XMOE: 1.0,
        SystemKind.TUTEL: 0.65,
        SystemKind.DEEPSPEED_MOE: 0.45,
        SystemKind.DEEPSPEED_TED: 0.40,
        SystemKind.THEORETICAL: 1.0,
    }

    #: Padded pipelines exchange *even*, capacity-sized buffers: every rank
    #: pair's chunk is sized for the worst-case expert load, so with
    #: fine-grained experts the exchanged buffers carry substantially more
    #: zero rows than the average 1.25x capacity factor suggests.  This is
    #: the effective padded-bytes/real-bytes ratio of the even all-to-all.
    _even_a2a_imbalance = 1.6

    def __init__(
        self,
        model: MoEModelConfig,
        parallel: ParallelConfig,
        system: SystemSpec | None = None,
        kind: SystemKind = SystemKind.XMOE,
        *,
        seed: int | None = 0,
    ):
        if system is None:
            needed_nodes = max(1, -(-parallel.world_size // 8))
            system = frontier_system(num_nodes=needed_nodes)
        self.model = model
        self.parallel = parallel
        self.system = system
        self.kind = kind
        self.gpu = system.node.gpu
        self.topology = Topology(system, parallel.world_size)
        self.network = NetworkModel(self.topology, seed=seed)
        # The GEMM efficiency the cost model uses is the platform's
        # achievable fraction of peak, not an optimistic constant.
        self.kernels = KernelCostModel(
            self.gpu,
            gemm_efficiency=self.gpu.achievable_fraction,
            small_gemm_efficiency=0.7 * self.gpu.achievable_fraction,
        )
        self.memory = MoEMemoryModel(model, parallel, self.gpu)
        #: memory-bound elementwise work (layer norms, residuals, dropout,
        #: rotary embeddings, optimizer bookkeeping) per layer, expressed as
        #: the number of full [tokens, H] tensor traversals it costs.
        self.elementwise_traversals_per_layer = 60.0
        self._estimates: dict[str, list[TransferEstimate]] = {}

    # ------------------------------------------------------------------
    # Helpers
    # ------------------------------------------------------------------
    @property
    def tokens_per_device(self) -> int:
        """Tokens each device feeds into one MoE layer per micro-batch."""
        return self.memory.tokens_per_device(self.kind)

    def _ep_group_ranks(self) -> np.ndarray:
        """Global ranks of the first EP group (contiguous block of ranks)."""
        return np.arange(self.parallel.ep_size)

    def _ep_nodes(self) -> int:
        """Number of nodes spanned by one EP group."""
        ranks = self._ep_group_ranks()
        nodes = {self.topology.node_of(int(r)) for r in ranks}
        return max(1, len(nodes))

    def redundancy(self) -> float:
        """Expected dispatch redundancy rate for this configuration."""
        return expected_redundancy_rate(
            self.model.num_experts, self.model.top_k, self._ep_nodes()
        )

    def _effective_dispatch(self, dispatch: str | None = None) -> str:
        """Resolve the dispatch strategy a breakdown should price.

        An explicit ``dispatch`` wins; otherwise X-MoE follows
        ``parallel.dispatch`` and the padded baselines always run their own
        flat (even) exchange.
        """
        if dispatch is not None:
            return dispatch
        if self.kind is SystemKind.XMOE:
            return self.parallel.dispatch
        return "flat"

    def _a2a_bytes_per_rank(self) -> float:
        """Bytes each rank contributes to one dispatch all-to-all."""
        model = self.model
        tokens = self.tokens_per_device
        row_bytes = model.hidden_size * model.dtype_bytes
        if self.kind in (
            SystemKind.DEEPSPEED_MOE,
            SystemKind.DEEPSPEED_TED,
            SystemKind.TUTEL,
        ):
            capacity = compute_capacity(
                tokens, model.top_k, model.num_experts, model.capacity_factor
            )
            return model.num_experts * capacity * row_bytes * self._even_a2a_imbalance
        return model.top_k * tokens * row_bytes

    def dispatch_comm_estimates(
        self, dispatch: str | None = None
    ) -> list[TransferEstimate]:
        """Per-hop network estimates of one MoE layer's dispatch exchange.

        ``"flat"`` returns one estimate (the single uneven all-to-all),
        ``"rbd"`` two (inter-node pilots, intra-node replicas), ``"hier"``
        three (gather → leader exchange → scatter, priced by
        :func:`~repro.comm.cost_model.hierarchical_dispatch_time`).  The
        combine exchange reverses the same hops, so callers double the byte
        totals for a full layer.  This is what the auto-tuner reads for its
        per-candidate inter-node traffic accounting.
        """
        kind = self._effective_dispatch(dispatch=dispatch)
        if kind not in self._estimates:  # priced once per model and dispatch kind
            self._estimates[kind] = self._price_dispatch(kind)
        return list(self._estimates[kind])

    def _price_dispatch(self, kind: str) -> list[TransferEstimate]:
        """The per-hop estimates :meth:`dispatch_comm_estimates` caches."""
        bytes_per_rank = self._a2a_bytes_per_rank()
        ranks = self._ep_group_ranks()
        if kind == "flat":
            return [
                uniform_alltoall_time(
                    self.network, ranks, bytes_per_rank / max(1, ranks.size)
                )
            ]
        red = self.redundancy()
        if kind == "rbd":
            inter_est, intra_est = hierarchical_alltoall_time(
                self.network,
                ranks,
                bytes_per_rank * (1.0 - red),
                bytes_per_rank * red,
            )
            return [inter_est, intra_est]
        if kind == "hier":
            # Hop A gathers the deduplicated rows (one per (token, dest-node)
            # group — the same (1 - redundancy) fraction RBD sends across
            # nodes), hop B exchanges them between leaders, and hop C fans
            # one row per assignment out to the expert-owning ranks.
            gather_est, inter_est, scatter_est = hierarchical_dispatch_time(
                self.network,
                ranks,
                inter_node_bytes_per_rank=bytes_per_rank * (1.0 - red),
                gather_bytes_per_rank=bytes_per_rank * (1.0 - red),
                scatter_bytes_per_rank=bytes_per_rank,
            )
            return [gather_est, inter_est, scatter_est]
        raise ValueError(f"unknown dispatch strategy {kind!r}")

    def dispatch_inter_node_bytes(self, dispatch: str | None = None) -> float:
        """Bytes one MoE layer's dispatch moves across node boundaries."""
        return sum(
            est.bytes_by_tier.get(LinkTier.INTER_NODE, 0.0)
            + est.bytes_by_tier.get(LinkTier.CROSS_RACK, 0.0)
            for est in self.dispatch_comm_estimates(dispatch)
        )

    # ------------------------------------------------------------------
    # Per-layer breakdown (forward)
    # ------------------------------------------------------------------
    def moe_layer_breakdown(self, *, dispatch: str | None = None) -> LayerTimeBreakdown:
        """Forward time breakdown of a single MoE layer."""
        model = self.model
        kind = self.kind
        tokens = self.tokens_per_device
        h, f, e, k = (
            model.hidden_size,
            model.ffn_hidden_size,
            model.num_experts,
            model.top_k,
        )
        dtype = model.dtype_bytes
        ep = self.parallel.ep_size
        experts_local = max(1, e // ep)
        capacity = compute_capacity(tokens, k, e, model.capacity_factor)

        padded = kind in (SystemKind.DEEPSPEED_MOE, SystemKind.DEEPSPEED_TED, SystemKind.TUTEL)

        # --- gating + buffer dispatch / combine --------------------------
        if kind in (SystemKind.DEEPSPEED_MOE, SystemKind.DEEPSPEED_TED):
            # Dense [S, E, C] dispatch mask + einsum dispatch/combine.
            gate = self.kernels.gating_time(tokens, h, e, 4) + self.kernels.mask_construction_time(
                tokens, e, capacity, dtype
            )
            dispatch_buffer = self.kernels.einsum_dispatch_time(tokens, e, capacity, h, dtype)
            combine_buffer = self.kernels.einsum_dispatch_time(tokens, e, capacity, h, dtype)
        elif kind is SystemKind.TUTEL:
            # Tutel's sparse kernels avoid the dense mask but still operate
            # on capacity-padded buffers, fall back to partially-uncoalesced
            # paths on AMD, and keep the combine buffer in float32.
            gate = self.kernels.gating_time(tokens, h, e, 4)
            dispatch_buffer = (
                self.kernels.gather_time(e * capacity, h, dtype, coalesced=False)
                / TUTEL_KERNEL_EFFICIENCY
            )
            combine_buffer = (
                self.kernels.scatter_time(e * capacity, h, 4, coalesced=False)
                / TUTEL_KERNEL_EFFICIENCY
            )
        else:
            gate = self.kernels.gating_time(tokens, h, e, dtype)
            dispatch_buffer = self.kernels.gather_time(k * tokens, h, dtype)
            combine_buffer = self.kernels.scatter_time(k * tokens, h, dtype)

        # --- all-to-alls ---------------------------------------------------
        dispatch_a2a = sum(
            est.seconds for est in self.dispatch_comm_estimates(dispatch)
        )
        combine_a2a = dispatch_a2a
        combine_bytes_factor = 2.0 if kind is SystemKind.TUTEL else 1.0
        combine_a2a *= combine_bytes_factor

        # --- expert compute -------------------------------------------------
        if padded:
            experts_time = self.kernels.padded_expert_gemm_time(
                experts_local, capacity, h, f
            )
        else:
            tokens_per_expert = np.full(experts_local, k * tokens / e)
            experts_time = self.kernels.sequential_gemm_time(tokens_per_expert, h, f)
        experts_time /= self._system_efficiency[kind]

        others = 0.05 * (gate + dispatch_buffer + combine_buffer)
        return LayerTimeBreakdown(
            gate=gate,
            dispatch_buffer=dispatch_buffer,
            dispatch_a2a=dispatch_a2a,
            experts=experts_time,
            combine_a2a=combine_a2a,
            combine_buffer=combine_buffer,
            others=others,
        )

    # ------------------------------------------------------------------
    def dispatch_breakdown(self, dispatch: str) -> DispatchBreakdown:
        """Dispatch-stage decomposition for Fig. 12 (padding-free pipeline).

        Decomposes ``"flat"`` and ``"rbd"``; any other kind raises.
        """
        if dispatch not in ("flat", "rbd"):
            raise ValueError(
                f"dispatch_breakdown decomposes 'flat' and 'rbd', not {dispatch!r}"
            )
        model = self.model
        tokens = self.tokens_per_device
        h, k = model.hidden_size, model.top_k
        dtype = model.dtype_bytes
        ranks = self._ep_group_ranks()
        rows = k * tokens
        buffer_time = self.kernels.gather_time(rows, h, dtype)
        bytes_per_rank = rows * h * dtype
        if dispatch == "flat":
            est = uniform_alltoall_time(
                self.network, ranks, bytes_per_rank / max(1, ranks.size)
            )
            return DispatchBreakdown(
                buffer_instantiation=buffer_time, inter_node_a2a=est.seconds
            )
        red = self.redundancy()
        inter_bytes = bytes_per_rank * (1.0 - red)
        intra_bytes = bytes_per_rank * red
        inter_est, intra_est = hierarchical_alltoall_time(
            self.network, ranks, inter_bytes, intra_bytes
        )
        s1_instantiation = self.kernels.gather_time(int(rows * (1 - red)), h, dtype)
        s2_instantiation = self.kernels.gather_time(int(rows * red), h, dtype)
        reconstruction = self.kernels.gather_time(rows, h, dtype)
        return DispatchBreakdown(
            buffer_instantiation=s1_instantiation,
            inter_node_a2a=inter_est.seconds,
            stage2_instantiation=s2_instantiation,
            intra_node_a2a=intra_est.seconds,
            input_reconstruction=reconstruction,
        )

    # ------------------------------------------------------------------
    # Dense (attention) block time
    # ------------------------------------------------------------------
    def attention_layer_time(self) -> float:
        """Forward time of the dense attention block per layer per device."""
        model = self.model
        tokens = self.parallel.micro_batch_size * model.seq_length
        flops = tokens * (
            8.0 * model.hidden_size**2 + 4.0 * model.hidden_size * model.seq_length
        )
        flops /= self.parallel.tp_size
        rate = self.gpu.peak_tflops * 1e12 * self.kernels.gemm_efficiency
        time = flops / rate
        # Memory-bound elementwise work around the attention block.
        hbm = self.gpu.memory_bandwidth_gbps * 1e9 * self.kernels.coalesced_efficiency
        elementwise_bytes = (
            self.elementwise_traversals_per_layer
            * tokens
            * model.hidden_size
            * model.dtype_bytes
            / self.parallel.tp_size
        )
        time += elementwise_bytes / hbm
        if self.parallel.tp_size > 1:
            payload = tokens * model.hidden_size * model.dtype_bytes
            tp_ranks = np.arange(self.parallel.tp_size)
            time += 2 * self.network.allreduce_time(int(payload), tp_ranks).seconds
        return time

    # ------------------------------------------------------------------
    # Iteration time and throughput
    # ------------------------------------------------------------------
    def iteration_time(self) -> float:
        """Wall-clock seconds per optimizer step (all micro-batches)."""
        parallel = self.parallel
        model = self.model
        moe_fwd = self.moe_layer_breakdown().total()
        attn_fwd = self.attention_layer_time()
        layer_fwd = moe_fwd + attn_fwd
        # Backward costs roughly 2x the forward compute and repeats the two
        # all-to-alls; approximating both with the standard 3x factor.
        per_micro = 3.0 * model.num_layers * layer_fwd

        if parallel.activation_checkpointing:
            # Recomputation adds one forward plus two extra all-to-alls per
            # MoE layer in the backward pass (§4.3 "Why not checkpointing").
            breakdown = self.moe_layer_breakdown()
            extra = model.num_layers * (
                layer_fwd + breakdown.dispatch_a2a + breakdown.combine_a2a
            )
            per_micro += extra

        if parallel.use_ssmb and parallel.tp_size > 1:
            tokens = parallel.micro_batch_size * model.seq_length
            payload = tokens * model.hidden_size * model.dtype_bytes
            tp_ranks = np.arange(parallel.tp_size)
            gather = self.network.allgather_time(int(payload // parallel.tp_size), tp_ranks)
            per_micro += 2.0 * model.num_moe_layers * gather.seconds

        steps = parallel.gradient_accumulation_steps
        compute_time = steps * per_micro
        return compute_time + self.grad_sync_time()

    def grad_sync_time(self) -> float:
        """Un-overlapped gradient-synchronization seconds per step.

        Expert gradients all-reduce over the expert-DP group and dense
        gradients over the DP group, priced fully exposed — the evaluator
        discounts the fraction the bucketed ZeRO reducer measurably hides
        under backward (``benchmarks/test_zero_micro.py``) when a
        calibration record is available.
        """
        parallel = self.parallel
        model = self.model
        expert_grad_bytes = (
            model.num_moe_layers * model.moe_layer_expert_params() / parallel.ep_size
        ) * model.dtype_bytes
        dense_grad_bytes = (
            model.num_layers * model.attention_params()
            + model.num_dense_layers * model.dense_ffn_params()
            + model.embedding_params()
        ) / parallel.tp_size * model.dtype_bytes
        edp = max(1, parallel.world_size // parallel.ep_size)
        edp_ranks = np.arange(edp) * parallel.ep_size % parallel.world_size
        dp_ranks = np.arange(min(parallel.dp_size, parallel.world_size))
        grad_sync = (
            self.network.allreduce_time(int(expert_grad_bytes), np.unique(edp_ranks)).seconds
            + self.network.allreduce_time(int(dense_grad_bytes), dp_ranks).seconds
        )
        # Collectives spanning more than one rack see congestion outliers
        # (Appendix D); the gradient all-reduce spans the full DP group.
        return grad_sync * self.network.congestion_factor(parallel.dp_size)

    def tokens_per_step(self) -> int:
        """Tokens processed per optimizer step across the whole job."""
        return self.parallel.global_batch_size * self.model.seq_length

    def throughput_tflops_per_gpu(self) -> float:
        """Achieved training TFLOPs per GPU (the paper's headline metric)."""
        flops = self.model.train_flops_per_token() * self.tokens_per_step()
        seconds = self.iteration_time()
        return flops / seconds / self.parallel.world_size / 1e12
