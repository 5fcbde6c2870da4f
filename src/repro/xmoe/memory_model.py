"""Per-device memory accounting for MoE training.

Two kinds of memory are tracked, following §3.2 of the paper:

* **Model states** — parameters, gradients, and Adam optimizer states in
  mixed precision (2 + 2 + 12 bytes per parameter), partitioned according to
  the ZeRO stage over the relevant data-parallel group (expert parameters
  over the expert-DP group, dense parameters over the full DP group) and,
  for TED, additionally sliced by TP.
* **Activations** — the per-MoE-layer working set broken down into
  ``A_dispatch``, ``A_combine``, the two expert-FFN intermediates, plus the
  system-specific overheads that differentiate the rows of Table 4:
  the ``[S, E, C]`` dispatch mask and gating workspace of DeepSpeed-MoE's
  einsum pipeline, Tutel's float32 combine buffer on AMD GPUs, and X-MoE's
  small ERI/router overhead.

The same accounting feeds Fig. 3 (bottleneck shift), Table 4 (per-layer
activation memory), Fig. 13 (SSMB memory saving vs TP degree), and the
trainability verdicts of Fig. 9 (which configurations fit in 64 GB HBM).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

from repro.config.hardware import GPUSpec, MI250X_GCD
from repro.config.model_config import MoEModelConfig
from repro.config.parallel_config import ParallelConfig, ZeroStage
from repro.moe.layer import compute_capacity


class SystemKind(enum.Enum):
    """Which training system's pipeline is being modelled."""

    XMOE = "x-moe"
    DEEPSPEED_MOE = "deepspeed-moe"
    DEEPSPEED_TED = "deepspeed-ted"
    TUTEL = "tutel"
    THEORETICAL = "theoretical"


#: Mixed-precision training bytes per parameter: bf16 params + bf16 grads.
PARAM_BYTES = 2
GRAD_BYTES = 2
#: Adam in fp32: master weights + momentum + variance.
OPTIMIZER_BYTES = 12


def zero_divisors(stage: ZeroStage, dp_size: int) -> tuple[float, float, float]:
    """(param, grad, optimizer) sharding divisors for a ZeRO stage.

    ZeRO-1 partitions optimizer state, ZeRO-2 additionally partitions
    gradients, ZeRO-3 additionally partitions parameters — each over the
    ``dp_size``-way data-parallel group that replicates the tensor.  This
    is the single source of truth shared by the analytic
    :class:`MoEMemoryModel` and the executable
    :class:`repro.dist.ZeroOptimizer`, so the tests can assert measured
    ``SimDevice`` peaks against the same arithmetic the tuner prunes with.
    """
    param_div = dp_size if stage >= ZeroStage.PARAMS else 1.0
    grad_div = dp_size if stage >= ZeroStage.GRADIENTS else 1.0
    opt_div = dp_size if stage >= ZeroStage.OPTIMIZER else 1.0
    return param_div, grad_div, opt_div


@dataclass
class ActivationBreakdown:
    """Per-MoE-layer, per-device activation components (bytes)."""

    a_dispatch: float
    a_combine: float
    a_interm0: float
    a_interm1: float
    dispatch_mask: float = 0.0
    gating_workspace: float = 0.0
    router: float = 0.0
    eri_metadata: float = 0.0

    def total(self) -> float:
        """Summed activation bytes across every pipeline stage."""
        return (
            self.a_dispatch
            + self.a_combine
            + self.a_interm0
            + self.a_interm1
            + self.dispatch_mask
            + self.gating_workspace
            + self.router
            + self.eri_metadata
        )

    def as_dict(self) -> dict[str, float]:
        """Per-stage activation bytes keyed by the paper's Table 4 names."""
        return {
            "A_dispatch": self.a_dispatch,
            "A_combine": self.a_combine,
            "A_interm0": self.a_interm0,
            "A_interm1": self.a_interm1,
            "dispatch_mask": self.dispatch_mask,
            "gating_workspace": self.gating_workspace,
            "router": self.router,
            "eri_metadata": self.eri_metadata,
        }


@dataclass
class MemoryReport:
    """Full per-device memory verdict for one configuration."""

    model_states_bytes: float
    activation_bytes: float
    activation_per_moe_layer: ActivationBreakdown
    dense_activation_bytes: float
    capacity_bytes: float
    #: param/grad/optimizer split of ``model_states_bytes`` (the terms the
    #: ZeRO stages shard; see :meth:`MoEMemoryModel.model_state_components`).
    model_state_components: dict | None = None

    @property
    def total_bytes(self) -> float:
        """Peak per-GPU bytes: model states plus activations."""
        return self.model_states_bytes + self.activation_bytes

    @property
    def total_gb(self) -> float:
        """Peak per-GPU memory in GiB."""
        return self.total_bytes / 2**30

    @property
    def fits(self) -> bool:
        """Whether the peak fits in the device's HBM capacity."""
        return self.total_bytes <= self.capacity_bytes

    @property
    def headroom_gb(self) -> float:
        """GiB left below the device capacity (negative when OOM)."""
        return (self.capacity_bytes - self.total_bytes) / 2**30


class MoEMemoryModel:
    """Per-device memory model for a (model, parallel, system) combination."""

    def __init__(
        self,
        model: MoEModelConfig,
        parallel: ParallelConfig,
        gpu: GPUSpec = MI250X_GCD,
        *,
        dense_activation_factor: float = 14.0,
    ):
        self.model = model
        self.parallel = parallel
        self.gpu = gpu
        #: bytes of dense-block (attention, norms, residuals) activation per
        #: token per layer, expressed as a multiple of ``H * dtype``;
        #: 14 covers QKV/attention-out/residual/normalization buffers with
        #: flash-style attention (no S^2 score materialization).
        self.dense_activation_factor = dense_activation_factor

    # ------------------------------------------------------------------
    # Model states
    # ------------------------------------------------------------------
    def _zero_optimizer_divisor(self, dp_size: int) -> tuple[float, float, float]:
        """(param, grad, optimizer) sharding divisors for the ZeRO stage."""
        return zero_divisors(self.parallel.zero_stage, dp_size)

    def model_state_components(
        self, system: SystemKind = SystemKind.XMOE
    ) -> dict[str, float]:
        """Per-device model-state bytes split into param/grad/optimizer terms.

        The split is what the ZeRO stages act on: ``optimizer`` shrinks at
        stage >= 1, ``grad`` at stage >= 2, ``param`` at stage >= 3 — each by
        the data-parallel degree that replicates the tensor (expert-DP for
        expert parameters, full DP for dense parameters).  The functional
        ZeRO tests assert measured :class:`~repro.cluster.device.SimDevice`
        peaks scale by exactly these divisors.
        """
        model, parallel = self.model, self.parallel
        tp = parallel.tp_size

        # Expert parameters: sharded by EP, replicated over the expert-DP
        # group (world/EP); TED additionally slices them by TP.
        expert_params = model.num_moe_layers * model.moe_layer_expert_params()
        expert_params_per_device = expert_params / parallel.ep_size
        if system is SystemKind.DEEPSPEED_TED:
            expert_params_per_device /= tp
        expert_dp = max(1, parallel.world_size // parallel.ep_size)
        ep_div, eg_div, eo_div = self._zero_optimizer_divisor(expert_dp)

        # Dense (non-expert) parameters: sliced by TP, replicated over DP.
        dense_params = (
            model.num_layers * model.attention_params()
            + model.num_moe_layers * model.router_params()
            + model.num_dense_layers * model.dense_ffn_params()
            + model.embedding_params()
        )
        dense_params_per_device = dense_params / tp
        dp_div, dg_div, do_div = self._zero_optimizer_divisor(parallel.dp_size)

        return {
            "param": expert_params_per_device * PARAM_BYTES / ep_div
            + dense_params_per_device * PARAM_BYTES / dp_div,
            "grad": expert_params_per_device * GRAD_BYTES / eg_div
            + dense_params_per_device * GRAD_BYTES / dg_div,
            "optimizer": expert_params_per_device * OPTIMIZER_BYTES / eo_div
            + dense_params_per_device * OPTIMIZER_BYTES / do_div,
        }

    def model_states_per_device(self, system: SystemKind = SystemKind.XMOE) -> float:
        """Bytes of parameters + gradients + optimizer states per device."""
        return sum(self.model_state_components(system).values())

    # ------------------------------------------------------------------
    # Activations
    # ------------------------------------------------------------------
    def tokens_per_device(self, system: SystemKind = SystemKind.XMOE) -> int:
        """Tokens entering each device's MoE block per micro-batch.

        Every TP rank replicates the sequence, so without SSMB the MoE block
        sees the full ``micro_batch * seq`` tokens; with SSMB the sequence is
        sharded ``tp_size`` ways inside the MoE block.
        """
        tokens = self.parallel.micro_batch_size * self.model.seq_length
        if system is SystemKind.XMOE and self.parallel.use_ssmb:
            tokens = -(-tokens // self.parallel.tp_size)
        return tokens

    def moe_layer_activations(
        self, system: SystemKind = SystemKind.XMOE
    ) -> ActivationBreakdown:
        """Per-MoE-layer activation breakdown for the given system (Table 4)."""
        model = self.model
        dtype = model.dtype_bytes
        k = model.top_k
        h = model.hidden_size
        f = model.ffn_hidden_size
        e = model.num_experts
        tokens = self.tokens_per_device(system)
        c = model.capacity_factor

        # The theoretical minimum: exactly the routed tokens, no padding.
        base_dispatch = k * tokens * h * dtype
        base_combine = k * tokens * h * dtype
        base_interm = k * tokens * f * dtype

        if system is SystemKind.THEORETICAL:
            return ActivationBreakdown(
                a_dispatch=base_dispatch,
                a_combine=base_combine,
                a_interm0=base_interm,
                a_interm1=base_interm,
            )

        if system is SystemKind.XMOE:
            router = 2.0 * tokens * e * dtype  # logits + probabilities
            eri = k * tokens * (3 * 8 + dtype)  # token/expert ids, weights
            return ActivationBreakdown(
                a_dispatch=base_dispatch,
                a_combine=base_combine,
                a_interm0=base_interm,
                a_interm1=base_interm,
                router=router,
                eri_metadata=eri,
            )

        # Padded systems: buffers are sized to the expert capacity, so every
        # component inflates by the capacity factor c.
        capacity = compute_capacity(tokens, k, e, c)
        padded_rows = e * capacity
        padded_dispatch = padded_rows * h * dtype
        padded_interm = padded_rows * f * dtype

        if system is SystemKind.TUTEL:
            # Tutel avoids the [S, E, C] mask but its kernels force a float32
            # combine buffer on AMD GPUs.
            combine_bytes = padded_rows * h * 4
            router = 2.0 * tokens * e * dtype
            return ActivationBreakdown(
                a_dispatch=padded_dispatch,
                a_combine=combine_bytes,
                a_interm0=padded_interm,
                a_interm1=padded_interm,
                router=router,
            )

        # DeepSpeed-MoE and DeepSpeed-TED share the einsum dispatch pipeline:
        # a dense [S, E, C] dispatch mask plus a float32 combine-weights mask
        # of the same shape are materialized during gating.
        mask_elements = float(tokens) * e * capacity
        dispatch_mask = mask_elements * dtype
        # fp32 combine-weight mask plus the bf16 token-drop mask applied on
        # top of the dispatch mask (Appendix B.1).
        gating_workspace = mask_elements * (4 + dtype)
        router = 2.0 * tokens * e * 4  # fp32 gate logits + probabilities
        breakdown = ActivationBreakdown(
            a_dispatch=padded_dispatch,
            a_combine=padded_dispatch,
            a_interm0=padded_interm,
            a_interm1=padded_interm,
            dispatch_mask=dispatch_mask,
            gating_workspace=gating_workspace,
            router=router,
        )
        if system is SystemKind.DEEPSPEED_TED:
            # TED slices the expert FFN intermediates by TP but leaves the
            # dispatch/combine buffers and masks untouched.
            breakdown.a_interm0 /= self.parallel.tp_size
            breakdown.a_interm1 /= self.parallel.tp_size
        return breakdown

    def dense_layer_activation_bytes(self) -> float:
        """Activation bytes of one dense (attention) block per device."""
        tokens = self.parallel.micro_batch_size * self.model.seq_length
        per_token = self.dense_activation_factor * self.model.hidden_size
        return tokens * per_token * self.model.dtype_bytes / self.parallel.tp_size

    def activation_bytes_per_device(self, system: SystemKind = SystemKind.XMOE) -> float:
        """Total activation working set across all layers of one micro-batch."""
        moe_layer = self.moe_layer_activations(system).total()
        dense_layer = self.dense_layer_activation_bytes()
        layers_moe = self.model.num_moe_layers
        layers_total = self.model.num_layers
        if self.parallel.activation_checkpointing:
            # Only the boundary activations of each layer are retained plus
            # one layer's full working set during recomputation.
            tokens = self.parallel.micro_batch_size * self.model.seq_length
            boundary = tokens * self.model.hidden_size * self.model.dtype_bytes
            return layers_total * boundary + moe_layer + dense_layer
        return layers_moe * moe_layer + layers_total * dense_layer

    # ------------------------------------------------------------------
    def report(self, system: SystemKind = SystemKind.XMOE) -> MemoryReport:
        """Full per-device memory report with trainability verdict."""
        components = self.model_state_components(system)
        return MemoryReport(
            model_states_bytes=sum(components.values()),
            activation_bytes=self.activation_bytes_per_device(system),
            activation_per_moe_layer=self.moe_layer_activations(system),
            dense_activation_bytes=self.dense_layer_activation_bytes(),
            capacity_bytes=float(self.gpu.memory_bytes),
            model_state_components=components,
        )

    def fits(self, system: SystemKind = SystemKind.XMOE) -> bool:
        """Whether the configuration trains without OOM on this GPU."""
        return self.report(system).fits
