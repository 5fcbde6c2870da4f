"""The padding-free MoE pipeline (single process).

:class:`PaddingFreeMoELayer` is the autograd version that plugs into
:class:`~repro.moe.transformer.MoETransformerLM`.  It follows Listing 1
exactly: gating → PFT construction → gather → sequential GEMM → weighted
scatter, with no zero padding anywhere.  It trains the loss-validation
model (Fig. 15) against the padded baseline.  The forward body is
:class:`~repro.moe.layer.MoELayer`'s; the layout is the PFT itself.  With
``capacity_factor=None`` nothing is dropped for capacity, which is
Megablocks' rule (its block padding is
:meth:`~repro.moe.layer.MoELayerStats.block_padded_rows`).

The multi-rank version, which moves PFT rows over a
:class:`~repro.comm.process_group.ProcessGroup` with real uneven
all-to-alls, is :func:`repro.routing.make_dispatcher`: ``kind="flat"`` is
the correctness oracle that ``"rbd"`` and ``"hier"`` are compared against.
"""

from __future__ import annotations

from repro.moe.layer import MoELayer
from repro.routing.policies import RoutingDecision
from repro.xmoe.pft import PFT


class PaddingFreeMoELayer(MoELayer):
    """Single-process functional X-MoE layer (Listing 1 semantics).

    Capacity keeps each expert's highest-scoring assignments (PFT
    construction); the last PFT is kept as :attr:`last_pft`.
    """

    last_pft: PFT | None = None

    def _layout(self, decision: RoutingDecision, capacity: int | None):
        # Policy drops are filtered inside to_pft, then the standard
        # capacity rule applies.
        pft = decision.to_pft(capacity)
        self.last_pft = pft
        return pft.token_ids, pft.expert_ids, None, pft.tokens_per_expert
