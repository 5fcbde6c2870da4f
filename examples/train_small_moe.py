"""Loss-validation example (Fig. 15, scaled down).

Trains the same tiny MoE transformer twice on the same synthetic data:
once with the DeepSpeed-MoE style zero-padded pipeline (negative-score
token dropping) and once with X-MoE's padding-free pipeline (capacity-only
dropping), then prints the two loss curves side by side and validates the
trained router's dispatch traffic over the simulated cluster — the
validation executes through the shared rank-batched
:class:`repro.runtime.StepRuntime` (via ``run_routing_validation``), not a
per-rank routing loop.

Flags
-----
``--steps N``
    Training steps for both pipelines (default 60).
``--router {softmax-topk,switch-top1,noisy-topk,expert-choice}``
    The routing regime: the default ``softmax-topk`` reproduces the
    paper's comparison (the two pipelines differ only by the score
    threshold),
    while the others run both pipelines under that policy instead —
    routing is an experimental axis, not a constant (see
    ``repro.routing.policies``).
``--dispatch {flat,rbd,hier}``
    The dispatch strategy used by the post-training routing validation
    (mirrors ``ParallelConfig.dispatch``): flat uneven all-to-all,
    redundancy-bypassing dispatch, or hierarchical two-hop dispatch.

Run:  python examples/train_small_moe.py [--steps 60] [--router softmax-topk]
      [--dispatch flat]
"""

import argparse

import numpy as np

from repro.baselines import PaddedMoELayer
from repro.moe import MoETransformerLM, SyntheticLMDataset, TransformerConfig
from repro.routing import DISPATCH_KINDS, ROUTER_POLICY_NAMES
from repro.tensor import Adam
from repro.xmoe import PaddingFreeMoELayer
from repro.xmoe.trainer import run_routing_validation


def make_config(score_threshold: bool, router: str) -> TransformerConfig:
    return TransformerConfig(
        vocab_size=128,
        hidden_size=32,
        ffn_hidden_size=16,
        num_experts=8,
        top_k=2,
        num_layers=2,
        seq_length=64,
        capacity_factor=1.5,
        score_threshold=score_threshold,
        router=router,
    )


def train(model: MoETransformerLM, steps: int, data_seed: int) -> list[float]:
    dataset = SyntheticLMDataset(128, 64, seed=data_seed)
    optimizer = Adam(model.parameters(), lr=3e-3)
    losses = []
    for step in range(steps):
        sequence = dataset.sample_sequence()
        optimizer.zero_grad()
        loss, lm_loss = model.loss(sequence)
        loss.backward()
        optimizer.step()
        losses.append(lm_loss)
    return losses


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--steps", type=int, default=60)
    parser.add_argument(
        "--router",
        choices=sorted(ROUTER_POLICY_NAMES),
        default="softmax-topk",
        help="router policy both pipelines train with",
    )
    parser.add_argument(
        "--dispatch",
        choices=DISPATCH_KINDS,
        default="flat",
        help="dispatch strategy for the post-training routing validation",
    )
    args = parser.parse_args()

    # Only the softmax router has DeepSpeed-MoE's score threshold.
    deepspeed_model = MoETransformerLM(
        make_config(args.router == "softmax-topk", args.router),
        lambda gate, experts, cap: PaddedMoELayer(gate, experts, cap),
        seed=21,
    )
    xmoe_model = MoETransformerLM(
        make_config(False, args.router),
        lambda gate, experts, cap: PaddingFreeMoELayer(gate, experts, cap),
        seed=21,
    )
    print(f"router policy    : {args.router}")
    print(f"model parameters : {xmoe_model.num_parameters():,}")
    print(f"training both pipelines for {args.steps} steps on identical data...\n")

    ds_losses = train(deepspeed_model, args.steps, data_seed=5)
    xmoe_losses = train(xmoe_model, args.steps, data_seed=5)

    print(f"{'step':>5} | {'DeepSpeed-MoE':>14} | {'X-MoE':>8}")
    print("-" * 35)
    for step in range(0, args.steps, max(1, args.steps // 15)):
        print(f"{step:>5} | {ds_losses[step]:>14.4f} | {xmoe_losses[step]:>8.4f}")

    diff = np.abs(np.array(ds_losses) - np.array(xmoe_losses))
    corr = np.corrcoef(ds_losses, xmoe_losses)[0, 1]
    print(f"\nmean |loss difference| : {diff.mean():.4f}")
    print(f"curve correlation      : {corr:.4f}")
    if args.router == "softmax-topk":
        print("\nAs in Fig. 15, the padding-free pipeline tracks the baseline's")
        print("convergence; small residual differences come from the different")
        print("token-dropping rules (X-MoE retains more tokens).")
    else:
        print(f"\nBoth pipelines route with {args.router!r}; differences come")
        print("from the padded pipeline's GShard capacity rule on top of the")
        print("policy's own dropping.")

    # Validate the routing regime's dispatch traffic over a simulated
    # 2-node EP group with the selected strategy (the `--dispatch` axis).
    telemetry = run_routing_validation(
        args.router,
        num_ranks=16,
        num_experts=16,
        top_k=2,
        hidden_size=32,
        tokens_per_rank=64,
        steps=2,
        dispatch=args.dispatch,
    )
    summary = telemetry.summary()
    print(f"\nrouting validation ({args.dispatch} dispatch, 16 ranks / 2 nodes):")
    print(f"  inter-node dispatch MB : {summary['inter_node_mb']:.3f}")
    print(f"  intra-node dispatch MB : {summary['intra_node_mb']:.3f}")
    print(f"  balance entropy        : {summary['balance_entropy']:.4f}")


if __name__ == "__main__":
    main()
