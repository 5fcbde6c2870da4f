"""Command-line entry point: regenerate the paper's headline results.

Usage::

    python -m repro fig9        # trainability + throughput on 256/1024 GPUs
    python -m repro table4      # per-MoE-layer activation memory
    python -m repro fig4        # redundancy rate vs EP size
    python -m repro fig13       # SSMB memory saving vs TP degree
    python -m repro configs     # Table 3 model configurations
    python -m repro tune        # auto-tune a parallel plan for a cluster
    python -m repro train       # tiny ZeRO-sharded training validation run
    python -m repro obs         # record a traced run; summarize / export it
    python -m repro serve       # continuous-batching serving over a trace
    python -m repro monitor     # serve a trace with online SLO/drift monitoring

Each subcommand prints the corresponding rows; the full benchmark harness
(with assertions on the expected shapes) lives under ``benchmarks/``.
"""

from __future__ import annotations

import argparse


def _cmd_configs(_args) -> None:
    from repro.config import paper_config

    print(f"{'model':>8} | {'total (B)':>10} | {'activated (B)':>14} | experts | top-k | layers")
    for name in ("small", "medium", "large", "super"):
        cfg = paper_config(name)
        print(
            f"{name:>8} | {cfg.total_params() / 1e9:>10.1f} | "
            f"{cfg.activated_params() / 1e9:>14.1f} | {cfg.num_experts:>7} | "
            f"{cfg.top_k:>5} | {cfg.num_layers:>6}"
        )


def _cmd_fig4(_args) -> None:
    from repro.analysis import redundancy_by_ep_size

    print("EP size | redundant share of dispatched tokens")
    for ep, rate in redundancy_by_ep_size().items():
        print(f"{ep:>7} | {rate:.1%}")


def _cmd_table4(_args) -> None:
    from repro.config import ParallelConfig, paper_config
    from repro.xmoe.memory_model import MoEMemoryModel, SystemKind

    parallel = ParallelConfig(
        world_size=256, ep_size=64, micro_batch_size=1, global_batch_size=1024
    )
    memory = MoEMemoryModel(paper_config("large"), parallel)
    print("per-MoE-layer activation memory, Large model, 256 GPUs, EP=64")
    for kind in (SystemKind.DEEPSPEED_MOE, SystemKind.TUTEL, SystemKind.XMOE, SystemKind.THEORETICAL):
        total = memory.moe_layer_activations(kind).total() / 2**30
        print(f"  {kind.value:<15s}: {total:5.2f} GB")


def _cmd_fig13(_args) -> None:
    from repro.config import ParallelConfig, paper_config
    from repro.xmoe.memory_model import MoEMemoryModel, SystemKind

    model = paper_config("large")
    print("max per-device memory, Large model, 256 GPUs, EP=64")
    for tp in (1, 2, 4):
        base = ParallelConfig(
            world_size=256, ep_size=64, tp_size=tp, micro_batch_size=1, global_batch_size=1024
        )
        with_ssmb = MoEMemoryModel(model, base.with_overrides(use_ssmb=True)).report(SystemKind.XMOE)
        without = MoEMemoryModel(model, base.with_overrides(use_ssmb=False)).report(SystemKind.XMOE)
        print(f"  TP={tp}: w/o SSMB {without.total_gb:6.1f} GB | w/ SSMB {with_ssmb.total_gb:6.1f} GB")


def _cmd_fig9(args) -> None:
    from repro.config import frontier_system, paper_config
    from repro.xmoe.memory_model import SystemKind
    from repro.tuner import sweep_best_config

    kinds = [
        SystemKind.DEEPSPEED_MOE,
        SystemKind.DEEPSPEED_TED,
        SystemKind.TUTEL,
        SystemKind.XMOE,
    ]
    models = ["small", "medium", "large"] if not args.quick else ["small"]
    sys256 = frontier_system(num_nodes=32)
    print(f"{'model':>8} | " + " | ".join(f"{k.value:>14}" for k in kinds))
    for name in models:
        cells = []
        for kind in kinds:
            result = sweep_best_config(paper_config(name), 256, kind, sys256)
            cells.append("OOM" if not result.feasible else f"{result.tflops_per_gpu:.1f} TF")
        print(f"{name:>8} | " + " | ".join(f"{c:>14}" for c in cells))
    if not args.quick:
        result = sweep_best_config(
            paper_config("super"), 1024, SystemKind.XMOE, frontier_system(num_nodes=128)
        )
        status = "OOM" if not result.feasible else (
            f"{result.tflops_per_gpu:.1f} TF/GPU, {result.aggregated_pflops:.2f} PFLOPs"
        )
        print(f"{'super':>8} | x-moe on 1024 GPUs: {status}")


def _cmd_tune(args) -> None:
    from repro.config import dgx_cluster, frontier_system, paper_config
    from repro.tuner import load_calibration, tune

    model = paper_config(args.model)
    if args.system == "frontier":
        system = frontier_system(num_nodes=args.nodes)
    else:
        system = dgx_cluster(num_nodes=args.nodes)
    tokens = args.token_budget
    if tokens is None:
        tokens = args.global_batch * model.seq_length
    calibration = load_calibration() if args.calibrate else None
    report = tune(model, system, tokens_per_step=tokens, calibration=calibration)
    print(report.describe())
    if not report.ranked:
        return
    header = (
        f"{'rank':>4} | {'ep':>4} | {'tp':>2} | {'zero':>4} | {'ssmb':>4} | "
        f"{'dispatch':>8} | {'placement':>9} | {'router':>12} | {'cap':>4} | "
        f"{'step (s)':>9} | {'TF/GPU':>6} | {'mem GB':>6} | {'pareto':>6}"
    )
    print("\n" + header)
    print("-" * len(header))
    for row in report.table_rows(args.top):
        print(
            f"{row['rank']:>4} | {row['ep']:>4} | {row['tp']:>2} | {row['zero']:>4} | "
            f"{row['ssmb']:>4} | {row['dispatch']:>8} | {row['placement']:>9} | "
            f"{row['router']:>12} | {row['cap']:>4.2f} | {row['step_s']:>9.3f} | "
            f"{row['TF/GPU']:>6.1f} | {row['mem_GB']:>6.1f} | {row['pareto']:>6}"
        )
    best = report.best_parallel_config()
    print(
        f"\nconsume the winner: dispatcher_for_config(group, {model.num_experts}, "
        f"plan) with plan.dispatch={best.dispatch!r}, and "
        f"policy_for_config(report.best_model_config(), plan)"
    )


def _cmd_train(args) -> None:
    from repro.xmoe.trainer import run_zero_training_validation

    result = run_zero_training_validation(
        zero_stage=args.zero_stage,
        dp_size=args.dp,
        steps=args.steps,
        bucket_bytes=args.bucket_kb << 10,
        seed=args.seed,
    )
    print(
        f"ZeRO-{int(result.stage)} training: dp={result.dp_size} "
        f"steps={result.steps} buckets={args.bucket_kb} KiB"
    )
    print("loss: " + "  ".join(f"{loss:.5f}" for loss in result.losses))
    print("\nper-rank model state (bytes)     measured    predicted")
    for key in ("param", "grad", "optimizer"):
        print(
            f"  {key:<28} {result.measured_state_bytes[key]:>10,.0f} "
            f"{result.predicted_state_bytes[key]:>12,.0f}"
        )
    predicted_total = sum(result.predicted_state_bytes.values())
    print(
        f"  rank-0 device peak           {result.device_peak_bytes:>10,} "
        f"{predicted_total:>12,.0f}"
    )
    timeline = result.timeline
    print(
        f"\ngrad reduction: comm {timeline.comm_seconds * 1e6:.1f} us, "
        f"exposed {timeline.exposed_seconds * 1e6:.1f} us, "
        f"overlap {result.overlap_ratio:.0%}"
    )
    by_op = result.comm_stats.seconds_by_op()
    print(
        "collectives: "
        + ", ".join(f"{op} {seconds * 1e6:.1f} us" for op, seconds in by_op.items())
        + f" | {result.comm_stats.total_bytes / 2**20:.2f} MiB moved"
    )


def _cmd_obs(args) -> None:
    from repro.obs import (
        record_routing_run,
        summary_table,
        write_chrome_trace,
        write_metrics_json,
    )

    tracer, registry, telemetry = record_routing_run(
        router=args.router,
        dispatch=args.dispatch,
        num_ranks=args.ranks,
        top_k=args.top_k,
        tokens_per_rank=args.tokens,
        steps=args.steps,
        skew=args.skew,
        seed=args.seed,
    )
    print(
        f"recorded {args.steps} steps: router={args.router} dispatch={args.dispatch} "
        f"ranks={args.ranks} tokens/rank={args.tokens}"
    )
    print()
    print(summary_table(tracer))
    print()
    summary = telemetry.summary()
    print("telemetry: " + ", ".join(f"{k}={v}" for k, v in summary.items()))
    if args.trace_out:
        path = write_chrome_trace(args.trace_out, tracer)
        print(f"wrote Perfetto trace: {path} (open at https://ui.perfetto.dev)")
    if args.metrics_out:
        path = write_metrics_json(args.metrics_out, registry)
        print(f"wrote metrics snapshot: {path}")


def _build_requests(args, rng):
    from repro.serving import bursty_arrivals, poisson_arrivals, synth_requests

    if args.trace == "poisson":
        arrivals = poisson_arrivals(rng, args.requests, args.rate)
    else:
        arrivals = bursty_arrivals(
            args.requests, burst_size=args.burst_size, gap_steps=args.gap_steps
        )
    return synth_requests(
        rng,
        arrivals,
        args.hidden,
        prompt_len=(2, args.max_prompt),
        max_new_tokens=(2, args.max_tokens),
        deadline_steps=args.deadline,
    )


def _cmd_serve(args) -> None:
    import numpy as np

    from repro.serving import (
        MemoryBudgetAdmission,
        StaticBatchAdmission,
        format_slo_table,
        make_serving_engine,
        run_trace,
    )

    def build_requests():
        return _build_requests(args, np.random.default_rng(args.seed))

    def build_admission(name):
        if name == "static":
            return StaticBatchAdmission()
        if name == "memory-budget":
            from repro.config import ParallelConfig, paper_config
            from repro.xmoe.memory_model import MoEMemoryModel

            parallel = ParallelConfig(
                world_size=256, ep_size=64, micro_batch_size=1,
                global_batch_size=1024,
            )
            model = MoEMemoryModel(paper_config("small"), parallel)
            return MemoryBudgetAdmission(model, max_slots=args.slots)
        return None  # FCFS default

    admissions = [args.admission]
    if args.compare and args.admission != "static":
        admissions.append("static")
    # Serves are bit-deterministic, so --compare wall clocks come from the
    # fastest of three repeats after a warm-up pass — otherwise the first
    # engine pays the process's one-time costs and the speedup lies.
    repeats = 3 if args.compare else 1
    warmed = not args.compare
    rows = []
    primary_monitor = None
    for name in admissions:
        reports = []
        for _ in range(repeats + (0 if warmed else 1)):
            engine = make_serving_engine(
                router=args.router,
                dispatch=args.dispatch,
                num_slots=args.slots,
                top_k=args.top_k,
                hidden_size=args.hidden,
                seed=args.seed,
                admission=build_admission(name),
            )
            if args.monitor:
                from repro.obs import default_serving_monitor

                engine.monitor = default_serving_monitor(
                    engine.registry, telemetry=engine.runtime.telemetry
                )
                if name == args.admission:
                    primary_monitor = engine.monitor
            reports.append(run_trace(engine, build_requests()))
            if not warmed:
                warmed = True
                reports.clear()
        report = min(reports, key=lambda r: r.wall_seconds)
        rows.append(report.slo_row())
        attribution = engine.runtime.telemetry.request_drop_attribution()
        if attribution:
            dropped = sum(sum(kinds.values()) for kinds in attribution.values())
            print(
                f"[{name}] {dropped} dropped assignments attributed across "
                f"{len(attribution)} requests"
            )
    print(
        f"served {args.requests} requests: trace={args.trace} router={args.router} "
        f"dispatch={args.dispatch} slots={args.slots}"
    )
    print()
    print(format_slo_table(rows, title="serving SLO"))
    if len(rows) == 2 and rows[1]["tokens_per_sec"] > 0:
        speedup = rows[0]["tokens_per_sec"] / rows[1]["tokens_per_sec"]
        print(f"\ncontinuous vs static tokens/sec speedup: {speedup:.2f}x")
    if primary_monitor is not None:
        from repro.obs import render_dashboard

        print()
        print(
            render_dashboard(
                primary_monitor, prefixes=("serving_", "routing_")
            )
        )


def _force_skew(engine, requests, rng, *, start_fraction: float = 0.4):
    """Rebuild the tail of a trace as prefill-heavy, expert-aligned requests.

    The first ``start_fraction`` of the trace stays balanced (the drift
    detectors calibrate on it); every later request gets a long prompt of
    :func:`~repro.routing.policies.skewed_router_tokens` rows aligned to
    the engine policy's weight columns, so routing load piles onto the
    popular experts and the load-imbalance series ramps — the deterministic
    drift the monitor must catch.
    """
    from repro.routing.policies import skewed_router_tokens
    from repro.serving import Request

    weight = engine.runtime.policy.weight
    cut = max(1, int(len(requests) * start_fraction))
    skewed = list(requests[:cut])
    for request in requests[cut:]:
        rows = max(int(request.prompt.shape[0]), 12)
        skewed.append(
            Request(
                request_id=request.request_id,
                prompt=skewed_router_tokens(rng, rows, weight, skew=3.0, boost=8.0),
                max_new_tokens=min(request.max_new_tokens, 2),
                arrival=request.arrival,
                deadline_steps=request.deadline_steps,
            )
        )
    return skewed


def _cmd_monitor(args) -> int:
    from pathlib import Path

    import numpy as np

    from repro.obs import (
        MonitorConfig,
        Tracer,
        default_serving_monitor,
        render_dashboard,
        use_tracer,
        write_chrome_trace,
        write_metrics_json,
    )
    from repro.serving import make_serving_engine, run_trace

    engine = make_serving_engine(
        router=args.router,
        dispatch=args.dispatch,
        num_slots=args.slots,
        top_k=args.top_k,
        hidden_size=args.hidden,
        seed=args.seed,
        capacity_factor=args.capacity_factor,
    )
    retune_hook = None
    if args.retune:
        from repro.config import ParallelConfig, frontier_system, paper_config
        from repro.obs import TunerReTuneHook
        from repro.tuner import SearchSpace

        model = paper_config("small")
        system = frontier_system(num_nodes=2)
        tokens = 64 * model.seq_length
        # A small axis-constrained space keeps the online re-tune fast;
        # the naive flat/EP=1 active plan is what drift should replace.
        space = SearchSpace(
            system=system,
            model=model,
            tokens_per_step=tokens,
            router_options=("softmax-topk",),
            capacity_factors=(1.0, 1.25),
        )
        retune_hook = TunerReTuneHook(
            model,
            system,
            ParallelConfig(world_size=system.total_gpus, ep_size=1, dispatch="flat"),
            space=space,
        )
    config = MonitorConfig(
        warmup=args.warmup,
        latency_p99_slo=args.latency_slo,
        ttft_p99_slo=args.ttft_slo,
        deadline_budget=args.deadline_budget,
    )
    monitor = default_serving_monitor(
        engine.registry,
        telemetry=engine.runtime.telemetry,
        config=config,
        retune_hook=retune_hook,
    )
    engine.monitor = monitor

    rng = np.random.default_rng(args.seed)
    requests = _build_requests(args, rng)
    if args.force_skew:
        requests = _force_skew(engine, requests, rng)
    tracer = Tracer()
    with use_tracer(tracer):
        report = run_trace(engine, requests)
    health = monitor.health()
    print(
        f"monitored {args.requests} requests over {report.steps} steps: "
        f"trace={args.trace} router={args.router} dispatch={args.dispatch} "
        f"slots={args.slots}"
    )
    print()
    print(render_dashboard(monitor, prefixes=("serving_", "routing_")))
    if args.metrics_out:
        path = write_metrics_json(args.metrics_out, engine.registry)
        print(f"wrote metrics snapshot: {path}")
    if args.dashboard_out:
        path = Path(args.dashboard_out)
        path.write_text(
            render_dashboard(
                monitor, markdown=True, prefixes=("serving_", "routing_")
            )
        )
        print(f"wrote dashboard: {path}")
    if args.trace_out:
        path = write_chrome_trace(args.trace_out, tracer, monitor=monitor)
        print(f"wrote Perfetto trace: {path} (open at https://ui.perfetto.dev)")
    print(f"\nexit code {health.exit_code} ({health.status})")
    return health.exit_code


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="repro", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)
    sub.add_parser("configs", help="Table 3 model configurations").set_defaults(fn=_cmd_configs)
    sub.add_parser("fig4", help="redundancy rate vs EP size").set_defaults(fn=_cmd_fig4)
    sub.add_parser("table4", help="per-layer activation memory").set_defaults(fn=_cmd_table4)
    sub.add_parser("fig13", help="SSMB memory saving vs TP").set_defaults(fn=_cmd_fig13)
    fig9 = sub.add_parser("fig9", help="trainability and throughput sweep")
    fig9.add_argument("--quick", action="store_true", help="only the Small model")
    fig9.set_defaults(fn=_cmd_fig9)
    tune = sub.add_parser("tune", help="auto-tune a parallel plan for a cluster")
    tune.add_argument("--model", default="small", help="paper config name (Table 3)")
    tune.add_argument(
        "--system", choices=("frontier", "dgx"), default="frontier", help="cluster kind"
    )
    tune.add_argument("--nodes", type=int, default=16, help="number of nodes")
    tune.add_argument(
        "--token-budget", type=int, default=None, help="tokens per optimizer step"
    )
    tune.add_argument(
        "--global-batch", type=int, default=1024,
        help="sequences per step (used when --token-budget is omitted)",
    )
    tune.add_argument("--top", type=int, default=10, help="ranked plans to print")
    tune.add_argument(
        "--calibrate", action="store_true",
        help="fold measured micro-benchmark constants from benchmarks/results/ in",
    )
    tune.set_defaults(fn=_cmd_tune)
    train = sub.add_parser(
        "train", help="tiny ZeRO-sharded training run; memory + overlap report"
    )
    train.add_argument(
        "--zero-stage", type=int, choices=(0, 1, 2), default=2,
        help="ZeRO stage: 0 = DP baseline, 1 = sharded optimizer, 2 = + sharded grads",
    )
    train.add_argument("--dp", type=int, default=4, help="data-parallel replicas")
    train.add_argument("--steps", type=int, default=3, help="optimizer steps")
    train.add_argument(
        "--bucket-kb", type=int, default=32, help="gradient bucket size in KiB"
    )
    train.add_argument("--seed", type=int, default=0, help="model + data seed")
    train.set_defaults(fn=_cmd_train)
    obs = sub.add_parser(
        "obs", help="record one traced routing run; summarize / export it"
    )
    obs.add_argument("--router", default="softmax-topk", help="router policy name")
    obs.add_argument(
        "--dispatch", choices=("flat", "rbd", "hier"), default="flat",
        help="dispatch strategy to trace",
    )
    obs.add_argument("--ranks", type=int, default=8, help="EP group size")
    obs.add_argument("--top-k", type=int, default=2, help="experts per token")
    obs.add_argument("--tokens", type=int, default=64, help="tokens per rank per step")
    obs.add_argument("--steps", type=int, default=4, help="steps to record")
    obs.add_argument("--skew", type=float, default=1.0, help="Zipf skew of the batches")
    obs.add_argument("--seed", type=int, default=0, help="recording seed")
    obs.add_argument(
        "--trace-out", default=None, metavar="PATH",
        help="write a Perfetto-loadable Chrome trace JSON here",
    )
    obs.add_argument(
        "--metrics-out", default=None, metavar="PATH",
        help="write the metrics registry snapshot JSON here",
    )
    obs.set_defaults(fn=_cmd_obs)
    serve = sub.add_parser(
        "serve", help="continuous-batching serving over a synthetic trace"
    )
    serve.add_argument("--router", default="softmax-topk", help="router policy name")
    serve.add_argument(
        "--dispatch", choices=("flat", "rbd", "hier"), default="flat",
        help="dispatch strategy to serve through",
    )
    serve.add_argument("--slots", type=int, default=8, help="serving slots (EP ranks)")
    serve.add_argument("--top-k", type=int, default=2, help="experts per token")
    serve.add_argument("--hidden", type=int, default=32, help="hidden size")
    serve.add_argument("--requests", type=int, default=32, help="requests in the trace")
    serve.add_argument(
        "--trace", choices=("poisson", "bursty"), default="poisson",
        help="arrival process",
    )
    serve.add_argument(
        "--rate", type=float, default=1.0, help="Poisson arrivals per engine step"
    )
    serve.add_argument(
        "--burst-size", type=int, default=8, help="requests per burst (bursty trace)"
    )
    serve.add_argument(
        "--gap-steps", type=int, default=16, help="steps between bursts (bursty trace)"
    )
    serve.add_argument(
        "--max-prompt", type=int, default=8, help="max prompt rows per request"
    )
    serve.add_argument(
        "--max-tokens", type=int, default=12, help="max decode tokens per request"
    )
    serve.add_argument(
        "--deadline", type=int, default=None, help="per-request SLO deadline in steps"
    )
    serve.add_argument(
        "--admission", choices=("fcfs", "static", "memory-budget"), default="fcfs",
        help="admission policy",
    )
    serve.add_argument(
        "--compare", action="store_true",
        help="also run the static fixed-batch baseline and print the speedup",
    )
    serve.add_argument("--seed", type=int, default=0, help="trace + engine seed")
    serve.add_argument(
        "--monitor", action="store_true",
        help="attach the online monitor and print its dashboard after the run",
    )
    serve.set_defaults(fn=_cmd_serve)
    monitor = sub.add_parser(
        "monitor",
        help="serve a trace with online SLO/drift monitoring; exit code = health",
    )
    monitor.add_argument("--router", default="softmax-topk", help="router policy name")
    monitor.add_argument(
        "--dispatch", choices=("flat", "rbd", "hier"), default="flat",
        help="dispatch strategy to serve through",
    )
    monitor.add_argument("--slots", type=int, default=8, help="serving slots (EP ranks)")
    monitor.add_argument("--top-k", type=int, default=2, help="experts per token")
    monitor.add_argument("--hidden", type=int, default=32, help="hidden size")
    monitor.add_argument("--requests", type=int, default=32, help="requests in the trace")
    monitor.add_argument(
        "--trace", choices=("poisson", "bursty"), default="poisson",
        help="arrival process",
    )
    monitor.add_argument(
        "--rate", type=float, default=1.0, help="Poisson arrivals per engine step"
    )
    monitor.add_argument(
        "--burst-size", type=int, default=8, help="requests per burst (bursty trace)"
    )
    monitor.add_argument(
        "--gap-steps", type=int, default=16, help="steps between bursts (bursty trace)"
    )
    monitor.add_argument(
        "--max-prompt", type=int, default=8, help="max prompt rows per request"
    )
    monitor.add_argument(
        "--max-tokens", type=int, default=12, help="max decode tokens per request"
    )
    monitor.add_argument(
        "--deadline", type=int, default=None, help="per-request SLO deadline in steps"
    )
    monitor.add_argument(
        "--capacity-factor", type=float, default=None,
        help="per-expert capacity factor (None = unbounded, no drops)",
    )
    monitor.add_argument("--seed", type=int, default=0, help="trace + engine seed")
    monitor.add_argument(
        "--warmup", type=int, default=16,
        help="calibration steps before drift detectors may fire",
    )
    monitor.add_argument(
        "--latency-slo", type=float, default=None,
        help="SLO bound on the windowed latency p99 (steps)",
    )
    monitor.add_argument(
        "--ttft-slo", type=float, default=None,
        help="SLO bound on the windowed TTFT p99 (steps)",
    )
    monitor.add_argument(
        "--deadline-budget", type=float, default=None,
        help="tolerated deadline-miss fraction for the burn-rate rule",
    )
    monitor.add_argument(
        "--force-skew", action="store_true",
        help="rebuild the trace tail as expert-aligned prompts to force drift",
    )
    monitor.add_argument(
        "--retune", action="store_true",
        help="attach the tuner-backed re-tune hook to critical drift alerts",
    )
    monitor.add_argument(
        "--trace-out", default=None, metavar="PATH",
        help="write a Perfetto-loadable Chrome trace JSON here",
    )
    monitor.add_argument(
        "--metrics-out", default=None, metavar="PATH",
        help="write the metrics registry snapshot JSON here",
    )
    monitor.add_argument(
        "--dashboard-out", default=None, metavar="PATH",
        help="write the Markdown dashboard here",
    )
    monitor.set_defaults(fn=_cmd_monitor)
    args = parser.parse_args(argv)
    rc = args.fn(args)
    return rc if isinstance(rc, int) else 0


if __name__ == "__main__":
    raise SystemExit(main())
