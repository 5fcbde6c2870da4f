#!/usr/bin/env python3
"""End-to-end + per-layer benchmark of the X-MoE reproduction.

Two ways in, one code path:

``python3 bench/run.py --workload W --seed N --seconds S --trace 0|1``
    one run of one workload in this process.  ``--trace 0`` measures the
    end-to-end metrics with tracing off; ``--trace 1`` measures the
    per-layer metrics from spans the benchmark wraps around each layer's
    public callables.  The last line of standard output is one JSON
    object: ``correct``, ``attempted``, ``failed``, ``metrics``.

``python3 bench/run.py [--repeats 3] [--out FILE]``
    the whole suite: one child process per (workload, repeat), workloads
    interleaved ``A B C D A B C D ...``, then one traced child per
    workload; medians and quartiles over the repeats go to ``--out``.

Metric names, units, directions and bounds live in ``BENCHMARK.json`` at
the repository root and nowhere else; see ``bench/README.md``.
"""

from __future__ import annotations

import os

if __name__ == "__main__":
    # One BLAS thread, so that on a small box all load comes from one
    # thread.  Must happen before numpy loads its BLAS; children inherit it.
    for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[_var] = "1"

import argparse
import gc
import json
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SPEC_PATH = ROOT / "BENCHMARK.json"

#: times the system is set up per run; ``setup_s`` is their median.
SETUPS = 5
#: share of a traced run's time budget spent traced; the rest re-measures
#: the same ops untraced, for ``bench.trace_overhead_ratio``.
TRACED_SHARE = 0.75
#: end-to-end metrics read off the costed simulation, not the host clock:
#: for one seed they repeat exactly (``compare.py`` demands it).
SIM_METRICS = ("internode_mb_per_step",)


def load_spec() -> dict:
    """The benchmark contract: workloads, metric names, units, bounds."""
    with open(SPEC_PATH) as fh:
        return json.load(fh)


def load_program():
    """Import the checkout's own ``repro`` and the benchmark's modules."""
    for path in (ROOT / "src", BENCH_DIR):
        if str(path) not in sys.path:
            sys.path.insert(0, str(path))
    import repro

    if (ROOT / "src") not in Path(repro.__file__).resolve().parents:
        raise SystemExit(f"repro resolved to {repro.__file__}, not to {ROOT / 'src'}")
    import tracing
    import workloads

    return tracing, workloads


def percentile(values, q: float) -> float:
    """Linear-interpolated percentile of a non-empty sample."""
    return float(np.percentile(np.asarray(values, dtype=np.float64), q))


# ----------------------------------------------------------------------
# One run
# ----------------------------------------------------------------------
def measure(workload, seconds: float, tracer, min_boundaries: int):
    """Run ops until ``seconds`` have passed and a boundary is reached.

    Returns the per-op wall seconds and the workload's exact figures as
    they stood when the seed-deterministic prefix closed.
    """
    op = workload.op if tracer is None else tracer.wrap(workload.op, "bench.op", "bench")
    clock = time.perf_counter
    op_s: list[float] = []
    boundaries, exact = 0, None
    gc.collect()  # before, never during, the timed region
    start = clock()
    while True:
        if tracer is not None:
            tracer.op_id = len(op_s)
        t0 = clock()
        boundary = op(len(op_s))
        op_s.append(clock() - t0)
        workload.account()
        if boundary:
            boundaries += 1
            if boundaries == min_boundaries and workload.in_prefix:
                exact = workload.exact()
                workload.in_prefix = False
            if boundaries >= min_boundaries and clock() - start >= seconds:
                return op_s, exact


def end_to_end(workload, op_s, setup_s, exact) -> dict[str, float]:
    """Every end-to-end metric, from an untraced phase."""
    latency, first = workload.latencies(op_s)
    return {
        "setup_s": statistics.median(setup_s),
        "tokens_per_s": workload.tokens / sum(op_s),
        "step_ms_p50": percentile(op_s, 50) * 1e3,
        "step_ms_p90": percentile(op_s, 90) * 1e3,
        "latency_ms_p50": percentile(latency, 50) * 1e3,
        "latency_ms_p95": percentile(latency, 95) * 1e3,
        "ttft_ms_p50": percentile(first, 50) * 1e3,
        "ttft_ms_p95": percentile(first, 95) * 1e3,
        "internode_mb_per_step": exact["internode_mb_per_step"],
        "host_peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def per_layer_times(tracer, traced_s, untraced_s) -> dict[str, float]:
    """Every timed per-layer metric the traced phase's spans produced.

    A ``*_ms`` metric is the self time of the spans of that name — their
    duration minus what their child spans cover — per op, so the layers
    of one op add up to its wall time (``bench.layer_closure``).
    """
    self_s, total_s, calls = tracer.self_times()
    ops = len(traced_s)
    metrics = {
        name: seconds / ops * 1e3
        for name, seconds in self_s.items()
        if not name.startswith(("bench.", "runtime.step."))
    }
    metrics["tensor.backward_calls"] = calls["tensor.backward_ms"] / ops
    metrics["xmoe.moe_layer_calls"] = calls["xmoe.moe_layer_ms"] / ops
    runtime_steps = [name for name in total_s if name.startswith("runtime.step.")]
    metrics["runtime.step_self_ms"] = sum(self_s[n] for n in runtime_steps) / ops * 1e3
    for name in runtime_steps:
        metrics[name.replace("runtime.step.", "runtime.step_ms.")] = total_s[name] / ops * 1e3
    metrics["bench.layer_closure"] = 1.0 - self_s["bench.op"] / total_s["bench.op"]
    metrics["bench.trace_overhead_ratio"] = statistics.median(traced_s) / statistics.median(
        untraced_s
    )
    return metrics


def run_once(
    name: str,
    *,
    seed: int = 0,
    seconds: float = 0.0,
    trace: bool = False,
    quick: bool = False,
    trace_out: str | None = None,
) -> dict:
    """One run of one workload; returns the run's full detail record."""
    tracing, workloads = load_program()
    spec = load_spec()
    if name not in workloads.WORKLOADS:
        raise SystemExit(f"unknown workload {name!r}; choose from {sorted(workloads.WORKLOADS)}")
    clock = time.perf_counter
    setup_s, workload = [], None
    for _ in range(1 if quick else SETUPS):
        workload = None  # drop the previous system before building the next
        gc.collect()
        t0 = clock()
        workload = workloads.WORKLOADS[name](seed, quick)
        workload.setup()
        setup_s.append(clock() - t0)

    prefix = workload.prefix_boundaries
    if not trace:
        op_s, exact = measure(workload, seconds, None, prefix)
        workload.finish()
        metrics = end_to_end(workload, op_s, setup_s, exact)
        declared = spec["end_to_end"]
    else:
        tracer = tracing.Tracer()
        try:
            workloads.patch_classes(tracer)
            workload.instrument(tracer)
            traced_s, exact = measure(workload, seconds * TRACED_SHARE, tracer, prefix)
        finally:
            tracer.unpatch()
            workload.tracer = None
        counts = workload.layer_counts()  # as of the end of the traced phase
        untraced_s, _ = measure(workload, seconds * (1 - TRACED_SHARE), None, 1)
        workload.finish()
        metrics = {**per_layer_times(tracer, traced_s, untraced_s), **counts}
        op_s = traced_s
        declared = spec["per_layer"]
        if trace_out:
            tracer.write_chrome_trace(trace_out)

    unknown = sorted(set(metrics) - {m["name"] for m in declared})
    if unknown:
        raise SystemExit(f"metrics not declared in BENCHMARK.json: {unknown}")
    return {
        "workload": name,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "quick": quick,
        "correct": workload.failed == 0,
        "attempted": workload.attempted,
        "failed": workload.failed,
        "ops": len(op_s),
        "latency_samples": len(workload.latencies(op_s)[0]),
        "exact": exact,
        # A layer this workload never enters spends no time there.
        "metrics": {
            m["name"]: {"value": float(metrics.get(m["name"], 0.0)), "unit": m["unit"]}
            for m in declared
        },
    }


def print_metrics(detail: dict) -> None:
    """Human-readable table of one run's metrics."""
    kind = "per-layer (traced)" if detail["trace"] else "end-to-end"
    print(
        f"== {detail['workload']} seed={detail['seed']} {kind}: {detail['ops']} ops, "
        f"{detail['attempted']} attempted, {detail['failed']} failed =="
    )
    width = max(len(name) for name in detail["metrics"])
    for name, metric in detail["metrics"].items():
        print(f"  {name.ljust(width)}  {metric['value']:>16.6g} {metric['unit']}")
    exact = detail["exact"]
    print(
        f"  exact over the first {exact['ops']} ops: digest {exact['output_digest'][:16]}, "
        f"sim comm {exact['sim_comm_ms_per_step']:.6g} ms/step, "
        f"inter-node {exact['internode_mb_per_step']:.6g} MB/step"
    )


# ----------------------------------------------------------------------
# The suite
# ----------------------------------------------------------------------
def run_child(name: str, args, trace: int, scratch: Path, tag: str) -> dict:
    """One run in a fresh process; returns its detail record."""
    detail_path = scratch / f"{name}.{tag}.json"
    command = [
        sys.executable,
        str(Path(__file__).resolve()),
        "--workload", name,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", str(trace),
        "--detail-out", str(detail_path),
    ]  # fmt: skip
    if args.quick:
        command.append("--quick")
    if trace and args.trace_out:
        command += ["--trace-out", f"{args.trace_out}.{name}.json"]
    done = subprocess.run(command, stdout=subprocess.PIPE, text=True, timeout=900)
    if done.returncode != 0:
        sys.stdout.write(done.stdout)
        raise SystemExit(f"{name} ({tag}) exited with code {done.returncode}")
    with open(detail_path) as fh:
        return json.load(fh)


def summarize(values: list[float]) -> dict:
    """Median and quartiles of the per-run values of one metric."""
    if len(values) >= 2:
        q1, _, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = q3 = values[0]
    return {"median": statistics.median(values), "q1": q1, "q3": q3, "values": values}


def aggregate(spec: dict, runs: dict, traced: dict, **settings) -> dict:
    """Fold per-run records into the suite result the trajectory keeps.

    ``runs[name]`` holds one workload's untraced records (one per repeat),
    ``traced[name]`` its traced record; ``settings`` (seed, seconds,
    repeats, quick) are stored beside the machine description.
    """
    result = {
        "schema": "xmoe-bench/1",
        "machine": {
            "platform": platform.platform(),
            "processor": platform.machine(),
            "nproc": os.cpu_count(),
            "python": platform.python_version(),
            "numpy": np.__version__,
        },
        "recorded_unix": round(time.time()),
        **settings,
        "workloads": {},
    }
    for workload in spec["workloads"]:
        name = workload["name"]
        details = runs[name] + [traced[name]]
        exacts = [d["exact"] for d in details]
        result["workloads"][name] = {
            "why": workload["why"],
            "correct": all(d["correct"] for d in details),
            # one seed, one prefix: every run must reproduce it exactly
            "deterministic": all(e == exacts[0] for e in exacts),
            "attempted": sum(d["attempted"] for d in details),
            "failed": sum(d["failed"] for d in details),
            "ops_per_run": [d["ops"] for d in runs[name]],
            "latency_samples_per_run": [d["latency_samples"] for d in runs[name]],
            "exact": exacts[0],
            "end_to_end": {
                m["name"]: {
                    "unit": m["unit"],
                    "kind": "sim" if m["name"] in SIM_METRICS else "host",
                    **summarize([d["metrics"][m["name"]]["value"] for d in runs[name]]),
                }
                for m in spec["end_to_end"]
            },
            "per_layer": traced[name]["metrics"],
        }
    return result


def run_suite(args) -> int:
    """Every workload, interleaved repeats, then the traced runs."""
    spec = load_spec()
    names = [w["name"] for w in spec["workloads"]]
    out = Path(args.out).resolve()
    out.parent.mkdir(parents=True, exist_ok=True)
    runs = {name: [] for name in names}
    traced = {}
    with tempfile.TemporaryDirectory(dir=out.parent, prefix=".bench-") as tmp:
        scratch = Path(tmp)
        for repeat in range(args.repeats):
            for name in names:
                detail = run_child(name, args, 0, scratch, f"r{repeat}")
                print_metrics(detail)
                runs[name].append(detail)
        for name in names:
            traced[name] = run_child(name, args, 1, scratch, "traced")
            print_metrics(traced[name])

    result = aggregate(
        spec,
        runs,
        traced,
        seed=args.seed,
        seconds=args.seconds,
        repeats=args.repeats,
        quick=args.quick,
    )
    with open(out, "w") as fh:
        json.dump(result, fh, indent=1, sort_keys=True)
        fh.write("\n")

    print(f"\n== medians over {args.repeats} repeats (seed {args.seed}) ==")
    ok = True
    for name, record in result["workloads"].items():
        passed = record["correct"] and record["deterministic"]
        ok &= passed
        print(name + ("" if passed else "  ** FAILED **"))
        for metric, row in record["end_to_end"].items():
            print(
                f"  {metric:<24}{row['median']:>14.6g} {row['unit']:<8}"
                f"[{row['q1']:.6g}, {row['q3']:.6g}] {row['kind']}"
            )
    print(f"wrote {out}")
    return 0 if ok else 1


# ----------------------------------------------------------------------
def main(argv=None) -> int:
    """Parse the command line and run one workload or the suite."""
    spec = load_spec()
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", help="run this one workload in-process")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=float(spec["run_seconds"]))
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--quick", action="store_true", help="prefix only, ~1/20 of the ops")
    parser.add_argument("--trace-out", help="write Chrome/Perfetto trace JSON here")
    parser.add_argument("--detail-out", help="write this run's full record here")
    parser.add_argument("--repeats", type=int, default=3, help="suite: runs per workload")
    parser.add_argument(
        "--out", default=str(BENCH_DIR / "results" / "latest.json"), help="suite: result file"
    )
    args = parser.parse_args(argv)
    if args.quick:
        args.seconds = 0.0
    if args.workload is None:
        return run_suite(args)

    detail = run_once(
        args.workload,
        seed=args.seed,
        seconds=args.seconds,
        trace=bool(args.trace),
        quick=args.quick,
        trace_out=args.trace_out,
    )
    if args.detail_out:
        with open(args.detail_out, "w") as fh:
            json.dump(detail, fh)
    print_metrics(detail)
    print(json.dumps({key: detail[key] for key in ("correct", "attempted", "failed", "metrics")}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
