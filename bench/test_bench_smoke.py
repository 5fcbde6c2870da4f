"""Smoke test of the benchmark harness itself (tier-1, a few seconds).

Runs every workload's ``--quick`` prefix in-process, once untraced and
once traced, and checks what later PRs rely on: the result schema, every
metric named in ``BENCHMARK.json`` present and finite, no failed op, the
traced layers closing over the op wall time, digests identical between
the two runs (so tracing does not perturb outputs and a seed reproduces),
every class-level patch undone, and ``compare.py`` passing a file against
itself while flagging a synthetic 20% slowdown.
"""

import copy
import math
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import compare  # noqa: E402
import run as bench  # noqa: E402

SPEC = bench.load_spec()
NAMES = [w["name"] for w in SPEC["workloads"]]


def _class_dicts():
    """The attributes of every class the tracer patches at class level."""
    from repro.comm.process_group import ProcessGroup
    from repro.routing import ExecProgram, RoutingDecision
    from repro.tensor.autograd import Tensor
    from repro.tensor.optim import ShardedAdam

    return [dict(vars(c)) for c in (ProcessGroup, RoutingDecision, ExecProgram, Tensor, ShardedAdam)]


@pytest.fixture(scope="module")
def records():
    """One untraced and one traced quick run per workload, seed 0."""
    bench.load_program()
    before = _class_dicts()
    runs = {name: [bench.run_once(name, quick=True)] for name in NAMES}
    traced = {name: bench.run_once(name, quick=True, trace=True) for name in NAMES}
    assert _class_dicts() == before, "a class-level patch outlived its run"
    return runs, traced


@pytest.mark.parametrize("name", NAMES)
def test_metrics_match_the_contract(records, name):
    runs, traced = records
    for record, declared in ((runs[name][0], "end_to_end"), (traced[name], "per_layer")):
        assert {"correct", "attempted", "failed", "metrics", "exact", "ops"} <= set(record)
        assert record["correct"] and record["failed"] == 0 and record["attempted"] >= 1
        assert list(record["metrics"]) == [m["name"] for m in SPEC[declared]]
        for metric in SPEC[declared]:
            got = record["metrics"][metric["name"]]
            assert got["unit"] == metric["unit"]
            assert math.isfinite(got["value"]), metric["name"]
    for metric, got in runs[name][0]["metrics"].items():
        assert got["value"] > 0, f"end-to-end metric {metric} must never be 0"


@pytest.mark.parametrize("name", NAMES)
def test_trace_closes_and_does_not_perturb(records, name):
    runs, traced = records
    assert traced[name]["metrics"]["bench.layer_closure"]["value"] >= 0.95
    assert traced[name]["exact"] == runs[name][0]["exact"]
    assert len(traced[name]["exact"]["output_digest"]) == 64


def test_seed_changes_inputs():
    a = bench.run_once("moe_churn_ep32", seed=0, quick=True)["exact"]
    b = bench.run_once("moe_churn_ep32", seed=1, quick=True)["exact"]
    assert a["output_digest"] != b["output_digest"]
    assert a["internode_mb_per_step"] != b["internode_mb_per_step"]


def test_expected_layer_contrasts(records):
    _, traced = records
    value = lambda name, metric: traced[name]["metrics"][metric]["value"]  # noqa: E731
    assert value("moe_steady_ep32", "routing.plan_cache.hit_rate") >= 0.9
    assert value("moe_churn_ep32", "routing.plan_cache.hit_rate") <= 0.05
    assert value("serve_poisson_s16", "routing.plan_cache.hit_rate") <= 0.05
    assert value("moe_steady_ep32", "routing.engine.combine_ms.rbd") == 0
    for kind in ("flat", "rbd", "hier"):
        assert value("moe_churn_ep32", f"routing.engine.combine_ms.{kind}") > 0
    assert value("moe_churn_ep32", "comm.internode_bytes_per_step.rbd") < value(
        "moe_churn_ep32", "comm.internode_bytes_per_step.flat"
    )
    assert value("train_zero2_dp4", "tensor.backward_calls") == 4
    assert value("train_zero2_dp4", "routing.policies.route_ms") == 0


def test_compare_flags_a_slowdown_and_passes_identity(records, tmp_path, capsys):
    runs, traced = records
    result = bench.aggregate(SPEC, runs, traced, seed=0, seconds=0.0, repeats=1, quick=True)
    assert all(w["correct"] and w["deterministic"] for w in result["workloads"].values())
    same = compare.compare(result, result, SPEC)
    assert same and all(row["verdict"] == "ok" for row in same)

    slowed = copy.deepcopy(result)
    row = slowed["workloads"]["moe_churn_ep32"]["end_to_end"]["step_ms_p50"]
    for key in ("median", "q1", "q3"):
        row[key] *= 1.2
    verdicts = {
        (r["workload"], r["metric"]): r["verdict"] for r in compare.compare(result, slowed, SPEC)
    }
    assert verdicts.pop(("moe_churn_ep32", "step_ms_p50")) == "regressed"
    assert set(verdicts.values()) == {"ok"}

    import json

    paths = [tmp_path / "a.json", tmp_path / "b.json"]
    for path, content in zip(paths, (result, slowed)):
        path.write_text(json.dumps(content))
    assert compare.main([str(paths[0]), str(paths[0])]) == 0
    assert compare.main([str(paths[0]), str(paths[1])]) == 1
    assert "regressed" in capsys.readouterr().out
