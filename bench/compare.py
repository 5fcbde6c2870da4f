#!/usr/bin/env python3
"""Compare two result files written by ``bench/run.py``.

``python3 bench/compare.py A.json B.json`` prints one row per (workload,
end-to-end metric) — both medians with their quartiles, the ratio B/A
(A is the base) and a verdict — using the bounds in ``BENCHMARK.json``:

``ok``          B's median is no worse than A's by more than the bound;
``regressed``   it is worse by more than the bound;
``unresolved``  not regressed, but the run-to-run spread of either side
                (quartile distance over median) is wider than the bound,
                so "unchanged" cannot be claimed;
``improved`` / ``changed``
                for figures that repeat exactly for one seed (simulated
                comm, output digest): any difference is reported, a worse
                simulated figure or a different digest fails.

Exit code 1 on any regression, digest change, or failed correctness
check in B; 0 otherwise (unresolved rows are counted in the summary).
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

SPEC_PATH = Path(__file__).resolve().parent.parent / "BENCHMARK.json"
FAILING = ("regressed", "changed", "incorrect")


def _spread(row: dict) -> float:
    return (row["q3"] - row["q1"]) / row["median"] if row["median"] else 0.0


def _worsening(a: float, b: float, better: str) -> float:
    """Share of ``a`` by which ``b`` is worse (negative when better)."""
    if a == 0:
        return 0.0 if b == 0 else float("inf")
    return (b - a) / abs(a) if better == "lower" else (a - b) / abs(a)


def compare(a: dict, b: dict, spec: dict) -> list[dict]:
    """Verdict rows for every workload both files hold."""
    rows = []
    for workload in spec["workloads"]:
        name = workload["name"]
        if name not in a["workloads"] or name not in b["workloads"]:
            continue
        wa, wb = a["workloads"][name], b["workloads"][name]
        if not (wb["correct"] and wb["deterministic"]):
            rows.append({"workload": name, "metric": "correctness", "verdict": "incorrect"})
        for metric in spec["end_to_end"]:
            ra, rb = wa["end_to_end"][metric["name"]], wb["end_to_end"][metric["name"]]
            worse = _worsening(ra["median"], rb["median"], metric["better"])
            if ra["kind"] == "sim":
                verdict = "ok" if worse == 0 else "regressed" if worse > 0 else "improved"
            elif worse > metric["bound"]:
                verdict = "regressed"
            elif max(_spread(ra), _spread(rb)) > metric["bound"]:
                verdict = "unresolved"
            else:
                verdict = "ok"
            rows.append(
                {
                    "workload": name,
                    "metric": metric["name"],
                    "unit": metric["unit"],
                    "a": ra,
                    "b": rb,
                    "ratio": rb["median"] / ra["median"] if ra["median"] else float("nan"),
                    "bound": metric["bound"],
                    "verdict": verdict,
                }
            )
        ea, eb = wa["exact"], wb["exact"]
        same_inputs = a["seed"] == b["seed"] and a["quick"] == b["quick"]
        if same_inputs:
            worse = _worsening(ea["sim_comm_ms_per_step"], eb["sim_comm_ms_per_step"], "lower")
            rows.append(
                {
                    "workload": name,
                    "metric": "sim_comm_ms_per_step (exact)",
                    "verdict": "ok" if worse == 0 else "regressed" if worse > 0 else "improved",
                    "detail": f"{ea['sim_comm_ms_per_step']!r} -> {eb['sim_comm_ms_per_step']!r}",
                }
            )
            same = (ea["output_digest"], ea["ops"]) == (eb["output_digest"], eb["ops"])
            rows.append(
                {
                    "workload": name,
                    "metric": "output_digest (exact)",
                    "verdict": "ok" if same else "changed",
                    "detail": f"{ea['output_digest'][:12]} -> {eb['output_digest'][:12]}",
                }
            )
    return rows


def format_rows(rows: list[dict]) -> str:
    """The rows as an aligned text table."""
    lines = [
        f"{'workload':<20}{'metric':<30}{'A median [q1, q3]':<44}{'B median [q1, q3]':<44}"
        f"{'B/A':>8}  {'bound':>6}  verdict"
    ]
    for row in rows:
        head = f"{row['workload']:<20}{row['metric']:<30}"
        if "a" not in row:
            lines.append(f"{head}{row.get('detail', ''):<88}{'':>8}  {'':>6}  {row['verdict']}")
            continue
        cells = [
            f"{side['median']:.5g} [{side['q1']:.5g}, {side['q3']:.5g}] {row['unit']}"
            for side in (row["a"], row["b"])
        ]
        lines.append(
            f"{head}{cells[0]:<44}{cells[1]:<44}{row['ratio']:>8.4f}  {row['bound']:>6}  "
            f"{row['verdict']}"
        )
    return "\n".join(lines)


def main(argv=None) -> int:
    """Print the comparison; non-zero exit when B regressed against A."""
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__.split("\n\n")[1], file=sys.stderr)
        return 2
    with open(argv[0]) as fa, open(argv[1]) as fb, open(SPEC_PATH) as fs:
        rows = compare(json.load(fa), json.load(fb), json.load(fs))
    print(format_rows(rows))
    counts = {v: sum(r["verdict"] == v for r in rows) for v in {r["verdict"] for r in rows}}
    print("\n" + ", ".join(f"{n} {v}" for v, n in sorted(counts.items())))
    return 1 if any(r["verdict"] in FAILING for r in rows) else 0


if __name__ == "__main__":
    sys.exit(main())
