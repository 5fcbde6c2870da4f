"""Shared helpers for the benchmark harness.

Every benchmark regenerates one table or figure of the paper's evaluation
and prints the rows/series the paper reports (run with ``-s`` to see them).
Absolute numbers come from the simulated substrate, so only the *shape*
(ordering, rough ratios, crossovers) is expected to match the paper; each
module's docstring states the expected shape.
"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path

try:  # pragma: no cover
    import repro  # noqa: F401
except ModuleNotFoundError:  # pragma: no cover
    sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

RESULTS_DIR = Path(__file__).resolve().parent / "results"


def write_record(name: str, record: dict) -> None:
    """Persist one benchmark record: newest snapshot + trajectory history.

    Writes ``results/<name>.json`` (what ``scripts/bench_summary.py``
    tabulates and the tuner calibrates from) and appends the same record to
    ``results/<name>.history.jsonl`` — the per-machine trajectory that
    ``bench_summary.py --check`` compares new runs against.  Best-effort:
    an unwritable results dir (sandboxed CI) must not fail the benchmark.
    """
    entry = dict(record)
    entry.setdefault("recorded_unix", round(time.time(), 3))
    try:
        RESULTS_DIR.mkdir(exist_ok=True)
        (RESULTS_DIR / f"{name}.json").write_text(
            json.dumps(entry, indent=2, sort_keys=True) + "\n"
        )
        with (RESULTS_DIR / f"{name}.history.jsonl").open("a") as fh:
            fh.write(json.dumps(entry, sort_keys=True) + "\n")
    except OSError:  # pragma: no cover - sandboxed runners
        pass


def count_calls(fn) -> tuple:
    """``(fn(), calls)``: the Python function calls into ``repro`` that
    ``fn()`` makes, counted from ``sys.setprofile`` ``call`` events.

    A deterministic twin for a wall-clock gate: the count does not move
    with machine load, so "the work does not grow with the input" can be
    asserted exactly where a timing ratio can only be bounded.
    """
    import repro

    package = str(Path(repro.__file__).resolve().parent)
    calls = 0

    def profile(frame, event, arg):
        nonlocal calls
        if event == "call" and frame.f_code.co_filename.startswith(package):
            calls += 1

    sys.setprofile(profile)
    try:
        result = fn()
    finally:
        sys.setprofile(None)
    return result, calls


def print_table(title: str, rows: list[dict]) -> None:
    """Pretty-print a list of dict rows as an aligned table."""
    if not rows:
        print(f"\n== {title} == (no rows)")
        return
    keys: list = []
    for row in rows:
        for k in row:
            if k not in keys:
                keys.append(k)
    widths = {
        k: max(len(str(k)), max(len(_fmt(r.get(k, ""))) for r in rows)) for k in keys
    }
    print(f"\n== {title} ==")
    print(" | ".join(str(k).ljust(widths[k]) for k in keys))
    print("-+-".join("-" * widths[k] for k in keys))
    for r in rows:
        print(" | ".join(_fmt(r.get(k, "")).ljust(widths[k]) for k in keys))


def _fmt(value) -> str:
    if isinstance(value, float):
        return f"{value:.3f}"
    return str(value)
