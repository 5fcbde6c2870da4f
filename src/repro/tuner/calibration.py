"""Calibration: scale the analytic models with measured micro-benchmarks.

The performance model's absolute numbers come from analytic constants
(kernel efficiencies, alpha-beta link parameters).  When the repo's own
micro-benchmarks have been run on the current machine, their JSON records
under ``benchmarks/results/`` carry *measured* seconds for the CPU-side
plan-construction work that the analytic model otherwise ignores entirely.
:func:`load_calibration` turns those records into a :class:`Calibration`
the evaluator folds into each candidate's step time:

* ``plan_build_seconds_per_assignment`` — measured dispatch-plan compile
  cost per (token, expert) assignment, per dispatch kind, from
  ``dispatch_plan_micro.json`` (the hierarchical planner reuses the RBD
  figure until it has its own record).
* ``route_seconds_per_assignment`` — measured batched route + PFT
  construction cost per assignment, from ``step_runtime_micro.json``
  (the :class:`repro.runtime.StepRuntime` micro-benchmark), pricing the
  CPU-side routing front half of every step.
* ``time_scale`` — a global multiplier on the modeled step time, taken
  from an optional ``model_time_scale`` key so a future measured-vs-modeled
  comparison can be fed back in.
* ``plan_cache_hit_rate`` / ``plan_cache_warm_cost_ratio`` — measured
  steady-state plan-cache behavior from ``plan_cache_micro.json``
  (the :class:`repro.routing.plan_cache.PlanCache` micro-benchmark):
  the fraction of steps that resolve warm and the relative cost of a warm
  resolve vs a cold build.  :meth:`Calibration.plan_overhead_seconds`
  discounts the per-step plan-build cost accordingly, so the evaluator
  stops over-charging workloads that would run against a warm cache.
* ``zero_overlap_ratio`` — measured fraction of the gradient-reduction
  communication the bucketed ZeRO reducer hides under backward compute,
  from the ``zero`` payload of ``zero_micro.json``
  (``benchmarks/test_zero_micro.py``).  The evaluator uses it to discount
  the performance model's fully-exposed ``grad_sync_time`` for candidates
  running ZeRO stage >= 1.

Records of different kinds merge: a results directory holding both the
dispatch-plan and the step-runtime record contributes both rates.
Everything degrades gracefully: a missing, unreadable, or partial record
is skipped with a warning (partially-written JSON happens when a benchmark
is interrupted mid-dump) and an empty directory yields
:meth:`Calibration.identity`, so the tuner never *requires* a benchmark
run.
"""

from __future__ import annotations

import json
import warnings
from dataclasses import dataclass, field
from pathlib import Path

#: default location of the micro-benchmark records (gitignored, machine-local).
DEFAULT_RESULTS_DIR = Path(__file__).resolve().parents[3] / "benchmarks" / "results"


@dataclass(frozen=True)
class Calibration:
    """Measured corrections applied on top of the analytic cost models."""

    plan_build_seconds_per_assignment: dict[str, float] = field(default_factory=dict)
    route_seconds_per_assignment: float = 0.0
    time_scale: float = 1.0
    #: measured fraction of steps resolving warm against the plan cache
    #: (0.0 = no cache measured: full build cost charged every step).
    plan_cache_hit_rate: float = 0.0
    #: measured cost of a warm cache resolve relative to a cold plan build.
    plan_cache_warm_cost_ratio: float = 1.0
    #: measured fraction of gradient-reduction comm hidden under backward
    #: by the bucketed ZeRO reducer (0.0 = not measured: grad sync stays
    #: fully exposed, the analytic model's assumption).
    zero_overlap_ratio: float = 0.0
    source: str | None = None

    @classmethod
    def identity(cls) -> "Calibration":
        """The no-op calibration (analytic model used as-is)."""
        return cls()

    @property
    def is_identity(self) -> bool:
        """Whether this calibration changes nothing."""
        return (
            not self.plan_build_seconds_per_assignment
            and self.route_seconds_per_assignment == 0.0
            and self.time_scale == 1.0
            and self.plan_cache_hit_rate == 0.0
            and self.zero_overlap_ratio == 0.0
        )

    def grad_sync_exposed_fraction(self) -> float:
        """Fraction of modeled gradient-sync time left exposed per step.

        1.0 when no ZeRO micro-benchmark record was measured (the analytic
        model's fully-serial assumption); otherwise the complement of the
        measured overlap ratio, clamped to [0, 1].
        """
        ratio = min(max(self.zero_overlap_ratio, 0.0), 1.0)
        return 1.0 - ratio

    def route_overhead_seconds(self, assignments: float) -> float:
        """CPU-side routing (route + PFT) seconds for one step's assignments.

        Measured by ``benchmarks/test_step_runtime_micro.py`` as the batched
        :class:`repro.runtime.StepRuntime` front half; zero when that record
        has not been collected — like plan overhead, calibration only adds
        measured cost.
        """
        return self.route_seconds_per_assignment * assignments

    def plan_overhead_seconds(self, dispatch: str, assignments: float) -> float:
        """CPU-side plan-build seconds for one plan over ``assignments`` rows.

        The hierarchical planner has no dedicated micro-benchmark record
        yet; it falls back to the RBD figure (both build two-stage split
        tables of comparable size), and anything unmeasured costs zero —
        calibration only ever *adds* measured overhead, never invents it.

        The measured plan-cache hit rate discounts the steady-state cost:
        a fraction ``hit_rate`` of steps pay only ``warm_cost_ratio`` of
        the cold build (hit rate 0 — no cache measured — charges the full
        build every step, exactly the pre-cache behavior).
        """
        per_assignment = self.plan_build_seconds_per_assignment.get(dispatch)
        if per_assignment is None and dispatch == "hier":
            per_assignment = self.plan_build_seconds_per_assignment.get("rbd")
        if per_assignment is None:
            return 0.0
        base = per_assignment * assignments
        hit_rate = min(max(self.plan_cache_hit_rate, 0.0), 1.0)
        ratio = max(self.plan_cache_warm_cost_ratio, 0.0)
        return base * ((1.0 - hit_rate) + hit_rate * ratio)


def _plan_cache_fields(record: dict) -> tuple[float, float] | None:
    """Extract ``(hit_rate, warm_cost_ratio)`` from a record, if present."""
    payload = record.get("plan_cache")
    if not isinstance(payload, dict):
        return None
    hit_rate = payload.get("hit_rate")
    ratio = payload.get("warm_cost_ratio")
    if not isinstance(hit_rate, (int, float)) or not 0.0 <= hit_rate <= 1.0:
        return None
    if not isinstance(ratio, (int, float)) or ratio < 0:
        return None
    return float(hit_rate), float(ratio)


def _zero_fields(record: dict, path: Path) -> float | None:
    """Extract the measured ZeRO overlap ratio from a record, if present.

    A record without a ``zero`` key is simply not a ZeRO record (returns
    ``None`` silently); a record *with* one that is malformed — wrong type,
    missing ``overlap_ratio``, value outside [0, 1] — is skipped with a
    warning so an interrupted benchmark dump never corrupts calibration.
    """
    payload = record.get("zero")
    if payload is None:
        return None
    if not isinstance(payload, dict):
        warnings.warn(
            f"skipping malformed zero payload in {path}: not a JSON object",
            stacklevel=2,
        )
        return None
    ratio = payload.get("overlap_ratio")
    if not isinstance(ratio, (int, float)) or not 0.0 <= ratio <= 1.0:
        warnings.warn(
            f"skipping malformed zero payload in {path}: "
            f"overlap_ratio {ratio!r} not in [0, 1]",
            stacklevel=2,
        )
        return None
    return float(ratio)


def _record_fields(
    path: Path,
) -> tuple[dict, float, float, tuple | None, float | None] | None:
    """Parse one JSON record into (plan rates, route rate, scale, cache).

    Understands the record shapes of the ``benchmarks/results/`` family:
    ``dispatch_plan_micro.json`` (per-kind plan-build seconds),
    ``step_runtime_micro.json`` (batched route + PFT seconds),
    ``plan_cache_micro.json`` (steady-state hit rate + warm cost ratio),
    and ``zero_micro.json`` (measured grad-reduction overlap ratio).
    Returns ``None`` when the file holds none of those; a malformed or
    partially-written file (interrupted benchmark dump, truncated JSON,
    non-object payload) is skipped with a warning instead of raising, so
    one bad record never takes down calibration for the rest.
    """
    try:
        record = json.loads(path.read_text())
    except (OSError, ValueError) as exc:
        warnings.warn(
            f"skipping unreadable benchmark record {path}: {exc}",
            stacklevel=2,
        )
        return None
    if not isinstance(record, dict):
        warnings.warn(
            f"skipping malformed benchmark record {path}: not a JSON object",
            stacklevel=2,
        )
        return None
    seconds = record.get("seconds", {})
    workload = record.get("workload", {})
    if not isinstance(seconds, dict) or not isinstance(workload, dict):
        warnings.warn(
            f"skipping malformed benchmark record {path}: bad seconds/workload",
            stacklevel=2,
        )
        return None
    plan_cache = _plan_cache_fields(record)
    zero_ratio = _zero_fields(record, path)
    assignments = workload.get("assignments")
    if not isinstance(assignments, (int, float)) or assignments <= 0:
        if plan_cache is None and zero_ratio is None:
            return None
        assignments = 0.0
    per_assignment: dict[str, float] = {}
    route_rate = 0.0
    if assignments > 0:
        for kind, key in (("flat", "flat_plan_build"), ("rbd", "rbd_plan_build")):
            value = seconds.get(key)
            if isinstance(value, (int, float)) and value > 0:
                per_assignment[kind] = float(value) / float(assignments)
        route_value = seconds.get("batched_route_pft")
        if isinstance(route_value, (int, float)) and route_value > 0:
            route_rate = float(route_value) / float(assignments)
    if not per_assignment and not route_rate and plan_cache is None and zero_ratio is None:
        return None
    scale = record.get("model_time_scale", 1.0)
    if not isinstance(scale, (int, float)) or scale <= 0:
        scale = 1.0
    return per_assignment, route_rate, float(scale), plan_cache, zero_ratio


def load_calibration(path: str | Path | None = None) -> Calibration:
    """Load measured constants from ``benchmarks/results/`` (or a file).

    ``path`` may point at a specific JSON record or at a directory of them
    (the default: the repo's ``benchmarks/results/``).  Records of
    different kinds merge — the dispatch-plan record contributes plan-build
    rates, the step-runtime record the routing rate; within one kind the
    first usable record (sorted filename order) wins.  Returns
    :meth:`Calibration.identity` when nothing usable is found — the tuner
    works uncalibrated everywhere the benchmarks have not been run.
    """
    root = Path(path) if path is not None else DEFAULT_RESULTS_DIR
    if root.is_file():
        paths = [root]
    elif root.is_dir():
        paths = sorted(root.glob("*.json"))
    else:
        return Calibration.identity()

    plan_rates: dict[str, float] = {}
    route_rate = 0.0
    time_scale = 1.0
    cache_fields: tuple | None = None
    zero_ratio: float | None = None
    sources: list[str] = []
    for record_path in paths:
        fields = _record_fields(record_path)
        if fields is None:
            continue
        per_assignment, record_route, scale, record_cache, record_zero = fields
        used = False
        if per_assignment and not plan_rates:
            plan_rates = per_assignment
            used = True
        if record_route and not route_rate:
            route_rate = record_route
            used = True
        if record_cache is not None and cache_fields is None:
            cache_fields = record_cache
            used = True
        if record_zero is not None and zero_ratio is None:
            zero_ratio = record_zero
            used = True
        if used:
            # Any used record may carry model_time_scale; the first
            # *non-default* value wins (records without the key read 1.0).
            if time_scale == 1.0 and scale != 1.0:
                time_scale = scale
            sources.append(str(record_path))
    if not plan_rates and not route_rate and cache_fields is None and zero_ratio is None:
        return Calibration.identity()
    hit_rate, warm_ratio = cache_fields if cache_fields is not None else (0.0, 1.0)
    return Calibration(
        plan_build_seconds_per_assignment=plan_rates,
        route_seconds_per_assignment=route_rate,
        time_scale=time_scale,
        plan_cache_hit_rate=hit_rate,
        plan_cache_warm_cost_ratio=warm_ratio,
        zero_overlap_ratio=zero_ratio if zero_ratio is not None else 0.0,
        source="; ".join(sources),
    )
