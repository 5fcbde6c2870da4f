"""The online monitor: series sampling, detector wiring, health, re-tune.

:class:`Monitor` is the piece that turns the passive observability stack
into a control loop.  Attached to a serving engine (``monitor=`` on
:class:`~repro.serving.engine.ServingEngine` or ``--monitor`` on the CLI),
it runs once per engine step, strictly after the step's tokens are
already streamed — it *reads* the registry and telemetry, never the
runtime — so served outputs are bit-identical with monitoring on or off
(``tests/test_serving_determinism.py`` proves it).

Per step it: samples every registry metric into bounded series
(:class:`~repro.obs.series.MetricsSampler`); feeds each watched series
into its detector (:mod:`repro.obs.detect`); appends anything that fired
to the :class:`~repro.obs.detect.AlertLog`; and — on a *critical drift*
alert — invokes the :class:`ReTuneHook`, the ROADMAP's elasticity
trigger: the hook asks :func:`repro.tuner.tune` for a replacement
parallel plan and the monitor records the resulting
:class:`TuningRecommendation` (recommendation only; nothing reconfigures
mid-run yet — that is the future failure-injection PR's job).

:meth:`Monitor.health` folds the run into a :class:`HealthReport` whose
``status`` (healthy / warning / critical) maps onto the ``repro monitor``
CLI's exit code, and :func:`default_serving_monitor` wires the standard
watch list: CUSUM on per-step load imbalance, EWMA on drops, threshold
rules on windowed latency/TTFT p99, and a burn-rate rule on deadline
misses.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.config.parallel_config import ParallelConfig
from repro.obs.detect import (
    SEVERITIES,
    Alert,
    AlertLog,
    BurnRateRule,
    CusumDetector,
    EwmaDetector,
    ThresholdRule,
)
from repro.obs.metrics import MetricsRegistry
from repro.obs.series import LOAD_IMBALANCE_SERIES, MetricsSampler

__all__ = [
    "HealthReport",
    "Monitor",
    "MonitorConfig",
    "ReTuneHook",
    "TunerReTuneHook",
    "TuningRecommendation",
    "default_serving_monitor",
]


@dataclass(frozen=True)
class TuningRecommendation:
    """What the re-tune hook proposed in response to one drift alert."""

    step: int
    alert: Alert
    #: the replacement :class:`~repro.config.ParallelConfig` the tuner ranked best.
    plan: ParallelConfig
    #: whether the proposal actually differs from the active plan.
    differs: bool
    reason: str

    def summary(self) -> dict:
        """JSON-ready row for reports and the CLI."""
        plan = self.plan
        return {
            "step": self.step,
            "source": self.alert.source,
            "differs": self.differs,
            "reason": self.reason,
            "plan": {
                "ep_size": plan.ep_size,
                "tp_size": plan.tp_size,
                "dispatch": plan.dispatch,
            },
        }


class ReTuneHook:
    """Pluggable elasticity trigger: react to a sustained-drift alert.

    The base class is a recording no-op — it keeps the alerts it was
    poked with (useful in tests) and proposes nothing.  Subclass and
    override :meth:`propose` to actually consult a tuner.
    """

    #: steps to wait between consecutive proposals (drift alerts latch,
    #: but distinct sources can fire in quick succession).
    cooldown_steps: int = 64

    def __init__(self) -> None:
        self.triggered: list[Alert] = []
        self._last_step: int | None = None

    def ready(self, step: int) -> bool:
        """Whether the cooldown since the last proposal has elapsed."""
        return self._last_step is None or step - self._last_step >= self.cooldown_steps

    def notify(self, alert: Alert) -> TuningRecommendation | None:
        """Called by the monitor on a critical drift alert; maybe propose."""
        self.triggered.append(alert)
        if not self.ready(alert.step):
            return None
        recommendation = self.propose(alert)
        if recommendation is not None:
            self._last_step = alert.step
        return recommendation

    def propose(self, alert: Alert) -> TuningRecommendation | None:
        """Produce a recommendation for the drift alert (base: none)."""
        return None


class TunerReTuneHook(ReTuneHook):
    """Re-tune hook backed by :func:`repro.tuner.tune`.

    Holds the model/system description and the currently *active*
    :class:`~repro.config.ParallelConfig`; on a sustained-drift alert it
    searches the (optionally constrained — pass ``space`` for a fast
    online search) plan space and records whether the winner differs from
    the active plan.  The tuner is deterministic and analytic, so the
    recommendation is a pure function of the drift alert's step — the
    property the determinism suite asserts.
    """

    def __init__(
        self,
        model,
        system,
        active_plan,
        *,
        space=None,
        world_size=None,
        tokens_per_step=None,
        cooldown_steps: int = 64,
    ):
        super().__init__()
        self.model = model
        self.system = system
        self.active_plan = active_plan
        self.space = space
        self.world_size = world_size
        self.tokens_per_step = tokens_per_step
        self.cooldown_steps = cooldown_steps
        self.recommendations: list[TuningRecommendation] = []

    def propose(self, alert: Alert) -> TuningRecommendation | None:
        """Run the plan search and record the replacement proposal."""
        from repro.tuner import tune  # lazy: tuner imports repro.obs

        report = tune(
            self.model,
            self.system,
            world_size=self.world_size,
            tokens_per_step=self.tokens_per_step,
            space=self.space,
        )
        if not report.ranked:
            return None
        best = report.best_parallel_config()
        differs = best != self.active_plan
        recommendation = TuningRecommendation(
            step=alert.step,
            alert=alert,
            plan=best,
            differs=differs,
            reason=alert.message,
        )
        self.recommendations.append(recommendation)
        return recommendation


@dataclass
class MonitorConfig:
    """Knobs for :func:`default_serving_monitor`'s standard watch list."""

    #: ring-buffer length for every sampled series.
    maxlen: int = 512
    #: calibration samples before the drift detectors may fire.
    warmup: int = 16
    #: CUSUM decision threshold on the load-imbalance series.
    cusum_h: float = 8.0
    #: EWMA z-score threshold on the drop series.
    ewma_threshold: float = 4.0
    #: SLO bound on the windowed latency p99 (None disables the rule).
    latency_p99_slo: float | None = None
    #: SLO bound on the windowed TTFT p99 (None disables the rule).
    ttft_p99_slo: float | None = None
    #: tolerated deadline-miss fraction (None disables the burn-rate rule).
    deadline_budget: float | None = None


@dataclass(frozen=True)
class HealthReport:
    """One-look rollup of a monitored run (the CLI's primary output)."""

    status: str
    steps_observed: int
    alert_counts: dict[str, int]
    series_summaries: dict[str, dict]
    recommendations: tuple[TuningRecommendation, ...] = ()

    @property
    def exit_code(self) -> int:
        """Process exit code for the status: 0 healthy, 2 warning, 3 critical."""
        return {"healthy": 0, "warning": 2, "critical": 3}[self.status]

    def describe(self) -> str:
        """Human-readable multi-line summary."""
        lines = [
            f"health: {self.status.upper()} after {self.steps_observed} steps",
            "alerts: "
            + (
                ", ".join(
                    f"{severity}={count}"
                    for severity, count in sorted(self.alert_counts.items())
                )
                or "none"
            ),
        ]
        for recommendation in self.recommendations:
            row = recommendation.summary()
            lines.append(
                f"re-tune @ step {row['step']}: plan {row['plan']} "
                f"({'differs from' if row['differs'] else 'matches'} active plan)"
            )
        return "\n".join(lines)

    def as_dict(self) -> dict:
        """JSON-ready report document."""
        return {
            "status": self.status,
            "steps_observed": self.steps_observed,
            "alert_counts": dict(self.alert_counts),
            "series": {
                name: dict(summary)
                for name, summary in sorted(self.series_summaries.items())
            },
            "recommendations": [r.summary() for r in self.recommendations],
        }


@dataclass
class _Watch:
    """One wired (series → detector) binding."""

    series: str
    detector: object
    source: str


class Monitor:
    """Step-driven monitoring loop over one registry (+ optional telemetry).

    Construct, :meth:`watch` series, hand to the serving engine.  The
    engine calls :meth:`observe_step` once per step after streaming; the
    monitor never mutates anything the step computation reads.
    """

    def __init__(
        self,
        registry: MetricsRegistry,
        *,
        telemetry=None,
        retune_hook: ReTuneHook | None = None,
        maxlen: int = 512,
    ):
        self.sampler = MetricsSampler(registry, telemetry=telemetry, maxlen=maxlen)
        self.alerts = AlertLog()
        self.retune_hook = retune_hook
        self.recommendations: list[TuningRecommendation] = []
        self.steps_observed = 0
        self._watches: list[_Watch] = []
        self._burn_watches: list[tuple[str, str, BurnRateRule, str]] = []

    # ------------------------------------------------------------------
    def watch(self, series: str, detector, *, source: str | None = None) -> None:
        """Feed every new sample of ``series`` into ``detector``."""
        self._watches.append(_Watch(series, detector, source or series))

    def watch_burn_rate(
        self, bad_series: str, total_series: str, rule: BurnRateRule, *, source: str
    ) -> None:
        """Feed per-step (bad, total) event deltas into a burn-rate rule."""
        self._burn_watches.append((bad_series, total_series, rule, source))

    # ------------------------------------------------------------------
    def observe_step(self, step: int, *, wall: float | None = None) -> list[Alert]:
        """Sample the registry and run every watched detector for one step."""
        appended = self.sampler.sample(step, wall=wall)
        fired: list[Alert] = []
        for watch in self._watches:
            if watch.series not in appended:
                continue
            alert = watch.detector.update(
                step, appended[watch.series], source=watch.source
            )
            if alert is not None:
                fired.append(alert)
        for bad_series, total_series, rule, source in self._burn_watches:
            if bad_series not in appended and total_series not in appended:
                continue
            alert = rule.update_pair(
                step,
                appended.get(bad_series, 0.0),
                appended.get(total_series, 0.0),
                source=source,
            )
            if alert is not None:
                fired.append(alert)
        for alert in fired:
            self.alerts.append(alert)
            if (
                self.retune_hook is not None
                and alert.kind == "drift"
                and alert.severity == "critical"
            ):
                recommendation = self.retune_hook.notify(alert)
                if recommendation is not None:
                    self.recommendations.append(recommendation)
        self.steps_observed += 1
        return fired

    # ------------------------------------------------------------------
    def health(self) -> HealthReport:
        """Fold the observed run into one :class:`HealthReport`."""
        worst = self.alerts.max_severity()
        if worst is None or SEVERITIES.index(worst) < SEVERITIES.index("warning"):
            status = "healthy"
        else:
            status = worst
        interesting = {
            name: series.summary()
            for name, series in sorted(self.sampler.series.items())
            if len(series) and any(v != 0.0 for v in series.values())
        }
        return HealthReport(
            status=status,
            steps_observed=self.steps_observed,
            alert_counts=self.alerts.counts(),
            series_summaries=interesting,
            recommendations=tuple(self.recommendations),
        )


def default_serving_monitor(
    registry: MetricsRegistry,
    *,
    telemetry=None,
    config: MonitorConfig | None = None,
    retune_hook: ReTuneHook | None = None,
) -> Monitor:
    """A :class:`Monitor` wired with the standard serving watch list.

    Drift: CUSUM on the per-step routing load imbalance (the skew signal
    the re-tune hook reacts to) and EWMA on the per-step capacity-drop
    count.  SLO: threshold rules on the windowed latency/TTFT p99 series
    and a burn-rate rule on deadline misses vs completions, per the
    thresholds in ``config``.
    """
    config = config if config is not None else MonitorConfig()
    monitor = Monitor(
        registry,
        telemetry=telemetry,
        retune_hook=retune_hook,
        maxlen=config.maxlen,
    )
    if telemetry is not None:
        monitor.watch(
            LOAD_IMBALANCE_SERIES,
            CusumDetector(h=config.cusum_h, warmup=config.warmup),
            source="load_imbalance",
        )
    monitor.watch(
        "routing_capacity_dropped",
        EwmaDetector(threshold=config.ewma_threshold, warmup=config.warmup),
        source="capacity_drops",
    )
    if config.latency_p99_slo is not None:
        monitor.watch(
            "serving_latency_steps.p99",
            ThresholdRule(config.latency_p99_slo, severity="warning"),
            source="latency_p99",
        )
    if config.ttft_p99_slo is not None:
        monitor.watch(
            "serving_ttft_steps.p99",
            ThresholdRule(config.ttft_p99_slo, severity="warning"),
            source="ttft_p99",
        )
    if config.deadline_budget is not None:
        monitor.watch_burn_rate(
            "serving_slo_events{cause=deadline}",
            "serving_requests_completed",
            BurnRateRule(budget=config.deadline_budget),
            source="deadline_burn",
        )
    return monitor
