"""Structured span tracing with a no-op fast path.

The tracer is the "where inside a step does time go" half of
:mod:`repro.obs`: callers wrap code regions in :func:`span` context
managers and a :class:`Tracer` — when one is attached — records each
region as a nested, wall-clock-timed :class:`Span` with typed attributes.
The instrumentation points live permanently in the hot paths
(:meth:`repro.runtime.StepRuntime.run_step` phases,
:meth:`repro.routing.plan_cache.PlanCache.resolve` internals, every
:class:`~repro.comm.process_group.ProcessGroup` collective, tuner search
phases, trainer runs), so the disabled path must cost ~nothing: with no
tracer attached, :func:`span` is one module-global load plus a shared
no-op singleton — no allocation, no clock read
(``benchmarks/test_obs_overhead_micro.py`` holds that bar).

Usage::

    tracer = Tracer()
    with use_tracer(tracer):
        runtime.run_step(batches, step=0)
    write_chrome_trace("trace.json", tracer)   # repro.obs.export

Span attributes are plain ``key=value`` pairs set at open
(``span("dispatch", rows=123)``) or later on the yielded span
(``sp.set(cache_tier="hit")``); the exporters serialize them into
Perfetto ``args``.  Spans nest by runtime call order — each span's parent
is the span open when it started — which is what lets the summary and the
overhead benchmark attribute a step's wall time to its phases.
"""

from __future__ import annotations

import time
from contextlib import contextmanager

__all__ = [
    "Span",
    "Tracer",
    "attach",
    "current",
    "detach",
    "get_tracer",
    "span",
    "use_tracer",
]

#: the process-wide active tracer (None = tracing disabled, the fast path).
_ACTIVE: "Tracer | None" = None


class _NoopSpan:
    """Shared do-nothing span returned while no tracer is attached."""

    __slots__ = ()

    def __enter__(self) -> "_NoopSpan":
        return self

    def __exit__(self, *exc) -> bool:
        return False

    def set(self, **attrs) -> "_NoopSpan":
        """Discard the attributes (tracing is off)."""
        return self


_NOOP = _NoopSpan()


class Span:
    """One timed, attributed region of the program.

    ``start``/``end`` are ``time.perf_counter()`` readings; ``attrs`` is a
    plain dict of typed attributes; ``parent`` is the span that was open
    when this one started (``None`` for roots).  A span is its own context
    manager: entering is a no-op (the tracer already started the clock),
    exiting stamps ``end`` and pops it from the tracer's stack.
    """

    __slots__ = ("name", "category", "start", "end", "attrs", "parent", "_tracer")

    def __init__(self, name: str, category: str, attrs: dict, parent, tracer):
        self.name = name
        self.category = category
        self.attrs = attrs
        self.parent = parent
        self._tracer = tracer
        self.end: float | None = None
        self.start = time.perf_counter()

    def set(self, **attrs) -> "Span":
        """Attach (or overwrite) attributes on this span."""
        self.attrs.update(attrs)
        return self

    @property
    def seconds(self) -> float:
        """Wall-clock duration (0.0 while the span is still open)."""
        if self.end is None:
            return 0.0
        return self.end - self.start

    def __enter__(self) -> "Span":
        return self

    def __exit__(self, *exc) -> bool:
        self._tracer._finish(self)
        return False

    def __repr__(self) -> str:  # pragma: no cover
        return f"Span({self.name!r}, {self.seconds * 1e3:.3f} ms, attrs={self.attrs})"


class Tracer:
    """Collects finished :class:`Span` objects for one recording window.

    ``spans`` holds every finished span in finish order; ``origin`` is the
    perf-counter reading at construction (the exporters emit timestamps
    relative to it, so traces start at t=0).  The tracer keeps one open-span
    stack — spans nest by runtime call order, and :meth:`current` exposes
    the innermost open span so instrumentation deep in the call tree (the
    comm layer's ``CommStats.record``) can attach attributes to the span
    its caller opened.
    """

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.origin = time.perf_counter()
        self._stack: list[Span] = []

    def span(self, name: str, category: str = "default", attrs: dict | None = None) -> Span:
        """Open a new span nested under the innermost open span."""
        parent = self._stack[-1] if self._stack else None
        opened = Span(name, category, attrs if attrs is not None else {}, parent, self)
        self._stack.append(opened)
        return opened

    def _finish(self, span: Span) -> None:
        span.end = time.perf_counter()
        # Tolerate out-of-order exits (a caller kept a span open across a
        # generator boundary): pop through to the finished span.
        while self._stack:
            top = self._stack.pop()
            if top is span:
                break
        self.spans.append(span)

    def record_span(
        self,
        name: str,
        category: str = "default",
        *,
        start: float,
        end: float,
        attrs: dict | None = None,
        parent: Span | None = None,
    ) -> Span:
        """Record an externally-timed span without touching the open stack.

        For regions whose lifetime does not nest in the current call tree —
        a served request spans many engine steps, so its QUEUED→retire
        window can only be stamped retroactively from wall-clock marks.
        ``start``/``end`` are ``time.perf_counter()`` readings on the same
        clock as live spans, so both kinds share one exported timeline.
        """
        if end < start:
            raise ValueError(f"span {name!r} ends before it starts")
        recorded = Span(name, category, attrs if attrs is not None else {}, parent, self)
        recorded.start = float(start)
        recorded.end = float(end)
        self.spans.append(recorded)
        return recorded

    def current(self) -> Span | None:
        """The innermost open span, or ``None`` outside any span."""
        return self._stack[-1] if self._stack else None

    def children(self, parent: Span) -> list[Span]:
        """Finished spans whose direct parent is ``parent``."""
        return [s for s in self.spans if s.parent is parent]

    def roots(self) -> list[Span]:
        """Finished spans with no parent (top-level regions)."""
        return [s for s in self.spans if s.parent is None]

    def named(self, name: str) -> list[Span]:
        """Finished spans with the given name, in finish order."""
        return [s for s in self.spans if s.name == name]

    def clear(self) -> None:
        """Drop every finished span (fresh recording window)."""
        self.spans.clear()
        self._stack.clear()
        self.origin = time.perf_counter()


# ----------------------------------------------------------------------
# Module-level switchboard: the instrumentation points call these.
# ----------------------------------------------------------------------
def span(name: str, category: str = "default", **attrs):
    """Open a span on the active tracer, or return the shared no-op.

    This is THE instrumentation entry point: with no tracer attached it
    performs one global load and returns a shared singleton whose
    ``__enter__``/``__exit__``/``set`` do nothing — the disabled cost the
    overhead benchmark asserts on.  Attribute kwargs are only materialized
    into the span when tracing is on (the kwargs dict itself is built by
    the call either way; keep expensive values behind :func:`enabled`).
    """
    tracer = _ACTIVE
    if tracer is None:
        return _NOOP
    return tracer.span(name, category, attrs)


def current() -> Span | None:
    """The active tracer's innermost open span (None when disabled)."""
    tracer = _ACTIVE
    if tracer is None:
        return None
    return tracer.current()


def enabled() -> bool:
    """Whether a tracer is attached (guard for expensive attributes)."""
    return _ACTIVE is not None


def get_tracer() -> Tracer | None:
    """The currently attached tracer, if any."""
    return _ACTIVE


def attach(tracer: Tracer) -> None:
    """Make ``tracer`` the process-wide active tracer."""
    global _ACTIVE
    _ACTIVE = tracer


def detach() -> None:
    """Disable tracing (restores the no-op fast path)."""
    global _ACTIVE
    _ACTIVE = None


@contextmanager
def use_tracer(tracer: Tracer):
    """Attach ``tracer`` for the duration of a ``with`` block.

    Restores whatever tracer (or none) was active before, so recording
    windows compose — the ``repro obs`` CLI and the tests both record
    through this.
    """
    global _ACTIVE
    previous = _ACTIVE
    _ACTIVE = tracer
    try:
        yield tracer
    finally:
        _ACTIVE = previous
