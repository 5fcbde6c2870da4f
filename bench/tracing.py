"""Span recorder for the traced benchmark run.

The benchmark, not the program, owns tracing here: :class:`Tracer` wraps
the public callables at each layer boundary (instance attributes where a
workload builds the object, class attributes where the program creates
instances on the fly) and records one span per call — name, layer, start,
end, parent span, and the id of the op (train step / churn round / steady
step / engine step) it belongs to.  Spans stay in memory until the run
ends; :meth:`Tracer.self_times` then turns them into per-name self time
(a span's duration minus the part its child spans cover), which is what
every ``*_ms`` per-layer metric reports.  ``repro.obs`` stays disabled.
"""

from __future__ import annotations

import json
import time
from collections import defaultdict

#: span record layout (a list, so the wrapper can fill in the end time).
NAME, LAYER, START, END, PARENT, OP = range(6)


class Tracer:
    """Records nested wall-clock spans and undoes its own patches."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._patches: list[tuple] = []
        self.op_id = -1

    # -- recording -----------------------------------------------------
    def wrap(self, fn, name: str, layer: str):
        """``fn`` wrapped so every call records a ``name`` span."""
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def traced(*args, **kwargs):
            span = [name, layer, 0.0, 0.0, stack[-1] if stack else -1, self.op_id]
            stack.append(len(spans))
            spans.append(span)
            span[START] = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                span[END] = clock()
                stack.pop()

        return traced

    # -- patching ------------------------------------------------------
    def patch(self, owner, attr: str, name: str, layer: str) -> None:
        """Replace ``owner.attr`` with a traced wrapper (undone by :meth:`unpatch`).

        ``owner`` is an instance (the wrapper shadows the bound method as
        an instance attribute) or a class (the wrapper replaces the
        function in the class dict, keeping a ``staticmethod`` static).
        """
        if isinstance(owner, type):
            original = owner.__dict__[attr]
            if isinstance(original, staticmethod):
                wrapped = staticmethod(self.wrap(original.__func__, name, layer))
            else:
                wrapped = self.wrap(original, name, layer)
            self._patches.append((owner, attr, original))
        else:
            shadowed = vars(owner).get(attr, _MISSING)
            wrapped = self.wrap(getattr(owner, attr), name, layer)
            self._patches.append((owner, attr, shadowed))
        setattr(owner, attr, wrapped)

    def patch_callable(self, holder, attr: str, name: str, layer: str) -> None:
        """Trace a callable *object* stored at ``holder.attr``.

        ``__call__`` is looked up on the type, so the object itself is
        swapped for a traced function; ``parameters`` is forwarded because
        the transformer layer asks its MoE pipeline for them.
        """
        target = getattr(holder, attr)
        wrapped = self.wrap(target, name, layer)
        wrapped.parameters = target.parameters
        self._patches.append((holder, attr, target))
        setattr(holder, attr, wrapped)

    def mark(self) -> int:
        """A position :meth:`unpatch` can later unwind to."""
        return len(self._patches)

    def unpatch(self, keep: int = 0) -> None:
        """Restore what :meth:`patch` replaced after ``keep``, newest first."""
        while len(self._patches) > keep:
            owner, attr, original = self._patches.pop()
            if original is _MISSING:
                delattr(owner, attr)
            else:
                setattr(owner, attr, original)

    # -- analysis ------------------------------------------------------
    def self_times(self) -> tuple[dict[str, float], dict[str, float], dict[str, int]]:
        """Per span name: summed self seconds, summed seconds, call count."""
        own = [s[END] - s[START] for s in self.spans]
        total: dict[str, float] = defaultdict(float)
        calls: dict[str, int] = defaultdict(int)
        for span, duration in zip(self.spans, own):
            total[span[NAME]] += duration
            calls[span[NAME]] += 1
        for span in self.spans:
            if span[PARENT] >= 0:
                own[span[PARENT]] -= span[END] - span[START]
        self_s: dict[str, float] = defaultdict(float)
        for span, seconds in zip(self.spans, own):
            self_s[span[NAME]] += seconds
        return self_s, total, calls

    def write_chrome_trace(self, path: str) -> None:
        """Write the spans as Chrome / Perfetto trace-event JSON.

        One complete (``"X"``) event per span on one track per layer;
        ``args`` carries the span id, its parent's id and the op id, so a
        step's spans can be selected together.
        """
        if not self.spans:
            events = []
        else:
            origin = self.spans[0][START]
            layers = {layer: tid for tid, layer in enumerate(sorted({s[LAYER] for s in self.spans}))}
            events = [
                {"name": "thread_name", "ph": "M", "pid": 0, "tid": tid, "args": {"name": layer}}
                for layer, tid in layers.items()
            ]
            events += [
                {
                    "name": s[NAME],
                    "cat": s[LAYER],
                    "ph": "X",
                    "pid": 0,
                    "tid": layers[s[LAYER]],
                    "ts": (s[START] - origin) * 1e6,
                    "dur": (s[END] - s[START]) * 1e6,
                    "args": {"id": i, "parent": s[PARENT], "op": s[OP]},
                }
                for i, s in enumerate(self.spans)
            ]
        with open(path, "w") as fh:
            json.dump({"traceEvents": events, "displayTimeUnit": "ms"}, fh)


_MISSING = object()
