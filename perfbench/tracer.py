"""In-memory span tracer that instruments the library from outside.

A :class:`Tracer` wraps library callables in place -- class attributes
and module-level names -- so each call records a :class:`Span` (name,
start, end, parent).  Spans stay in memory until the caller writes
them out.  Leaving the ``with`` block restores every original object,
so code timed after a traced run carries no wrapper cost.
"""

from __future__ import annotations

import functools
import sys
import time
from dataclasses import dataclass, field
from typing import Any, Callable


@dataclass
class Span:
    """One traced call.  ``parent`` indexes the enclosing span."""

    name: str
    start: float
    end: float = 0.0
    parent: int | None = None
    attrs: dict[str, Any] = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Records nested spans around wrapped callables.

    Single-threaded by design: the benchmark runs every workload
    serially in one process, so a plain stack tracks the parent span.

    Args:
        clock: Monotonic time source (seconds); tests inject a fake one.
    """

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    # -- recording ---------------------------------------------------------

    def wrap(
        self,
        fn: Callable,
        name: str,
        on_exit: Callable[[Span, Any], None] | None = None,
        counter: Callable[[], float] | None = None,
    ) -> Callable:
        """Return ``fn`` wrapped so every call records a span ``name``.

        ``on_exit(span, result)`` may annotate the span after a call
        that returned.  ``counter()`` is read on entry and exit and the
        difference stored as ``span.attrs["counted"]``.  A call that
        raises is recorded with ``attrs["error"] = True``.
        """

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = self._stack[-1] if self._stack else None
            span = Span(name, 0.0, parent=parent)
            self.spans.append(span)
            self._stack.append(len(self.spans) - 1)
            before = counter() if counter is not None else 0.0
            span.start = self.clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                span.attrs["error"] = True
                raise
            finally:
                span.end = self.clock()
                self._stack.pop()
                if counter is not None:
                    span.attrs["counted"] = counter() - before
            if on_exit is not None:
                on_exit(span, result)
            return result

        return traced

    # -- patching ----------------------------------------------------------

    def patch_method(self, cls: type, attr: str, name: str, **hooks) -> None:
        """Wrap a function defined on ``cls`` itself (not inherited)."""
        original = cls.__dict__[attr]
        self._set(cls, attr, original, self.wrap(original, name, **hooks))

    def patch_function(self, fn: Callable, name: str, **hooks) -> int:
        """Wrap ``fn`` under every name a loaded module binds it to.

        Callers that imported the function by name hold their own
        binding, so the wrapper must replace each one where the caller
        looks it up.  Only the library's own modules (``repro.*``) are
        searched.  Returns the number of bindings replaced.
        """
        traced = self.wrap(fn, name, **hooks)
        replaced = 0
        for module_name, module in list(sys.modules.items()):
            if module is None or not module_name.startswith("repro"):
                continue
            namespace = vars(module)
            for attr, value in list(namespace.items()):
                if value is fn:
                    self._set(module, attr, fn, traced)
                    replaced += 1
        return replaced

    def _set(self, owner: object, attr: str, original: object, value) -> None:
        self._patches.append((owner, attr, original))
        setattr(owner, attr, value)

    @property
    def patched(self) -> list[tuple[object, str, object]]:
        """``(owner, attribute, original)`` for every live wrapper."""
        return list(self._patches)

    def restore(self) -> None:
        """Put every original object back, newest patch first."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def __enter__(self) -> "Tracer":
        return self

    def __exit__(self, *exc) -> None:
        self.restore()


# -- analysis ----------------------------------------------------------------


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the time its direct children cover.

    Children of one span never overlap (calls are sequential), so the
    covered time is the sum of their durations.
    """
    covered = [0.0] * len(spans)
    for span in spans:
        if span.parent is not None:
            covered[span.parent] += span.duration
    return [span.duration - c for span, c in zip(spans, covered)]


def has_ancestor(spans: list[Span], index: int, names: set[str]) -> bool:
    """Whether any span enclosing ``spans[index]`` is named in ``names``."""
    parent = spans[index].parent
    while parent is not None:
        if spans[parent].name in names:
            return True
        parent = spans[parent].parent
    return False


def inclusive_time(spans: list[Span], name: str) -> float:
    """Wall time inside calls named ``name``, counting nested
    (recursive) calls of the same name once."""
    return sum(
        span.duration
        for i, span in enumerate(spans)
        if span.name == name and not has_ancestor(spans, i, {name})
    )


def tail_percentile(samples: list[float]) -> tuple[float, float]:
    """``(percentile, value)`` of the highest whole percentile with at
    least ten samples beyond it.

    With ten samples or fewer no percentile qualifies; the maximum is
    returned as percentile 100 so the value is still a real sample.
    """
    ordered = sorted(samples)
    n = len(ordered)
    for pct in range(99, -1, -1):
        rank = min(n - 1, round(pct / 100 * (n - 1)))
        if n - 1 - rank >= 10:
            return float(pct), ordered[rank]
    return 100.0, ordered[-1] if ordered else 0.0


def chrome_trace(spans: list[Span]) -> dict:
    """Spans as Chrome trace-event JSON (viewable in Perfetto)."""
    origin = min((s.start for s in spans), default=0.0)
    return {
        "traceEvents": [
            {
                "name": span.name,
                "ph": "X",
                "ts": round((span.start - origin) * 1e6, 3),
                "dur": round(span.duration * 1e6, 3),
                "pid": 1,
                "tid": 1,
                "args": {"id": i, "parent": span.parent, **span.attrs},
            }
            for i, span in enumerate(spans)
        ]
    }
