"""Spans recorded from outside the program, around each layer's entry points.

:class:`Tracer` replaces a function or method with a wrapper that appends one
span ``[name, parent, start, end, n]`` to an in-memory list; nothing is written
until :meth:`Tracer.dump`.  Functions are replaced in their defining module
*and* wherever a caller bound them with ``from ... import name``, otherwise the
front end's internal calls (``compile`` calling ``plan_buffers``) would be
missed.  A span's self time is its duration minus the time its children cover.

The wrapping targets and the per-layer metrics derived from the spans live in
:mod:`layers`.
"""

from __future__ import annotations

import functools
import gc
import importlib
import json
import pkgutil
import sys
import time
from collections import defaultdict
from typing import Any, Callable, Dict, List, Optional

#: One span: [name, parent index (-1 for roots), start, end, work items].
Span = List[Any]
OnResult = Callable[["Tracer", Span, tuple, dict, Any], None]


def import_program() -> None:
    """Import every module of the package, so every ``from`` binding exists."""
    import repro

    for info in pkgutil.walk_packages(repro.__path__, "repro."):
        if not info.name.endswith("__main__"):
            importlib.import_module(info.name)
    importlib.import_module("repro.serve.__main__")


class Tracer:
    """In-memory span recorder; wraps entry points, restores them on ``close``."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self.counts: Dict[str, float] = defaultdict(float)
        self._stack: List[int] = []
        self._restore: List[tuple] = []

    # ------------------------------------------------------------------ #
    def _open(self, name: str) -> Span:
        span = [name, self._stack[-1] if self._stack else -1, time.perf_counter(), 0.0, 0]
        self._stack.append(len(self.spans))
        self.spans.append(span)
        return span

    def _close(self, span: Span) -> None:
        span[3] = time.perf_counter()
        self._stack.pop()

    def span(self, name: str) -> "_SpanContext":
        """A span around a block of the benchmark's own code."""
        return _SpanContext(self, name)

    def _wrapper(self, fn: Callable, name: str, on_result: Optional[OnResult]) -> Callable:
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(span)
            if on_result is not None:
                on_result(self, span, args, kwargs, result)
            return result

        return traced

    def _counter(self, fn: Callable, name: str) -> Callable:
        counts = self.counts

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return counted

    def _replace(self, owner: Any, attr: str, new: Any) -> None:
        self._restore.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, new)

    def wrap_function(
        self, module: str, attr: str, name: str, on_result: Optional[OnResult] = None
    ) -> None:
        """Trace ``module.attr`` under every name a ``repro`` module binds it to."""
        original = getattr(importlib.import_module(module), attr)
        traced = self._wrapper(original, name, on_result)
        for mod_name, mod in list(sys.modules.items()):
            if mod_name.split(".")[0] != "repro":
                continue
            for bound, value in list(mod.__dict__.items()):
                if value is original:  # also catches ``import x as y`` aliases
                    self._replace(mod, bound, traced)

    def wrap_method(
        self, cls: type, attr: str, name: str, on_result: Optional[OnResult] = None,
        count_only: bool = False,
    ) -> None:
        """Trace (or only count) calls of a method defined on ``cls`` itself."""
        original = cls.__dict__[attr]
        new = self._counter(original, name) if count_only else self._wrapper(
            original, name, on_result
        )
        self._replace(cls, attr, new)

    def trace_gc(self, name: str, generation: int = 2) -> None:
        """Record each collection of ``generation`` as a span (a stop-the-world pause)."""
        open_spans: List[Span] = []

        def callback(phase: str, info: Dict[str, int]) -> None:
            if info["generation"] != generation:
                return
            if phase == "start":
                open_spans.append(self._open(name))
            elif open_spans:
                self._close(open_spans.pop())

        gc.callbacks.append(callback)
        self._restore.append((gc.callbacks, None, callback))

    def close(self) -> None:
        """Put every wrapped entry point back."""
        for owner, attr, original in reversed(self._restore):
            if owner is gc.callbacks:
                gc.callbacks.remove(original)
            else:
                setattr(owner, attr, original)
        self._restore.clear()

    def dump(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"spans": self.spans, "counts": dict(self.counts)}, fh)


class _SpanContext:
    def __init__(self, tracer: Tracer, name: str) -> None:
        self.tracer, self.name = tracer, name

    def __enter__(self) -> Span:
        self.span = self.tracer._open(self.name)
        return self.span

    def __exit__(self, *exc_info: Any) -> None:
        self.tracer._close(self.span)


# --------------------------------------------------------------------------- #
# summaries
# --------------------------------------------------------------------------- #
class SpanTree:
    """Read-side view of a span list: self times, inclusive times, phases."""

    def __init__(self, spans: List[Span], window: Optional[tuple] = None) -> None:
        self.spans = spans
        #: Only spans starting inside ``(start, end)`` are selected, when set.
        self.window = window
        self.children_time = [0.0] * len(spans)
        #: The phase each span's children run in (parents precede children).
        self._inner_phase: List[Optional[str]] = []
        for span in spans:
            parent = span[1]
            outer = self._inner_phase[parent] if parent >= 0 else None
            self._inner_phase.append(span[0] if span[0].startswith("phase.") else outer)
            if parent >= 0:
                self.children_time[parent] += span[3] - span[2]

    def duration(self, index: int) -> float:
        span = self.spans[index]
        return span[3] - span[2]

    def self_time(self, index: int) -> float:
        return self.duration(index) - self.children_time[index]

    def ancestors(self, index: int):
        parent = self.spans[index][1]
        while parent >= 0:
            yield parent
            parent = self.spans[parent][1]

    def phase_of(self, index: int) -> Optional[str]:
        """The enclosing ``phase.*`` span's name, if any."""
        parent = self.spans[index][1]
        return self._inner_phase[parent] if parent >= 0 else None

    def select(self, names, phase: Optional[str] = None, outermost: bool = False) -> List[int]:
        """Indices of spans named in ``names`` (optionally inside ``phase``).

        ``outermost`` drops spans nested in another span of the selection, so
        a recursive or re-entrant layer is not counted twice.
        """
        names = {names} if isinstance(names, str) else set(names)
        picked = []
        for index, span in enumerate(self.spans):
            if span[0] not in names:
                continue
            if phase is not None and self.phase_of(index) != phase:
                continue
            if self.window is not None and not self.window[0] <= span[2] < self.window[1]:
                continue
            if outermost and any(self.spans[a][0] in names for a in self.ancestors(index)):
                continue
            picked.append(index)
        return picked

    def inclusive(self, names, phase: Optional[str] = None) -> float:
        """Wall time covered by the outermost spans of ``names``."""
        return sum(self.duration(i) for i in self.select(names, phase, outermost=True))

    def exclusive(self, names, phase: Optional[str] = None) -> float:
        """Self time summed over every span of ``names``."""
        return sum(self.self_time(i) for i in self.select(names, phase))

    def count(self, names, phase: Optional[str] = None) -> int:
        return len(self.select(names, phase))

    def items(self, names, phase: Optional[str] = None) -> int:
        """Work items (points, cells) of the outermost spans of ``names``."""
        return sum(self.spans[i][4] for i in self.select(names, phase, outermost=True))
