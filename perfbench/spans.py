"""In-memory span recorder for the traced benchmark run.

A span has a name, a start and end time (``time.perf_counter`` seconds), a
parent span and free-form attributes. Spans nest as workload -> operation ->
layer call. Layer calls made inside the program are recorded by replacing
the public function in the module namespace that calls it, for the length
of a traced round only, so untraced rounds run the unmodified program.
Nothing here imports swarmsync; the patch table comes from the caller.
"""

from __future__ import annotations

import functools
import json
import time
from dataclasses import dataclass, field


@dataclass
class Span:
    id: int
    name: str
    parent: int | None
    start: float
    end: float = float("nan")
    attrs: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Records spans into a list; ``patch``/``unpatch`` bracket traced rounds."""

    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    def open(self, name: str, **attrs) -> Span:
        parent = self._stack[-1] if self._stack else None
        span = Span(len(self.spans), name, parent, time.perf_counter(), attrs=attrs)
        self.spans.append(span)
        self._stack.append(span.id)
        return span

    def close(self, span: Span) -> None:
        span.end = time.perf_counter()
        popped = self._stack.pop()
        if popped != span.id:
            raise RuntimeError(f"span {span.name!r} closed out of order")

    def call(self, name: str, fn, *args, annotate=None, **kwargs):
        """Run ``fn`` inside a span; ``annotate(span, args, result)`` runs after it closes."""
        span = self.open(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            self.close(span)
        if annotate is not None:
            annotate(span, args, result)
        return result

    def patch(self, table) -> None:
        """Replace each ``(owner, attr, name, annotate)`` entry with a spanning wrapper."""
        for owner, attr, name, annotate in table:
            original = getattr(owner, attr)

            @functools.wraps(original)
            def wrapper(*args, _fn=original, _name=name, _annotate=annotate, **kwargs):
                return self.call(_name, _fn, *args, annotate=_annotate, **kwargs)

            self._saved.append((owner, attr, original))
            setattr(owner, attr, wrapper)

    def unpatch(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    # -- analysis ----------------------------------------------------------

    def children(self) -> dict[int, list[Span]]:
        out: dict[int, list[Span]] = {}
        for s in self.spans:
            if s.parent is not None:
                out.setdefault(s.parent, []).append(s)
        return out

    def ancestor(self, span: Span, prefix: str) -> Span | None:
        """Nearest enclosing span (itself included) whose name starts with ``prefix``."""
        cur: Span | None = span
        while cur is not None:
            if cur.name.startswith(prefix):
                return cur
            cur = None if cur.parent is None else self.spans[cur.parent]
        return None

    def self_times(self, spans) -> dict[str, float]:
        """Per-name self time: duration minus the time covered by child spans."""
        kids = self.children()
        out: dict[str, float] = {}
        for s in spans:
            own = s.duration - sum(c.duration for c in kids.get(s.id, ()))
            out[s.name] = out.get(s.name, 0.0) + own
        return out

    def dump(self, path, extra: dict) -> None:
        doc = {
            **extra,
            "spans": [
                {"id": s.id, "name": s.name, "parent": s.parent,
                 "start": s.start, "end": s.end, "attrs": s.attrs}
                for s in self.spans
            ],
        }
        with open(path, "w") as fh:
            json.dump(doc, fh)
