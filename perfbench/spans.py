"""In-memory span tracing for the benchmark's traced run.

A span is (name, start, end, parent, call_id): `parent` is the index of the
enclosing span (-1 at top level) and `call_id` numbers the certify call the
span belongs to (-1 outside any). Spans are recorded only by wrappers that
`Tracer.install` puts on module attributes; `Tracer.uninstall` restores the
originals, and an untraced run never creates a Tracer, so the program under
test runs unmodified.
"""

from __future__ import annotations

import contextlib
import functools
import json
import time
from dataclasses import dataclass, field


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int
    call_id: int


@dataclass
class Tracer:
    spans: list[Span] = field(default_factory=list)
    counters: dict[str, int] = field(default_factory=dict)
    _stack: list[int] = field(default_factory=list)
    _installed: list[tuple[object, str, object]] = field(default_factory=list)
    call_id: int = -1

    # -- recording ---------------------------------------------------------

    def _open(self, name: str) -> int:
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append(Span(name, time.perf_counter(), 0.0, parent, self.call_id))
        self._stack.append(idx)
        return idx

    def _close(self, idx: int) -> None:
        self.spans[idx].end = time.perf_counter()
        popped = self._stack.pop()
        if popped != idx:
            raise RuntimeError(f"span {self.spans[idx].name} closed out of order")

    @contextlib.contextmanager
    def span(self, name: str):
        """Record one span around a block."""
        idx = self._open(name)
        try:
            yield
        finally:
            self._close(idx)

    def count(self, name: str) -> None:
        self.counters[name] = self.counters.get(name, 0) + 1

    # -- wrappers ----------------------------------------------------------

    def wrap_function(self, fn, name: str, on_result=None):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = tracer._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(idx)
            if on_result is not None:
                on_result(tracer, result)
            return result

        traced.__wrapped_by_tracer__ = True
        return traced

    def wrap_generator(self, fn, name: str):
        """Wrap a generator function: each `next` is one span, so the span
        covers the generator's own work up to its yield, and the consumer's
        work between yields stays with the consumer."""
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            gen = fn(*args, **kwargs)
            while True:
                idx = tracer._open(name)
                try:
                    item = next(gen)
                except StopIteration:
                    return
                finally:
                    tracer._close(idx)
                yield item

        traced.__wrapped_by_tracer__ = True
        return traced

    def install(self, target, attr: str, name: str, on_result=None, generator=False):
        """Replace target.attr by a traced wrapper; remember the original."""
        original = getattr(target, attr)
        if generator:
            wrapped = self.wrap_generator(original, name)
        else:
            wrapped = self.wrap_function(original, name, on_result)
        self._installed.append((target, attr, original))
        setattr(target, attr, wrapped)

    def uninstall(self) -> None:
        while self._installed:
            target, attr, original = self._installed.pop()
            setattr(target, attr, original)

    # -- analysis ----------------------------------------------------------

    def self_times(self) -> list[float]:
        """Self time of each span: its duration minus its children's."""
        own = [s.end - s.start for s in self.spans]
        for s in self.spans:
            if s.parent >= 0:
                own[s.parent] -= s.end - s.start
        return own

    def owner(self, idx: int, names: frozenset[str]) -> str | None:
        """Name of the nearest enclosing span whose name is in `names`."""
        parent = self.spans[idx].parent
        while parent >= 0:
            if self.spans[parent].name in names:
                return self.spans[parent].name
            parent = self.spans[parent].parent
        return None

    def dump(self, path) -> None:
        """Write every span as a JSON array, one per line."""
        with open(path, "w") as fh:
            for s in self.spans:
                fh.write(json.dumps([s.name, s.start, s.end, s.parent, s.call_id]) + "\n")

