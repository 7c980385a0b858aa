"""In-memory spans around the public functions of the program's modules.

A span records its name, start, end, parent span, the op it belongs to, the
exception type that escaped it (if any) and a few attributes of its result.
Spans stay in memory; the runner aggregates them when the run ends.

Modules inside the package bind names directly (``from .solver import
build_pencil``), so wrapping ``solver.build_pencil`` alone would miss the
calls made through those bindings.  `Tracer.patched` therefore replaces the
function at every binding site in every loaded module of the package, and
puts the originals back on exit.
"""

from __future__ import annotations

import functools
import sys
import time
from contextlib import contextmanager
from dataclasses import dataclass, field


@dataclass
class Span:
    name: str
    start: float
    parent: int | None
    op: int | None
    end: float = 0.0
    error: str | None = None
    attrs: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


@dataclass(frozen=True)
class Target:
    """One function to trace: where it is defined and how to name its spans.

    `name` is a string, or a callable taking the call's (args, kwargs) and
    returning one.  `annotate` maps (args, kwargs, result) to span attributes.
    """

    module: str
    function: str
    name: object
    annotate: object = None


class Tracer:
    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self.op: int | None = None

    @contextmanager
    def span(self, name: str, op: int | None = None):
        """A span opened by the caller, such as the root span of one op."""
        if op is not None:
            self.op = op
        index = self._open(name)
        try:
            yield self.spans[index]
        except BaseException as exc:
            self.spans[index].error = type(exc).__name__
            raise
        finally:
            self._close(index)

    def _open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else None
        self.spans.append(Span(name, self.clock(), parent, self.op))
        self._stack.append(len(self.spans) - 1)
        return len(self.spans) - 1

    def _close(self, index: int) -> None:
        self.spans[index].end = self.clock()
        self._stack.pop()

    def wrap(self, fn, target: Target):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            name = target.name(args, kwargs) if callable(target.name) else target.name
            index = self._open(name)
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                self.spans[index].error = type(exc).__name__
                self._close(index)
                raise
            self._close(index)
            if target.annotate is not None:
                self.spans[index].attrs = target.annotate(args, kwargs, result)
            return result

        return traced

    @contextmanager
    def patched(self, package: str, targets):
        """Trace every target at every binding site inside `package`."""
        modules = [
            m
            for name, m in list(sys.modules.items())
            if m is not None and (name == package or name.startswith(package + "."))
        ]
        undo = []
        try:
            for target in targets:
                original = getattr(sys.modules[target.module], target.function)
                wrapper = self.wrap(original, target)
                for module in modules:
                    for attr, value in list(vars(module).items()):
                        if value is original:
                            setattr(module, attr, wrapper)
                            undo.append((module, attr, original))
            yield self
        finally:
            for module, attr, original in reversed(undo):
                setattr(module, attr, original)


def covered(intervals, start: float, end: float) -> float:
    """Length of the union of intervals, clipped to [start, end]."""
    total = 0.0
    reach = start
    for lo, hi in sorted(intervals):
        lo, hi = max(lo, reach), min(hi, end)
        if hi > lo:
            total += hi - lo
            reach = hi
    return total


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the time its child spans cover."""
    children: dict[int, list[tuple[float, float]]] = {}
    for span in spans:
        if span.parent is not None:
            children.setdefault(span.parent, []).append((span.start, span.end))
    return [
        span.duration - covered(children.get(i, ()), span.start, span.end)
        for i, span in enumerate(spans)
    ]
