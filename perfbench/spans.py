"""Span recorder that times calls into the package's public functions from outside.

`SpanRecorder.install` replaces a function with a timing wrapper under every
name it is bound to in the package: the defining module and each module that
imported it directly (`from .assembly import build_system` binds a second
name that a module-only patch would miss, and calls through it would lose
their time silently).  Methods are patched on their class, which every name
shares.  Spans stay in memory: name, start, end, parent span and a work count
taken from the call's arguments.
"""

from __future__ import annotations

import sys
import time
from dataclasses import dataclass


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None
    work: int


def _covered(intervals, lo: float, hi: float) -> float:
    """Length of the union of the intervals, clipped to [lo, hi]."""
    covered, cursor = 0.0, lo
    for a, b in sorted(intervals):
        a, b = max(a, cursor), min(b, hi)
        if b > a:
            covered += b - a
            cursor = b
    return covered


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the part of its interval its children cover."""
    children: dict[int, list[tuple[float, float]]] = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(s.parent, []).append((s.start, s.end))
    return [(s.end - s.start) - _covered(children.get(i, ()), s.start, s.end)
            for i, s in enumerate(spans)]


def root_coverage(spans: list[Span], start: float, end: float) -> float:
    """Seconds of [start, end] covered by spans that have no parent."""
    return _covered([(s.start, s.end) for s in spans if s.parent is None], start, end)


class SpanRecorder:
    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._undo: list[tuple[object, str, object]] = []

    def wrap(self, fn, name: str, work=None):
        spans, stack = self.spans, self._stack
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            sid = len(spans)
            span = Span(name, clock(), 0.0, stack[-1] if stack else None,
                        work(*args, **kwargs) if work else 1)
            spans.append(span)
            stack.append(sid)
            try:
                return fn(*args, **kwargs)
            finally:
                span.end = clock()
                stack.pop()

        return wrapper

    def _set(self, owner, attr: str, value) -> None:
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self, package: str, targets) -> None:
        """targets: (module, "func" or "Class.method", span name, work or None)."""
        modules = [m for n, m in sorted(sys.modules.items())
                   if m is not None and (n == package or n.startswith(package + "."))]
        for modname, attr, name, work in targets:
            owner = sys.modules[f"{package}.{modname}"]
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(owner, cls_name)
                self._set(cls, meth, self.wrap(cls.__dict__[meth], name, work))
                continue
            fn = getattr(owner, attr)
            wrapped = self.wrap(fn, name, work)
            for mod in modules:
                for key, val in list(vars(mod).items()):
                    if val is fn:
                        self._set(mod, key, wrapped)

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)

    def clear(self) -> None:
        self.spans.clear()
