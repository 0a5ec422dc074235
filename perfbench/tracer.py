"""In-memory spans and counters, recorded around functions patched from outside.

A span is (id, name, start, end, parent): start and end are
time.perf_counter() readings (CLOCK_MONOTONIC, so spans written by child
processes on the same machine line up with the parent's), and parent is the
id of the span that was open on the same thread when this one began.
Counters are plain named sums.  Nothing here knows about scottlab; the
layer table lives in layers.py.
"""

from __future__ import annotations

import sys
import threading
import time
from collections import defaultdict
from typing import Callable, NamedTuple, Optional


class Span(NamedTuple):
    id: int
    name: str
    start: float
    end: float
    parent: Optional[int]


class Tracer:
    """Collects spans and counters; patch() and restore() switch it on and off."""

    def __init__(self):
        self.spans: list[Span] = []
        self.counters: dict[str, float] = defaultdict(float)
        self._next_id = 0
        self._id_lock = threading.Lock()
        self._local = threading.local()
        self._patches: list[tuple[object, str, object]] = []

    # -- recording ----------------------------------------------------------

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _new_id(self) -> int:
        with self._id_lock:
            self._next_id += 1
            return self._next_id

    def span(self, name: str):
        return _SpanContext(self, name)

    def count(self, name: str, amount: float = 1) -> None:
        self.counters[name] += amount

    def add_foreign(self, spans, counters, parent: Optional[int]) -> None:
        """Merge spans and counters recorded by another process.

        Ids are renumbered; spans that had no parent there hang under parent.
        """
        mapping = {s[0]: self._new_id() for s in spans}
        for sid, name, start, end, par in spans:
            self.spans.append(Span(mapping[sid], name, start, end, mapping.get(par, parent)))
        for name, value in counters.items():
            self.counters[name] += value

    # -- patching -----------------------------------------------------------

    def patch(self, owner, attr: str, span_name: Optional[str] = None,
              on_result: Optional[Callable] = None,
              on_call: Optional[Callable] = None,
              aliases_in: str = "") -> None:
        """Replace owner.attr by a recording wrapper.

        span_name records a span per call; on_call(tracer, args, kwargs)
        updates counters before the call, and on_result(tracer, result)
        after it, returning the value the caller receives.  With aliases_in
        set to a package name, every module of that package that holds the
        same function object under the same attribute (a `from .x import f`)
        is patched as well, so calls through either name are recorded.
        """
        orig = getattr(owner, attr)
        wrapper = self._wrap(orig, span_name, on_result, on_call)
        targets = [owner]
        if aliases_in:
            for mod_name, mod in list(sys.modules.items()):
                if (mod is not None and mod is not owner
                        and (mod_name == aliases_in or mod_name.startswith(aliases_in + "."))
                        and getattr(mod, attr, None) is orig):
                    targets.append(mod)
        for target in targets:
            self._patches.append((target, attr, orig))
            setattr(target, attr, wrapper)

    def restore(self) -> None:
        """Undo every patch, newest first."""
        while self._patches:
            target, attr, orig = self._patches.pop()
            setattr(target, attr, orig)

    def _wrap(self, fn, span_name, on_result, on_call):
        tracer = self

        def wrapper(*args, **kwargs):
            if on_call is not None:
                on_call(tracer, args, kwargs)
            if span_name is None:
                result = fn(*args, **kwargs)
            else:
                with tracer.span(span_name):
                    result = fn(*args, **kwargs)
            if on_result is not None:
                result = on_result(tracer, result)
            return result

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", "wrapper")
        return wrapper


class _SpanContext:
    __slots__ = ("tracer", "name", "id", "parent", "start")

    def __init__(self, tracer: Tracer, name: str):
        self.tracer = tracer
        self.name = name

    def __enter__(self):
        t = self.tracer
        self.id = t._new_id()
        stack = t._stack()
        self.parent = stack[-1] if stack else None
        stack.append(self.id)
        self.start = time.perf_counter()
        return self

    def __exit__(self, *exc):
        end = time.perf_counter()
        t = self.tracer
        t._stack().pop()
        t.spans.append(Span(self.id, self.name, self.start, end, self.parent))
        return False


# ---------------------------------------------------------------------------
# arithmetic on recorded spans
# ---------------------------------------------------------------------------


def self_times(spans) -> dict:
    """Span id -> duration minus the part of its interval its children cover.

    Overlapping children (from threads) are merged before subtracting, and
    children are clipped to the parent's interval.
    """
    children = defaultdict(list)
    for s in spans:
        if s.parent is not None:
            children[s.parent].append((s.start, s.end))
    out = {}
    for s in spans:
        covered = 0.0
        reach = s.start
        for a, b in sorted(children.get(s.id, ())):
            a = max(a, reach)
            b = min(b, s.end)
            if b > a:
                covered += b - a
            reach = max(reach, b)
        out[s.id] = (s.end - s.start) - covered
    return out


def outermost_total(spans, names) -> float:
    """Summed duration of spans named in names with no ancestor also named in names."""
    names = set(names)
    by_id = {s.id: s for s in spans}
    total = 0.0
    for s in spans:
        if s.name not in names:
            continue
        p = by_id.get(s.parent)
        while p is not None and p.name not in names:
            p = by_id.get(p.parent)
        if p is None:
            total += s.end - s.start
    return total
