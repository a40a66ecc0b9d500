"""In-memory span recorder and the attribute patching that feeds it.

The benchmark records spans from outside the program: for the length of a
traced run it replaces the module attribute each caller looks up (for
example ``alignment.grid_match``, which ``register_and_crop`` calls) with a
wrapper that opens a span around the original.  ``patched`` restores every
original on exit, also when the block raises.  Spans stay in memory and are
written as JSONL once the run ends.
"""

from __future__ import annotations

import functools
import json
import time
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import asdict, dataclass


@dataclass
class Span:
    id: int
    name: str
    start: float
    end: float
    parent: int | None
    op: int  # index of the benchmark operation the span belongs to; -1 during set-up


class Tracer:
    """Nested spans on one thread plus named counters and sample lists."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list[Span] = []
        self.counters: dict[str, float] = defaultdict(float)
        self.samples: dict[str, list] = defaultdict(list)
        self.op = -1
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str):
        parent = self._stack[-1] if self._stack else None
        s = Span(len(self.spans), name, self.clock(), float("nan"), parent, self.op)
        self.spans.append(s)
        self._stack.append(s.id)
        try:
            yield s
        finally:
            self._stack.pop()
            s.end = self.clock()

    def count(self, name: str, n: float = 1) -> None:
        self.counters[name] += n

    def write_jsonl(self, path) -> None:
        with open(path, "w", encoding="utf-8") as f:
            for s in self.spans:
                f.write(json.dumps(asdict(s)) + "\n")


def traced(tracer: Tracer, name: str, fn, after=None):
    """Wrap ``fn`` in a span named ``name``.

    ``after(tracer, args, kwargs, result, exc)`` runs once the span has
    closed, so counter bookkeeping is not charged to the layer itself.
    """

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        try:
            with tracer.span(name):
                result = fn(*args, **kwargs)
        except Exception as exc:
            if after is not None:
                after(tracer, args, kwargs, None, exc)
            raise
        if after is not None:
            after(tracer, args, kwargs, result, None)
        return result

    return wrapper


@contextmanager
def patched(targets):
    """Replace ``owner.attr`` by ``make(original)`` for each ``(owner, attr, make)``.

    Targets are applied in order, so a later target on the same attribute
    wraps the earlier wrapper.  Originals are restored in reverse order.
    """
    saved = []
    try:
        for owner, attr, make in targets:
            original = getattr(owner, attr)
            saved.append((owner, attr, original))
            setattr(owner, attr, make(original))
        yield
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)


def _covered(intervals, lo: float, hi: float) -> float:
    """Length of the union of ``intervals`` clipped to ``[lo, hi]``."""
    total = 0.0
    cur_lo = cur_hi = None
    for a, b in sorted((max(a, lo), min(b, hi)) for a, b in intervals):
        if b <= a:
            continue
        if cur_hi is None or a > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = a, b
        else:
            cur_hi = max(cur_hi, b)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def self_times(spans) -> dict[int, float]:
    """Span id -> duration minus the part of it that child spans cover."""
    children = defaultdict(list)
    for s in spans:
        if s.parent is not None:
            children[s.parent].append((s.start, s.end))
    return {
        s.id: (s.end - s.start) - _covered(children[s.id], s.start, s.end)
        for s in spans
    }


def layer_table(spans) -> dict[str, dict]:
    """Per span name: call count, inclusive seconds and self seconds."""
    own = self_times(spans)
    table: dict[str, dict] = {}
    for s in spans:
        row = table.setdefault(s.name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
        row["calls"] += 1
        row["total_s"] += s.end - s.start
        row["self_s"] += own[s.id]
    return table


def accounting(spans, start: float, end: float) -> dict[str, float]:
    """Split the wall time ``[start, end]`` into span self time and untraced remainder.

    For properly nested spans ``self_s + untraced_s == wall_s``; a gap
    means spans overlapped or left the window.
    """
    inside = [s for s in spans if s.start >= start and s.end <= end]
    self_s = sum(self_times(inside).values())
    ids = {s.id for s in inside}
    roots = [(s.start, s.end) for s in inside if s.parent not in ids]
    untraced_s = (end - start) - _covered(roots, start, end)
    return {"wall_s": end - start, "self_s": self_s, "untraced_s": untraced_s}
