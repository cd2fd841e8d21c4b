"""Span and counter recorder for the benchmark's traced runs.

Stdlib only. Spans are taken on a monotonic clock and kept in memory;
``dump`` writes them out once the run is over. Functions and methods of
the package under test are wrapped from the outside (``patch_function``,
``patch_method``) and ``unpatch`` puts every original back, so no state
is left behind in the package.
"""

from __future__ import annotations

import functools
import itertools
import json
import math
import sys
import threading
import time
from collections import Counter, defaultdict

WRAPPED_MARK = "__perfbench_wrapped__"


class Span:
    __slots__ = ("name", "start", "end", "parent", "trace", "label")

    def __init__(self, name, start, parent, trace, label=None):
        self.name = name
        self.start = start
        self.end = start
        self.parent = parent  # the enclosing Span, or None for a root
        self.trace = trace    # shared by every span under one root
        self.label = label

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """In-memory spans with parent links, plus named counters."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list[Span] = []
        self.counters: Counter = Counter()
        self._local = threading.local()
        self._traces = itertools.count()
        self._patches: list[tuple[object, str, object]] = []

    # -- recording -----------------------------------------------------

    def _open(self, name: str, label=None) -> tuple[Span, list]:
        try:
            stack = self._local.stack
        except AttributeError:
            stack = self._local.stack = []
        if stack:
            parent = stack[-1]
            span = Span(name, self.clock(), parent, parent.trace, label)
        else:
            span = Span(name, self.clock(), None, next(self._traces), label)
        self.spans.append(span)
        stack.append(span)
        return span, stack

    def span(self, name: str, label=None):
        """Context manager for one span; a span opened with no span open
        on this thread is a root and starts a new trace id."""
        return _SpanContext(self, name, label)

    def add(self, counter: str, n: float = 1) -> None:
        self.counters[counter] += n

    def wrap(self, fn, name: str, label=None, after=None):
        """Return ``fn`` wrapped in a span named ``name``.

        ``label(args)`` names the span's instance (for example a policy's
        arm); ``after(tracer, args, kwargs, result)`` updates counters
        from the call's arguments and result.
        """
        tracer = self
        clock = self.clock

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span, stack = tracer._open(name, label(args) if label else None)
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = clock()
                stack.pop()
            if after is not None:
                after(tracer, args, kwargs, result)
            return result

        setattr(wrapper, WRAPPED_MARK, True)
        return wrapper

    # -- patching the package ------------------------------------------

    def patch_function(self, package: str, module: str, attr: str, name: str,
                       label=None, after=None) -> None:
        """Wrap ``module.attr`` and every alias of it that other modules of
        ``package`` imported with ``from module import attr``."""
        original = getattr(sys.modules[module], attr)
        wrapper = self.wrap(original, name, label, after)
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == package or mod_name.startswith(package + ".")):
                continue
            if getattr(mod, attr, None) is original:
                self._patches.append((mod, attr, original))
                setattr(mod, attr, wrapper)

    def patch_method(self, cls: type, attr: str, name: str, label=None, after=None) -> None:
        """Wrap a method defined on ``cls`` itself."""
        original = cls.__dict__[attr]
        self._patches.append((cls, attr, original))
        setattr(cls, attr, self.wrap(original, name, label, after))

    def unpatch(self) -> None:
        """Restore every original, newest patch first."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- output --------------------------------------------------------

    def dump(self, path) -> None:
        """Write spans and counters as one compact JSON document."""
        names: dict[str, int] = {}
        index = {id(s): i for i, s in enumerate(self.spans)}
        rows = []
        t0 = self.spans[0].start if self.spans else 0.0
        for s in self.spans:
            key = s.name if s.label is None else f"{s.name}[{s.label}]"
            rows.append([names.setdefault(key, len(names)),
                         round((s.start - t0) * 1e6, 3), round(s.duration * 1e6, 3),
                         -1 if s.parent is None else index[id(s.parent)], s.trace])
        doc = {"columns": ["name", "start_us", "duration_us", "parent", "trace"],
               "names": list(names), "spans": rows, "counters": dict(self.counters)}
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh, separators=(",", ":"))


class _SpanContext:
    __slots__ = ("tracer", "name", "label", "span", "stack")

    def __init__(self, tracer, name, label):
        self.tracer, self.name, self.label = tracer, name, label

    def __enter__(self):
        self.span, self.stack = self.tracer._open(self.name, self.label)
        return self.span

    def __exit__(self, *exc):
        self.span.end = self.tracer.clock()
        self.stack.pop()
        return False


def is_wrapped(obj) -> bool:
    return getattr(obj, WRAPPED_MARK, False)


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the part of it its children cover.

    Children of one span may overlap (spans from several threads); the
    covered part is the union of their intervals, clipped to the parent.
    """
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for s in spans:
        if s.parent is not None:
            children[id(s.parent)].append((s.start, s.end))
    out = []
    for s in spans:
        covered = 0.0
        cursor = s.start
        for start, end in sorted(children.get(id(s), ())):
            start, end = max(start, cursor), min(end, s.end)
            if end > start:
                covered += end - start
                cursor = end
        out.append(s.duration - covered)
    return out


TAIL_PERCENTILES = (99.99, 99.9, 99.0, 95.0, 90.0, 75.0, 50.0)


def tail_percentile(samples, min_beyond: int = 10):
    """The highest of TAIL_PERCENTILES with at least ``min_beyond`` samples
    above it, by the nearest-rank rule.

    Returns ``(percentile, value, sample_count)``. With too few samples for
    any of them the largest sample is returned as percentile 100.
    """
    ordered = sorted(samples)
    n = len(ordered)
    if n == 0:
        raise ValueError("no samples")
    for p in TAIL_PERCENTILES:
        rank = max(1, math.ceil(p / 100.0 * n))
        if n - rank >= min_beyond:
            return p, ordered[rank - 1], n
    return 100.0, ordered[-1], n


def median(values):
    ordered = sorted(values)
    n = len(ordered)
    if n == 0:
        raise ValueError("no values")
    mid = n // 2
    return ordered[mid] if n % 2 else 0.5 * (ordered[mid - 1] + ordered[mid])
