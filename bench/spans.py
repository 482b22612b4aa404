"""Outside-in spans and counters for the benchmark's traced runs.

A ``Tracer`` wraps functions from outside the program.  Each call of a
wrapped function records one span: name, start, end (``perf_counter_ns``),
the span that was open when it started, and the op id the harness set.
Spans are kept in flat arrays in memory and only reduced when the caller
asks for ``summary()``.  Counters and maxima ride along through optional
observers.  Nothing here knows about sclab; ``probes.py`` says what to wrap.
"""

from __future__ import annotations

import functools
from array import array
from time import perf_counter_ns


class Tracer:
    def __init__(self) -> None:
        self.span_names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name_id = array("i")
        self.start = array("q")
        self.end = array("q")
        self.parent = array("i")
        self.op = array("i")
        self.current_op = -1
        self.counters: dict[str, int] = {}
        self.maxima: dict[str, int] = {}
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    # -- counters -----------------------------------------------------------

    def count(self, name: str, amount: int = 1) -> None:
        self.counters[name] = self.counters.get(name, 0) + amount

    def maximum(self, name: str, value: int) -> None:
        if value > self.maxima.get(name, 0):
            self.maxima[name] = value

    # -- spans --------------------------------------------------------------

    def _intern(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.span_names)
            self.span_names.append(name)
        return self._name_ids[name]

    def wrap(self, fn, span_name: str, observe=None):
        """A wrapper of ``fn`` that records a span per call.  ``observe``,
        if given, is called as ``observe(tracer, args, kwargs, result)``
        after a call that returned."""
        nid = self._intern(span_name)
        name_id, start, end, parent, op = (
            self.name_id, self.start, self.end, self.parent, self.op,
        )
        stack = self._stack
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(start)
            name_id.append(nid)
            parent.append(stack[-1] if stack else -1)
            op.append(tracer.current_op)
            end.append(0)
            stack.append(idx)
            start.append(perf_counter_ns())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[idx] = perf_counter_ns()
                stack.pop()
            if observe is not None:
                observe(tracer, args, kwargs, result)
            return result

        return traced

    def patch(self, original, span_name: str, namespaces, observe=None) -> int:
        """Replace every binding of ``original`` in ``namespaces`` (modules
        or classes) with one traced wrapper.  Aliases such as
        ``__rmul__ = __mul__`` are bindings too.  Returns how many bindings
        were replaced."""
        wrapped = self.wrap(original, span_name, observe)
        replaced = 0
        for ns in namespaces:
            for attr, value in list(vars(ns).items()):
                if value is original:
                    self._patches.append((ns, attr, original))
                    setattr(ns, attr, wrapped)
                    replaced += 1
        return replaced

    def restore(self) -> None:
        for ns, attr, original in reversed(self._patches):
            setattr(ns, attr, original)
        self._patches.clear()

    # -- reduction ----------------------------------------------------------

    def summary(self) -> dict[str, dict[str, int]]:
        """Per span name: ``calls``, ``self_ns`` (duration minus the
        durations of direct child spans) and ``incl_ns`` (duration of the
        spans that have no ancestor of the same name, so recursion is not
        counted twice)."""
        return summarize(self.span_names, self.name_id, self.start, self.end, self.parent)


def summarize(span_names, name_id, start, end, parent) -> dict[str, dict[str, int]]:
    n = len(start)
    duration = [end[i] - start[i] for i in range(n)]
    child_ns = [0] * n
    for i in range(n):
        if parent[i] >= 0:
            child_ns[parent[i]] += duration[i]
    out = {name: {"calls": 0, "self_ns": 0, "incl_ns": 0} for name in span_names}
    for i in range(n):
        nid = name_id[i]
        row = out[span_names[nid]]
        row["calls"] += 1
        row["self_ns"] += duration[i] - child_ns[i]
        up = parent[i]
        while up >= 0 and name_id[up] != nid:
            up = parent[up]
        if up < 0:
            row["incl_ns"] += duration[i]
    return out
