"""Span tracing of mfcontrol from outside the package.

The tracer replaces a function on the name its caller looks up (a module
global such as ``nag.simulate``, a class attribute such as
``MeasureKernel.mean_contract`` or a callback field of an ``MfcProblem``
instance) by a wrapper that records one span per call.  Spans are kept in
memory; self time is a span's duration minus the time of the traced calls
nested inside it.  Counters run after a span has closed, and their time is
booked to ``bookkeeping_s`` rather than to the enclosing span.
"""

from __future__ import annotations

import functools
import json
from collections import defaultdict
from time import perf_counter


class LayerStats:
    __slots__ = ("calls", "self_s")

    def __init__(self):
        self.calls = 0
        self.self_s = 0.0


class Tracer:
    def __init__(self):
        self.stats = defaultdict(LayerStats)
        self.counts = defaultdict(float)
        self.spans = []  # (span id, parent id or -1, name, start, end)
        self.bookkeeping_s = 0.0
        self._stack = []  # [span id, time of traced children]
        self._next_id = 0
        self._installed = []

    def wrap(self, name, fn, count=None):
        """Return fn wrapped in a span named `name`.

        `count(counts, result, *args, **kwargs)` runs after the call and may
        add to the shared counter dict.
        """
        stack = self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span_id = self._next_id
            self._next_id += 1
            parent = stack[-1][0] if stack else -1
            frame = [span_id, 0.0]
            stack.append(frame)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                dur = end - start
                st = self.stats[name]
                st.calls += 1
                st.self_s += dur - frame[1]
                self.spans.append((span_id, parent, name, start, end))
                if stack:
                    stack[-1][1] += dur
            if count is not None:
                c0 = perf_counter()
                count(self.counts, result, *args, **kwargs)
                spent = perf_counter() - c0
                self.bookkeeping_s += spent
                if stack:
                    stack[-1][1] += spent
            return result

        return traced

    def install(self, owner, attr, name, count=None):
        """Replace owner.attr by its traced wrapper until restore()."""
        self.patch(owner, attr, self.wrap(name, _raw_attr(owner, attr), count))

    def patch(self, owner, attr, replacement):
        """Set owner.attr to replacement until restore()."""
        self._installed.append((owner, attr, _raw_attr(owner, attr)))
        setattr(owner, attr, replacement)

    def restore(self):
        while self._installed:
            owner, attr, original = self._installed.pop()
            setattr(owner, attr, original)

    def self_s(self, name):
        return self.stats[name].self_s if name in self.stats else 0.0

    def calls(self, name):
        return self.stats[name].calls if name in self.stats else 0

    def write_spans(self, path):
        """Write every span as one JSON line: id, parent, name, start, end."""
        t0 = min((s[3] for s in self.spans), default=0.0)
        with open(path, "w") as fh:
            for span_id, parent, name, start, end in sorted(self.spans):
                fh.write(json.dumps([span_id, parent, name, start - t0, end - t0]))
                fh.write("\n")


def _raw_attr(owner, attr):
    # a class attribute is read from __dict__, so a plain function stays a
    # function and still binds as a method once wrapped
    return owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
