"""Span recording around the library's public functions, from outside.

``Tracer.patched()`` swaps the public functions for recording wrappers in
the modules that look them up (the benchmark itself, ``grad_amc``'s own
``forward`` and ``VARIANTS``, and ``learning``'s ``grad_amc``), so spans
nest learning → grad_amc → forward/backward. Spans stay in memory until
``write``.
"""

from __future__ import annotations

import contextlib
import json
import time

from amckit import backprop, circuits, learning
from amckit.semirings import Semiring


def _semiring_at(i):
    return lambda args: args[i].name


# (module, attribute, span name, tag from the positional args)
_TARGETS = (
    (circuits, "parse_d4", "circuits.parse", None),
    (circuits, "smooth", "circuits.smooth", None),
    (backprop, "structural_gate", "backprop.gate", _semiring_at(1)),
    (learning, "structural_gate", "backprop.gate", _semiring_at(1)),
    (backprop, "forward", "backprop.forward", _semiring_at(2)),
    (backprop, "grad_amc", "backprop.grad_amc", _semiring_at(2)),
    (learning, "grad_amc", "backprop.grad_amc", _semiring_at(2)),
    (learning, "em_conditionals", "learning.em", None),
    (learning, "conditional_entropy", "learning.entropy", None),
    (learning, "indecater_estimate", "learning.indecater", None),
)


class Tracer:
    """In-memory spans: (name, tag, start, end, parent index or -1)."""

    def __init__(self):
        self.spans = []
        self._open = []

    def wrap(self, fn, name, tag_of=None):
        spans, stack = self.spans, self._open

        def traced(*args, **kwargs):
            sid = len(spans)
            spans.append([name, tag_of(args) if tag_of else "",
                          time.perf_counter(), None,
                          stack[-1] if stack else -1])
            stack.append(sid)
            try:
                return fn(*args, **kwargs)
            finally:
                stack.pop()
                spans[sid][3] = time.perf_counter()

        return traced

    @contextlib.contextmanager
    def patched(self):
        saved = [(mod, attr, getattr(mod, attr)) for mod, attr, _, _ in _TARGETS]
        saved_variants = dict(backprop.VARIANTS)
        try:
            for (mod, attr, name, tag_of), (_, _, fn) in zip(_TARGETS, saved):
                setattr(mod, attr, self.wrap(fn, name, tag_of))
            for algo, fn in saved_variants.items():
                backprop.VARIANTS[algo] = self.wrap(
                    fn, f"backprop.backward_{algo}", _semiring_at(2))
            yield self
        finally:
            for mod, attr, fn in saved:
                setattr(mod, attr, fn)
            backprop.VARIANTS.update(saved_variants)

    def durations(self, name, tag=None):
        """Durations in seconds of the closed spans with this name (and tag)."""
        return [s[3] - s[2] for s in self.spans
                if s[0] == name and (tag is None or s[1] == tag)
                and s[3] is not None]

    def self_times(self):
        """Per span: duration minus the time covered by its direct children."""
        out = [s[3] - s[2] for s in self.spans]
        for s in self.spans:
            if s[4] >= 0:
                out[s[4]] -= s[3] - s[2]
        return out

    def child_time(self, name, child):
        """Per span called ``name``: time inside its direct ``child`` spans."""
        index = {i: 0.0 for i, s in enumerate(self.spans) if s[0] == name}
        for s in self.spans:
            if s[0] == child and s[4] in index:
                index[s[4]] += s[3] - s[2]
        return [index[i] for i in sorted(index)]

    def write(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            for i, (name, tag, start, end, parent) in enumerate(self.spans):
                fh.write(json.dumps({"id": i, "name": name, "tag": tag,
                                     "start": start, "end": end,
                                     "parent": parent}) + "\n")


class CountingSemiring(Semiring):
    """Forwards to a base semiring and counts every element operation."""

    def __init__(self, base):
        self.base = base
        self.name = base.name
        self.additively_idempotent = base.additively_idempotent
        self.supports_division = base.supports_division
        self.fully_ordered_mul = base.fully_ordered_mul
        self.supports_negation = base.supports_negation
        self.zero, self.one = base.zero, base.one
        self.counts = {"add": 0, "mul": 0, "divide": 0, "order": 0}

    def add(self, a, b):
        self.counts["add"] += 1
        return self.base.add(a, b)

    def mul(self, a, b):
        self.counts["mul"] += 1
        return self.base.mul(a, b)

    def try_divide(self, a, c):
        self.counts["divide"] += 1
        return self.base.try_divide(a, c)

    def is_ordered_mul(self, a, b):
        self.counts["order"] += 1
        return self.base.is_ordered_mul(a, b)
