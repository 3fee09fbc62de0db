"""In-memory spans and counts around the calls the benchmark makes.

A traced run records one span per call into a layer: its name, start,
end, parent span and op id.  Spans stay in memory and are written out
once, at the end of the run.  A layer's self time is its span's
duration minus the time its child spans cover.

Untraced runs use :data:`NULL`, whose ``span`` is a shared
``nullcontext``, so the end-to-end numbers are taken with no recording
at all.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager, nullcontext

#: Op id of spans recorded while the workload sets up.
SETUP = -1


class Span:
    __slots__ = ("name", "start", "end", "parent", "op")

    def __init__(self, name, start, parent, op):
        self.name = name
        self.start = start
        self.end = None
        self.parent = parent
        self.op = op


class Tracer:
    """Records spans and exact counts; ``op`` tags everything recorded."""

    enabled = True

    def __init__(self):
        self.spans = []
        self.counts = []  # (op, name, value)
        self.labels = {SETUP: "setup"}
        self.op = SETUP
        self._stack = []

    def begin_op(self, op, label):
        self.op = op
        self.labels[op] = label

    @contextmanager
    def setup_op(self, label):
        """Tag a warm-up op of the set-up with its own (negative) op id."""
        self.begin_op(min(self.labels) - 1, label)
        try:
            yield
        finally:
            self.op = SETUP

    def setup_ops(self):
        """Op ids recorded during set-up: ``SETUP`` and every warm-up op."""
        return [op for op in self.labels if op < 0]

    @contextmanager
    def span(self, name):
        parent = self._stack[-1] if self._stack else None
        index = len(self.spans)
        record = Span(name, time.perf_counter(), parent, self.op)
        self.spans.append(record)
        self._stack.append(index)
        try:
            yield record
        finally:
            record.end = time.perf_counter()
            self._stack.pop()

    def count(self, name, value):
        self.counts.append((self.op, name, value))

    @contextmanager
    def patched(self, owner, attr, name, on_result=None):
        """Wrap ``owner.attr`` so each call records a span (and counts).

        Used for calls a public function makes into another layer, which
        the benchmark cannot surround from outside.  The original is
        restored on exit, so untraced ops run the unwrapped code.
        """
        original = getattr(owner, attr)

        def traced(*args, **kwargs):
            with self.span(name):
                result = original(*args, **kwargs)
            if on_result is not None:
                on_result(self, result)
            return result

        setattr(owner, attr, traced)
        try:
            yield
        finally:
            setattr(owner, attr, original)

    def self_times(self):
        """``{(op, name): seconds}`` of self time, summed per op and layer."""
        covered = [0.0] * len(self.spans)
        for record in self.spans:
            if record.parent is not None:
                covered[record.parent] += record.end - record.start
        totals = {}
        for record, child in zip(self.spans, covered):
            key = (record.op, record.name)
            totals[key] = totals.get(key, 0.0) + (record.end - record.start) - child
        return totals

    def count_totals(self):
        """``{(op, name): value}`` of counts, summed per op."""
        totals = {}
        for op, name, value in self.counts:
            totals[(op, name)] = totals.get((op, name), 0) + value
        return totals

    def dump(self, path, header):
        """Write ``header`` then one JSON line per span and per count."""
        with open(path, "w") as out:
            out.write(json.dumps(header) + "\n")
            for record in self.spans:
                out.write(json.dumps({
                    "span": record.name,
                    "start": record.start,
                    "end": record.end,
                    "parent": record.parent,
                    "op": record.op,
                }) + "\n")
            for op, name, value in self.counts:
                out.write(json.dumps({"count": name, "value": value, "op": op}) + "\n")


class _NullTracer:
    """The untraced stand-in: records nothing."""

    enabled = False
    _null = nullcontext()

    def begin_op(self, op, label):
        pass

    def setup_op(self, label):
        return self._null

    def span(self, name):
        return self._null

    def count(self, name, value):
        pass

    def patched(self, owner, attr, name, on_result=None):
        return self._null


NULL = _NullTracer()
