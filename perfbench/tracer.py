"""In-memory spans around calls into epicore's layers.

A span is (name, start, end, parent, op): `parent` is the index of the
enclosing span (-1 at top level) and `op` the id of the benchmark op it
belongs to.  Spans stay in memory while the workload runs and are written
as JSON lines afterwards.  A span's self time is its duration minus the
durations of its direct children; calls are single-threaded and strictly
nested, so the children never overlap.

The tracer wraps callables from the outside: either at the benchmark's own
call sites (`call`) or by rebinding a name in the module that calls it
(`patch`), so that a recursive function is timed once per top-level call
and no source file of the package changes.
"""

from __future__ import annotations

import json
from collections import Counter
from time import perf_counter


class NullTracer:
    """Tracing switched off: calls go straight through."""

    def call(self, name, fn, *args, **kwargs):
        return fn(*args, **kwargs)

    def begin_op(self):
        pass


class Tracer:
    """Spans of calls and counters, kept in memory until written out."""

    def __init__(self):
        self.spans: list = []
        self.counts: Counter = Counter()
        self._stack: list = []
        self._op = 0
        self._restore: list = []

    def begin_op(self):
        self._op += 1

    def _open(self, name):
        parent = self._stack[-1] if self._stack else -1
        rec = [name, 0.0, 0.0, parent, self._op]
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        rec[1] = perf_counter()
        return rec

    def _close(self, rec):
        rec[2] = perf_counter()
        self._stack.pop()

    def call(self, name, fn, *args, **kwargs):
        rec = self._open(name)
        try:
            return fn(*args, **kwargs)
        finally:
            self._close(rec)

    def wrap(self, name, fn, after=None):
        """A stand-in for `fn` that records one span per call.  `after`
        runs on the result outside the span, under a `trace.bookkeeping`
        span of its own, so its cost is not charged to the layer."""
        tracer = self

        def traced(*args, **kwargs):
            rec = tracer._open(name)
            try:
                out = fn(*args, **kwargs)
            finally:
                tracer._close(rec)
            if after is not None:
                book = tracer._open("trace.bookkeeping")
                try:
                    after(out, args, kwargs)
                finally:
                    tracer._close(book)
            return out

        return traced

    def patch(self, owner, attr, name, after=None):
        """Rebind `owner.attr` to a traced stand-in; `restore` undoes it."""
        original = getattr(owner, attr)
        self._restore.append((owner, attr, original))
        setattr(owner, attr, self.wrap(name, original, after))

    def count(self, owner, attr, key, hit):
        """Rebind `owner.attr` to count calls under `key`, and calls whose
        result satisfies `hit` under `key + '.hits'`; no span."""
        original = getattr(owner, attr)
        self._restore.append((owner, attr, original))
        counts = self.counts
        hits_key = key + ".hits"

        def counted(*args, **kwargs):
            out = original(*args, **kwargs)
            counts[key] += 1
            if hit(out):
                counts[hits_key] += 1
            return out

        setattr(owner, attr, counted)

    def restore(self):
        while self._restore:
            owner, attr, original = self._restore.pop()
            setattr(owner, attr, original)

    def layer_totals(self) -> dict:
        """name -> [calls, self seconds]."""
        spans = self.spans
        child_time = [0.0] * len(spans)
        for name, start, end, parent, _ in spans:
            if parent >= 0:
                child_time[parent] += end - start
        out: dict = {}
        for k, (name, start, end, _, _) in enumerate(spans):
            row = out.setdefault(name, [0, 0.0])
            row[0] += 1
            row[1] += end - start - child_time[k]
        return out

    def write_jsonl(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for name, start, end, parent, op in self.spans:
                fh.write(json.dumps({"name": name, "start": start, "end": end,
                                     "parent": parent, "op": op}))
                fh.write("\n")
