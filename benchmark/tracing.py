"""In-memory spans and the wrappers that record them.

Every span comes from this benchmark's own code: either around a call it
makes into the library, or from a stand-in object it hands to the library
through a public injection point (the ``mips=``/``lsh=`` engine argument,
the ``LshIndex`` and ``EmbeddedCollection`` objects an ``LshMips`` is built
from, and the ``on_iteration`` callback).  Spans stay in memory and are
written out once, when the run ends.
"""

import json
import time
from contextlib import contextmanager

__all__ = ["Tracer", "TracedEngine", "TracedIndex", "TracedPoints",
           "EXCLUDED_SPANS"]

# Work the traced run adds on top of the workload (the shadow exact answers
# and the standalone build timed on noisy-12k); solver and customer times
# leave these spans out.
EXCLUDED_SPANS = ("shadow.exact_query", "probe.build")


class Tracer:
    """Collects spans as (name, start, end, parent, customer, count) lists.

    ``parent`` is the index of the enclosing span, or -1.  ``count`` is the
    work done inside the span where one exists (bucket size, candidates
    rescored, bytes of a built index), else -1.
    """

    def __init__(self):
        self.spans: list[list] = []
        self.customer = -1
        self.excluded_s = 0.0
        self.comparisons: list[tuple[bool, bool]] = []  # (exact yes, hashed yes)
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str, count: int = -1):
        parent = self._stack[-1] if self._stack else -1
        rec = [name, time.perf_counter(), 0.0, parent, self.customer, count]
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        try:
            yield rec
        finally:
            rec[2] = time.perf_counter()
            self._stack.pop()
            if name in EXCLUDED_SPANS:
                self.excluded_s += rec[2] - rec[1]

    def mark(self, name: str, start: float, end: float, count: int = -1) -> None:
        """Record an already finished interval under the current span."""
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, start, end, parent, self.customer, count])

    def write(self, path) -> None:
        keys = ("name", "start", "end", "parent", "customer", "count")
        with open(path, "w") as fh:
            for rec in self.spans:
                fh.write(json.dumps(dict(zip(keys, rec))) + "\n")


class TracedPoints:
    """Embedded collection whose ``scores_at`` (candidate rescoring) is timed."""

    def __init__(self, points, tracer: Tracer):
        self._points = points
        self._tracer = tracer

    def __len__(self) -> int:
        return len(self._points)

    def __getattr__(self, name):
        return getattr(self._points, name)

    def scores_at(self, q, ids):
        with self._tracer.span("mips.rescore", len(ids)):
            return self._points.scores_at(q, ids)


class TracedIndex:
    """Hash index whose public ``bucket`` lookup is timed and counted."""

    def __init__(self, index, tracer: Tracer):
        self._index = index
        self._tracer = tracer

    def __getattr__(self, name):
        return getattr(self._index, name)

    def bucket(self, table, key):
        with self._tracer.span("mips.bucket") as rec:
            ids = self._index.bucket(table, key)
            rec[5] = int(ids.size)
            return ids


class TracedEngine:
    """Comparison engine for ``assort_mnl(mips=...)`` and
    ``assort_mnl_approx_simple(lsh=...)`` that times each query.

    Each threshold and its yes/no answer are kept in ``answers``, so that a
    shadow exact engine can answer the same thresholds once the solve is
    over.  (Answering them during the solve would evict the index from the
    caches and slow the hashed queries being timed.)
    """

    def __init__(self, inner, tracer: Tracer, name: str, v0: float):
        self._inner = inner
        self._tracer = tracer
        self._name = name
        self._v0 = v0
        self.answers: list[tuple[float, bool]] = []

    @property
    def points(self):
        return self._inner.points

    def query(self, threshold):
        with self._tracer.span(self._name):
            ans = self._inner.query(threshold)
        self.answers.append(
            (threshold, ans is not None and threshold <= ans[1] / self._v0))
        return ans

    def shadow(self, exact) -> None:
        """Answer every threshold seen so far with the ``exact`` engine and
        record (exact yes, this engine's yes) pairs on the tracer."""
        with self._tracer.span("shadow.exact_query"):
            for threshold, yes in self.answers:
                score = exact.query(threshold)[1]
                self._tracer.comparisons.append((threshold <= score / self._v0, yes))
