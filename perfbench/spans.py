"""In-memory spans around the public calls into each layer of the program.

A `Tracer` replaces module attributes (functions, methods, the `splu`
binding a module imported) with wrappers that record a span per call:
name, start, end and the index of the enclosing span.  Nothing is
written while the program runs; `write` dumps the spans at the end.
"""

from __future__ import annotations

import contextlib
import functools
import json
from collections import Counter, defaultdict
from time import perf_counter


class Tracer:
    def __init__(self):
        # [name, start, end, parent index (-1 for a root), measured value]
        self.spans: list[list] = []
        self._open: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    def _enter(self, name: str) -> list:
        span = [name, 0.0, 0.0, self._open[-1] if self._open else -1, None]
        self._open.append(len(self.spans))
        self.spans.append(span)
        span[1] = perf_counter()
        return span

    def _exit(self, span: list):
        span[2] = perf_counter()
        self._open.pop()

    def wrap(self, owner, attr: str, name: str, measure=None):
        """Record a span named `name` around every call of owner.attr.

        `measure(result)` gives a number stored with the span, such as
        the fill of an LU factorization.
        """
        original = getattr(owner, attr)

        @functools.wraps(original)
        def traced(*args, **kwargs):
            span = self._enter(name)
            try:
                result = original(*args, **kwargs)
            finally:
                self._exit(span)
            if measure is not None:
                span[4] = measure(result)
            return result

        setattr(owner, attr, traced)
        self._patches.append((owner, attr, original))

    @contextlib.contextmanager
    def span(self, name: str):
        """Record a span around a block of the benchmark's own code."""
        span = self._enter(name)
        try:
            yield
        finally:
            self._exit(span)

    def _restore_last(self):
        owner, attr, original = self._patches.pop()
        setattr(owner, attr, original)

    def close(self):
        """Put every wrapped attribute back."""
        while self._patches:
            self._restore_last()

    def write(self, path):
        names = sorted({s[0] for s in self.spans})
        code = {n: i for i, n in enumerate(names)}
        with open(path, "w", encoding="utf-8") as f:
            json.dump({"fields": ["name", "start_s", "end_s", "parent",
                                  "value"],
                       "names": names,
                       "spans": [[code[s[0]], s[1], s[2], s[3], s[4]]
                                 for s in self.spans]}, f)


class SpanTree:
    """Self times, counts and ancestry queries over recorded spans."""

    def __init__(self, spans: list[list]):
        self.spans = spans
        child_time = [0.0] * len(spans)
        for s in spans:
            if s[3] >= 0:
                child_time[s[3]] += s[2] - s[1]
        self.self_time = [s[2] - s[1] - c for s, c in zip(spans, child_time)]

    def duration(self, i: int) -> float:
        return self.spans[i][2] - self.spans[i][1]

    def under(self, root: int) -> list[int]:
        """Indices of the spans inside span `root`, in call order."""
        inside, out = {root}, []
        for i in range(root + 1, len(self.spans)):
            if self.spans[i][3] not in inside:
                break
            inside.add(i)
            out.append(i)
        return out

    def counts(self, indices) -> Counter:
        return Counter(self.spans[i][0] for i in indices)

    def totals(self, indices) -> tuple[dict, dict]:
        """(total time, self time) per span name over the given spans."""
        total, own = defaultdict(float), defaultdict(float)
        for i in indices:
            s = self.spans[i]
            total[s[0]] += s[2] - s[1]
            own[s[0]] += self.self_time[i]
        return total, own

    def outermost(self, indices, prefix: str) -> float:
        """Time in spans named prefix* that no such span encloses."""
        t = 0.0
        for i in indices:
            if not self.spans[i][0].startswith(prefix):
                continue
            if self._ancestor(i, lambda name: name.startswith(prefix)) < 0:
                t += self.spans[i][2] - self.spans[i][1]
        return t

    def _ancestor(self, i: int, match) -> int:
        p = self.spans[i][3]
        while p >= 0 and not match(self.spans[p][0]):
            p = self.spans[p][3]
        return p

    def count_below(self, indices, name: str, ancestor: str) -> int:
        """Spans called `name` that have a span called `ancestor` above."""
        return sum(1 for i in indices if self.spans[i][0] == name
                   and self._ancestor(i, lambda n: n == ancestor) >= 0)
