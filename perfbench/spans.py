"""In-memory spans recorded around calls into the skelgest layers.

A span has a name, a start and an end (perf_counter seconds), the span
that was open when it started, and a group id shared by every span of one
pass or of the check. Counts are recorded per group beside the spans.
Nothing is written while the benchmark measures; spans stay in memory.
"""

import itertools
import time
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass


@dataclass
class Span:
    id: int
    name: str
    start: float
    end: float
    parent: int | None
    group: str


class NullRecorder:
    """The untraced recorder: every span and count is a no-op."""

    tracing = False

    def span(self, name):
        return nullcontext()

    def count(self, name, value):
        pass


class Recorder:
    """Keeps spans and counts of the traced run."""

    tracing = True

    def __init__(self):
        self.spans = []
        self.counts = {}  # (group, name) -> value
        self.group = "setup"
        self._stack = []
        self._ids = itertools.count()

    @contextmanager
    def span(self, name):
        parent = self._stack[-1] if self._stack else None
        sid = next(self._ids)  # spans are appended when they end, so not len(self.spans)
        self._stack.append(sid)
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self.spans.append(Span(sid, name, start, end, parent, self.group))

    def count(self, name, value):
        key = (self.group, name)
        self.counts[key] = self.counts.get(key, 0) + value


def self_times(spans):
    """Span id -> duration minus the durations of its child spans."""
    out = {s.id: s.end - s.start for s in spans}
    for s in spans:
        if s.parent is not None:
            out[s.parent] -= s.end - s.start
    return out


def per_group_totals(spans, counts, layer_names):
    """{metric: {group: value}}.

    A span named in layer_names adds its duration to the metric of that
    name; any other span (a pass or an experiment) adds its self time to
    `glue.self_s`, the benchmark-side time between layer calls. Counts are
    taken as recorded.
    """
    totals = {}
    selfs = self_times(spans)
    for s in spans:
        if s.name in layer_names:
            key, value = s.name, s.end - s.start
        else:
            key, value = "glue.self_s", selfs[s.id]
        by_group = totals.setdefault(key, {})
        by_group[s.group] = by_group.get(s.group, 0.0) + value
    for (group, name), value in counts.items():
        totals.setdefault(name, {})[group] = value
    return totals
