"""In-memory spans, self time, and the percentile rule the benchmark uses.

A span is ``(id, name, start, end, parent, job)``: ``start``/``end`` are
``time.perf_counter`` seconds, ``parent`` is the id of the span that was
open when this one began (``None`` at the top), and ``job`` names the unit
of work the span belongs to (a home, a LAN battle, a stream feed).  Spans
stay in a list until :meth:`Tracer.write` dumps them as JSON lines at the
end of a run.

A span's *self time* is its duration minus the part of its interval that
its child spans cover.  Summing self time by span name splits a traced
run into layers without double counting nested work.
"""

from __future__ import annotations

import json
import math
import time
from collections import defaultdict
from contextlib import contextmanager, nullcontext

#: A percentile is only reported when at least this many samples lie
#: beyond it; below that the tail estimate is one or two outliers.
MIN_TAIL_SAMPLES = 10


def percentile(values, q: float) -> float:
    """The ``q``-th percentile (linear interpolation) of ``values``.

    Refuses, with ``ValueError``, a percentile that has fewer than
    :data:`MIN_TAIL_SAMPLES` samples beyond it, so a "p99" is never read
    off a run too short to have a 99th-percentile tail.
    """
    data = sorted(values)
    n = len(data)
    if not 0.0 <= q <= 100.0:
        raise ValueError(f"percentile {q!r} outside [0, 100]")
    beyond = n * (100.0 - q) / 100.0
    if beyond < MIN_TAIL_SAMPLES:
        raise ValueError(
            f"p{q:g} needs {MIN_TAIL_SAMPLES} samples beyond it; "
            f"{n} samples leave {beyond:.1f}"
        )
    pos = (n - 1) * q / 100.0
    lo = math.floor(pos)
    hi = min(lo + 1, n - 1)
    return data[lo] + (data[hi] - data[lo]) * (pos - lo)


class Tracer:
    """Records spans around calls into the program's layers."""

    record = True

    def __init__(self) -> None:
        self.spans: list[tuple] = []
        self._stack: list[tuple[int, object]] = []  # open (id, job)

    @contextmanager
    def span(self, name: str, job=None):
        """Time the enclosed block as a span named ``name``.

        ``job`` defaults to the enclosing span's job, so only the
        outermost span of a unit of work needs to name it.
        """
        parent, parent_job = self._stack[-1] if self._stack else (None, None)
        if job is None:
            job = parent_job
        sid = len(self.spans)
        self.spans.append(None)  # reserve the id; filled on exit
        self._stack.append((sid, job))
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self.spans[sid] = (sid, name, start, end, parent, job)

    def extend(self, spans) -> None:
        """Append finished spans recorded by another tracer (for example
        in a worker process), renumbering their ids after this one's.

        ``perf_counter`` is system-wide on Linux, so times recorded in
        different processes share one clock.
        """
        offset = len(self.spans)
        for sid, name, start, end, parent, job in spans:
            if parent is not None:
                parent += offset
            self.spans.append((sid + offset, name, start, end, parent, job))

    def self_times(self) -> dict[str, float]:
        """Total self time in seconds per span name."""
        return self_times(self.spans)

    def busy(self, name: str, jobs=None) -> float:
        """Total wall time of spans named ``name`` (children included),
        optionally only those of the jobs in ``jobs``."""
        return sum(
            s[3] - s[2]
            for s in self.spans
            if s[1] == name and (jobs is None or s[5] in jobs)
        )

    def count(self, name: str) -> int:
        return sum(1 for s in self.spans if s[1] == name)

    def durations(self, name: str) -> list[float]:
        return [s[3] - s[2] for s in self.spans if s[1] == name]

    def write(self, path) -> None:
        """Dump every span as one JSON object per line."""
        with open(path, "w") as handle:
            for sid, name, start, end, parent, job in self.spans:
                handle.write(
                    json.dumps(
                        {
                            "id": sid,
                            "name": name,
                            "start": start,
                            "end": end,
                            "parent": parent,
                            "job": job,
                        }
                    )
                    + "\n"
                )


class NullTracer:
    """A tracer whose spans record nothing: the untraced twin of a run,
    timed against the traced one to measure what tracing costs."""

    record = False
    spans = ()

    def span(self, name: str, job=None):
        return nullcontext()

    def extend(self, spans) -> None:
        pass


def _covered(intervals: list[tuple[float, float]], lo: float, hi: float) -> float:
    """Length of the union of ``intervals`` clipped to ``[lo, hi]``."""
    total = 0.0
    cur_lo = cur_hi = None
    for a, b in sorted(intervals):
        a, b = max(a, lo), min(b, hi)
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


def self_times(spans) -> dict[str, float]:
    """Self time per span name from ``(id, name, start, end, parent, job)``."""
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for _sid, _name, start, end, parent, _job in spans:
        if parent is not None:
            children[parent].append((start, end))
    totals: dict[str, float] = defaultdict(float)
    for sid, name, start, end, _parent, _job in spans:
        totals[name] += (end - start) - _covered(children[sid], start, end)
    return dict(totals)
