"""In-memory span recording and self-time accounting for traced runs.

A span is one timed call into a layer: its name, start and end from
``time.perf_counter_ns`` (CLOCK_MONOTONIC on Linux, which every process
on one host shares, so spans from forked workers line up with the
coordinator's without any clock-offset estimate), the span that was open
on the same thread when it began (its parent), a context id (iteration
or query id) and the process that recorded it.

Spans are kept in memory while the run measures. Worker processes write
theirs to one JSON file each when they exit; the coordinator reads them
back after closing the pool. Nothing here imports the program under
test.
"""

from __future__ import annotations

import json
import os
import threading
import time
from dataclasses import asdict, dataclass
from pathlib import Path

__all__ = ["Span", "SpanRecorder", "self_times", "union_length", "process_recorder"]


@dataclass
class Span:
    name: str
    start_ns: int
    end_ns: int
    parent: int | None = None  # index into the same recorder's span list
    ctx: int | None = None  # iteration id or query id
    pid: int = 0
    rows: int = 0  # work items the call handled (rows, queries), when known

    @property
    def duration_ns(self) -> int:
        return self.end_ns - self.start_ns


class SpanRecorder:
    """Thread-safe span list with a per-thread stack of open spans."""

    def __init__(self):
        self.spans: list[Span] = []
        self._lock = threading.Lock()
        self._local = threading.local()

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def open(self, name: str, *, ctx: int | None = None, rows: int = 0) -> int:
        stack = self._stack()
        span = Span(
            name=name,
            start_ns=time.perf_counter_ns(),
            end_ns=-1,
            parent=stack[-1] if stack else None,
            ctx=ctx,
            pid=os.getpid(),
            rows=rows,
        )
        with self._lock:
            self.spans.append(span)
            idx = len(self.spans) - 1
        stack.append(idx)
        return idx

    def close(self, idx: int) -> None:
        self.spans[idx].end_ns = time.perf_counter_ns()
        stack = self._stack()
        if stack and stack[-1] == idx:
            stack.pop()
        elif idx in stack:
            stack.remove(idx)

    def call(self, name: str, fn, *args, ctx: int | None = None, rows: int = 0,
             **kwargs):
        """Run ``fn(*args, **kwargs)`` inside a span named ``name``."""
        idx = self.open(name, ctx=ctx, rows=rows)
        try:
            return fn(*args, **kwargs)
        finally:
            self.close(idx)

    def dump(self, path: Path) -> None:
        path.write_text(json.dumps([asdict(s) for s in self.spans]))

    @staticmethod
    def load(path: Path) -> list[Span]:
        return [Span(**d) for d in json.loads(path.read_text())]


def union_length(intervals) -> int:
    """Total length covered by a set of possibly overlapping intervals."""
    total = 0
    cur_lo = cur_hi = None
    for lo, hi in sorted(intervals):
        if cur_hi is None or lo > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = lo, hi
        else:
            cur_hi = max(cur_hi, hi)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def self_times(spans: list[Span], children: dict[int, list[int]] | None = None) -> list[int]:
    """Self time (ns) of every span: its duration minus the part of its
    interval that its children cover.

    Children may nest or overlap each other (two workers under one
    iteration, two shard scans under one search); the covered part is
    the union of their intervals, clipped to the parent's. ``children``
    maps a span index to its child indices; by default it is built from
    each span's ``parent``.
    """
    if children is None:
        children = {}
        for i, s in enumerate(spans):
            if s.parent is not None:
                children.setdefault(s.parent, []).append(i)
    out = []
    for i, s in enumerate(spans):
        kids = children.get(i, ())
        covered = union_length(
            (max(spans[c].start_ns, s.start_ns), min(spans[c].end_ns, s.end_ns))
            for c in kids
            if spans[c].end_ns > s.start_ns and spans[c].start_ns < s.end_ns
        )
        out.append(s.duration_ns - covered)
    return out


# One recorder per process, for code that runs inside forked pool workers
# (a pickled adapter wrapper cannot carry a live recorder across the
# pipe). Keyed by pid, so a forked child never inherits its parent's
# spans.
_PROCESS: tuple[int, SpanRecorder] | None = None


def process_recorder(sink_dir: str | None = None) -> SpanRecorder:
    """This process's recorder; with ``sink_dir``, its spans are written
    to ``<sink_dir>/spans-<pid>.json`` when the process exits."""
    global _PROCESS
    pid = os.getpid()
    if _PROCESS is None or _PROCESS[0] != pid:
        recorder = SpanRecorder()
        _PROCESS = (pid, recorder)
        if sink_dir is not None:
            # Pool workers leave through multiprocessing's bootstrap,
            # which runs registered finalizers but not ``atexit``.
            from multiprocessing import util

            path = Path(sink_dir) / f"spans-{pid}.json"
            util.Finalize(None, recorder.dump, args=(path,), exitpriority=10)
    return _PROCESS[1]
