"""Spans, counters and wall-clock attribution for the traced benchmark run.

The benchmark measures the program from outside: in traced mode it
wraps functions of the program's layers (``layers.install``), every
wrapped call records a span, and spans are reduced to per-layer
*self-time* segments -- the stretches during which a span was the
innermost open one on its lane.

A **lane** is one thread of control.  By default that is one thread of
one process (a pool worker, a benchmark client thread).  A server
handler thread adopts the lane of the client whose request it serves
(the lane id travels in the ``X-Perfbench-Lane`` header), so the
server-side spans of a request nest inside the client's round-trip
span and ``server.transport`` keeps only what the server's layers do
not account for.

**Attribution** (``attribute``) divides every instant of the traced
window equally among the lanes that have an open span at that instant,
and within a lane gives it to the innermost span.  The per-layer
seconds therefore sum, together with ``unattributed_s`` (instants with
no open span anywhere), exactly to the window's wall clock, also when
pool workers and server threads run in parallel.

Spans recorded in forked pool workers and in the server process reach
the report through per-process files in the trace directory
(``Tracer.dump``); the parent merges them with its own (``collect``).
All processes share ``time.perf_counter`` (CLOCK_MONOTONIC on Linux),
so their segments lie on one time axis.
"""

from __future__ import annotations

import functools
import json
import os
import threading
from collections import Counter, defaultdict
from pathlib import Path
from time import perf_counter

#: Header carrying the client's lane id into the server.
LANE_HEADER = "X-Perfbench-Lane"

#: Depth offset for spans a server thread records on a client's lane:
#: they are always inner to the client's round-trip span.
REMOTE_DEPTH = 100


class Tracer:
    """Per-process span recorder; forked children start empty."""

    def __init__(self, directory: str | Path) -> None:
        self.directory = Path(directory)
        self._segments: list[tuple[str, str, float, float, int]] = []
        self._counters: Counter = Counter()
        self._lock = threading.Lock()
        self._local = threading.local()
        self._dumps = 0
        os.register_at_fork(after_in_child=self._after_fork)

    def _after_fork(self) -> None:
        # The parent's spans and open stacks are the parent's to report.
        self._segments = []
        self._counters = Counter()
        self._lock = threading.Lock()
        self._local = threading.local()
        self._dumps = 0

    # -- lanes ---------------------------------------------------------------
    def _frames(self) -> list:
        frames = getattr(self._local, "frames", None)
        if frames is None:
            frames = self._local.frames = []
        return frames

    def _lane(self) -> tuple[str, int]:
        lane = getattr(self._local, "lane", None)
        if lane is None:
            return f"{os.getpid()}:{threading.get_ident()}", 0
        return lane

    def adopt_lane(self, lane: str | None) -> None:
        """Record this thread's next spans on ``lane`` (``None``: own lane)."""
        self._local.lane = None if lane is None else (lane, REMOTE_DEPTH)

    def lane_id(self) -> str:
        """This thread's lane id, to hand to a server in a request header."""
        return self._lane()[0]

    # -- spans and counters --------------------------------------------------
    def enter(self, label: str) -> None:
        now = perf_counter()
        frames = self._frames()
        if frames:
            parent = frames[-1]
            self._emit(parent[0], parent[1], now, len(frames) - 1)
        frames.append([label, now])

    def exit(self) -> None:
        """Close the innermost span; its parent's self time resumes."""
        now = perf_counter()
        frames = self._frames()
        label, start = frames.pop()
        self._emit(label, start, now, len(frames))
        if frames:
            frames[-1][1] = now

    def _emit(self, label: str, start: float, end: float, depth: int) -> None:
        if end > start:
            lane, offset = self._lane()
            self._segments.append((lane, label, start, end, depth + offset))

    def count(self, name: str, amount: float = 1) -> None:
        with self._lock:
            self._counters[name] += amount

    # -- persistence ---------------------------------------------------------
    def snapshot(self) -> dict:
        with self._lock:
            return {
                "segments": list(self._segments),
                "counters": dict(self._counters),
            }

    def dump(self) -> None:
        """Write this process's spans so far to a new file, then forget them."""
        with self._lock:
            payload = {
                "segments": self._segments,
                "counters": dict(self._counters),
            }
            self._segments = []
            self._counters = Counter()
            self._dumps += 1
            name = f"trace-{os.getpid()}-{self._dumps}.json"
        self.directory.mkdir(parents=True, exist_ok=True)
        # Write then rename: a process killed mid-dump leaves no torn file.
        partial = self.directory / f"{name}.partial"
        partial.write_text(json.dumps(payload))
        os.replace(partial, self.directory / name)


def span(tracer: Tracer, label: str, function, *, measure=None):
    """Wrap ``function`` so each call records a ``label`` span.

    ``measure(args, kwargs, result)`` returns ``{counter: amount}`` to add
    after the call.
    """

    @functools.wraps(function)
    def wrapper(*args, **kwargs):
        tracer.enter(label)
        try:
            result = function(*args, **kwargs)
        finally:
            tracer.exit()
        if measure is not None:
            for name, amount in measure(args, kwargs, result).items():
                tracer.count(name, amount)
        return result

    return wrapper


def collect(tracer: Tracer) -> dict:
    """Merge this process's spans with every dumped file in its directory."""
    merged = tracer.snapshot()
    segments = [tuple(segment) for segment in merged["segments"]]
    counters: Counter = Counter(merged["counters"])
    if tracer.directory.is_dir():
        for path in sorted(tracer.directory.glob("trace-*.json")):
            payload = json.loads(path.read_text())
            segments.extend(tuple(segment) for segment in payload["segments"])
            counters.update(payload["counters"])
    return {"segments": segments, "counters": dict(counters)}


def _lane_pieces(segments: list, start: float, end: float) -> list:
    """Per lane, the innermost open label over time: ``(t0, t1, label)``."""
    by_lane: dict[str, list] = defaultdict(list)
    for lane, label, t0, t1, depth in segments:
        t0, t1 = max(t0, start), min(t1, end)
        if t1 > t0:
            by_lane[lane].append((t0, t1, depth, label))
    pieces: list[tuple[float, float, str]] = []
    for lane_segments in by_lane.values():
        events = []
        for t0, t1, depth, label in lane_segments:
            events.append((t0, 1, depth, label))
            events.append((t1, -1, depth, label))
        events.sort(key=lambda event: (event[0], event[1]))
        active: Counter = Counter()
        previous = None
        for time, kind, depth, label in events:
            if previous is not None and time > previous and active:
                top = max(active)[1]
                pieces.append((previous, time, top))
            active[(depth, label)] += kind
            if active[(depth, label)] == 0:
                del active[(depth, label)]
            previous = time
    return pieces


def attribute(segments: list, start: float, end: float) -> dict[str, float]:
    """Seconds of the window ``[start, end]`` per label, plus ``None``.

    Each instant is split equally among the lanes with an open span;
    the ``None`` entry holds the instants no lane covers, so the values
    sum to ``end - start``.
    """
    events = []
    for t0, t1, label in _lane_pieces(segments, start, end):
        events.append((t0, 1, label))
        events.append((t1, -1, label))
    events.sort(key=lambda event: (event[0], event[1]))
    shares: dict = defaultdict(float)
    active: Counter = Counter()
    lanes = 0
    previous = start
    for time, kind, label in events:
        if time > previous:
            span_seconds = time - previous
            if lanes:
                for open_label, open_count in active.items():
                    shares[open_label] += span_seconds * open_count / lanes
            else:
                shares[None] += span_seconds
            previous = time
        active[label] += kind
        lanes += kind
        if active[label] == 0:
            del active[label]
    shares[None] += end - previous
    return dict(shares)
