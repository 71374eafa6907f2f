"""In-memory span recorder, self-time arithmetic and the tail percentile
the benchmark reports.

A span is (name, start, end, parent index). Spans are recorded by wrapping a
layer's public function at the attribute its caller looks it up through, so
nothing inside the program changes. The process is single-threaded, so spans
nest strictly and a span's self time is its duration minus the durations of
its direct children.
"""

from __future__ import annotations

import functools
import json
import math
import time
from collections import defaultdict
from typing import Callable, Sequence

# The tail is the highest percentile with this many samples beyond it.
TAIL_MIN_BEYOND = 10


class Recorder:
    """Collects spans and per-layer counters in memory until the run ends."""

    def __init__(self):
        self.names: list[str] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.parents: list[int] = []
        self.failed: dict[str, int] = defaultdict(int)
        self.counters: dict[str, float] = defaultdict(float)
        self._stack: list[int] = []
        self._opaque = 0

    def wrap(self, name: str, fn: Callable, on_call: Callable | None = None,
             opaque: bool = False) -> Callable:
        """Return fn wrapped so each call records a span named `name`.

        The wrapper returns fn's result object unchanged and re-raises its
        exceptions (counted in `failed`). `on_call(counters, args, kwargs,
        result)` may add work counts. An opaque layer hides the wrapped calls
        made inside it, so its self time covers its whole duration.
        """
        rec = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if rec._opaque:
                return fn(*args, **kwargs)
            index = len(rec.names)
            rec.names.append(name)
            rec.parents.append(rec._stack[-1] if rec._stack else -1)
            rec.ends.append(0.0)
            rec._stack.append(index)
            rec._opaque += opaque
            rec.starts.append(time.perf_counter())
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                rec.failed[name] += 1
                raise
            finally:
                rec.ends[index] = time.perf_counter()
                rec._opaque -= opaque
                rec._stack.pop()
            if on_call is not None:
                on_call(rec.counters, args, kwargs, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def self_times(self) -> list[float]:
        """Per-span duration minus the durations of its direct children."""
        own = [e - s for s, e in zip(self.starts, self.ends)]
        for i, parent in enumerate(self.parents):
            if parent >= 0:
                own[parent] -= self.ends[i] - self.starts[i]
        return own

    def by_name(self) -> dict[str, dict[str, float]]:
        """{name: {"calls", "self_s", "total_s", "failed"}} over all spans."""
        out: dict[str, dict[str, float]] = {}
        for name, own, s, e in zip(self.names, self.self_times(),
                                   self.starts, self.ends):
            row = out.setdefault(name, {"calls": 0, "self_s": 0.0,
                                        "total_s": 0.0, "failed": 0})
            row["calls"] += 1
            row["self_s"] += own
            row["total_s"] += e - s
        for name, n in self.failed.items():
            out.setdefault(name, {"calls": 0, "self_s": 0.0, "total_s": 0.0,
                                  "failed": 0})["failed"] = n
        return out

    def dump(self, path) -> None:
        """Write every span as one JSON line (called once, at run end)."""
        with open(path, "w", encoding="utf-8") as f:
            for i, (name, s, e, p) in enumerate(zip(self.names, self.starts,
                                                    self.ends, self.parents)):
                f.write(json.dumps({"id": i, "name": name, "start": s,
                                    "end": e, "parent": p}) + "\n")


def wrapper_cost_s(samples: int = 20000) -> float:
    """Seconds one recorded span adds to a call, measured on a no-op."""
    def noop():
        return None

    best = math.inf
    for _ in range(3):
        wrapped = Recorder().wrap("noop", noop, on_call=lambda c, a, k, r: None)
        t0 = time.perf_counter()
        for _ in range(samples):
            noop()
        t1 = time.perf_counter()
        for _ in range(samples):
            wrapped()
        t2 = time.perf_counter()
        best = min(best, ((t2 - t1) - (t1 - t0)) / samples)
    return max(best, 0.0)


def tail(values: Sequence[float]) -> tuple[float, float, int]:
    """(percentile, value, sample count) of the highest percentile that has
    TAIL_MIN_BEYOND samples beyond it: the (TAIL_MIN_BEYOND + 1)-th largest
    value, at percentile 100 * (n - TAIL_MIN_BEYOND) / n. With too few
    samples it is the maximum, at percentile 100."""
    ordered = sorted(values)
    n = len(ordered)
    if n <= TAIL_MIN_BEYOND:
        return 100.0, ordered[-1], n
    return 100.0 * (n - TAIL_MIN_BEYOND) / n, ordered[n - 1 - TAIL_MIN_BEYOND], n
