"""Wall-clock sections and counters for the experiment harness.

The module-level ``PROFILER`` accumulates per-phase wall-clock time
(trace generation, simulation, cache I/O, parallel fan-out) and named
counters (cache hits/misses, runs simulated).  The CLI prints it under
``--profile``; ``repro bench`` embeds a snapshot in its JSON report.
"""

from __future__ import annotations

import threading
import time
from contextlib import contextmanager


class Profiler:
    """Accumulating wall-clock sections + counters.

    Thread-safe: the service runs simulations on a ``ThreadPoolExecutor``
    with several workers, so the read-modify-write accumulations below
    take a lock — without it concurrent flights silently lose seconds
    and counts.  (Subprocess workers each get their own instance; those
    merge back explicitly via :meth:`merge_snapshot`.)
    """

    def __init__(self) -> None:
        self.sections: dict[str, float] = {}
        self.counters: dict[str, int] = {}
        self._lock = threading.Lock()

    def reset(self) -> None:
        with self._lock:
            self.sections.clear()
            self.counters.clear()

    @contextmanager
    def section(self, name: str):
        """Accumulate the wall-clock time of the enclosed block."""
        started = time.perf_counter()
        try:
            yield
        finally:
            elapsed = time.perf_counter() - started
            with self._lock:
                self.sections[name] = self.sections.get(name, 0.0) + elapsed

    def bump(self, name: str, amount: int = 1) -> None:
        with self._lock:
            self.counters[name] = self.counters.get(name, 0) + amount

    def snapshot(self) -> dict:
        """JSON-serializable copy of the accumulated state."""
        with self._lock:
            return {
                "sections_seconds": dict(self.sections),
                "counters": dict(self.counters),
            }

    def merge_snapshot(self, snapshot: dict) -> None:
        """Fold a worker process's snapshot into this profiler.

        Worker section times sum across processes, so they land under a
        ``workers.`` prefix: ``workers.simulate_dynaspam`` is aggregate
        compute seconds across the pool, not wall clock, and must never
        be read alongside the parent's own wall-clock sections as if it
        were.  Counters stay flat — a cache hit is a cache hit no matter
        which process scored it.
        """
        with self._lock:
            for name, seconds in snapshot.get("sections_seconds", {}).items():
                if not name.startswith("workers."):
                    name = f"workers.{name}"
                self.sections[name] = self.sections.get(name, 0.0) + seconds
            for name, count in snapshot.get("counters", {}).items():
                self.counters[name] = self.counters.get(name, 0) + count

    def render(self) -> str:
        snap = self.snapshot()
        sections, counters = snap["sections_seconds"], snap["counters"]
        lines = ["profile: per-phase wall clock"]
        total = sum(sections.values())
        for name, seconds in sorted(sections.items(), key=lambda kv: -kv[1]):
            share = seconds / total if total else 0.0
            lines.append(f"  {name:<24} {seconds:8.3f}s  {share:6.1%}")
        if counters:
            lines.append("profile: counters")
            for name, count in sorted(counters.items()):
                lines.append(f"  {name:<24} {count}")
        return "\n".join(lines)


#: Process-wide profiler instance.
PROFILER = Profiler()
