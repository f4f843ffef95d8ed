"""The host's speed, measured alongside the work, and timings scaled by it.

The benchmark's host is a few cores of a machine shared with other
tenants.  Their load changes how fast this host runs Python by half or
more within minutes, with CPU time equal to wall time, so neither a
longer run nor CPU time removes it.  The benchmark therefore runs a
fixed reference workload (``reference_slice``) in short slices between
its own operations and scales every end-to-end timing of a run by how
fast the slices ran during that run:

    calibrated seconds = measured seconds / (median slice / NOMINAL_S)

A calibrated timing reads as the time the operation would take on a
host where one slice takes ``NOMINAL_S``.  The reference never changes,
so a change to the simulator moves a calibrated timing exactly as much
as the measured one; only the host's drift cancels out.  Every raw
timing and the factor print on the ``#`` lines and go to the report.

A slice is half interpreter-bound work on a few small objects and half
a walk over a large table of objects in shuffled order.  On the shared
host the first slows down more than the simulator when neighbours are
busy and the second slightly less; their sum tracks the simulator's
host time (Python 3.11, 2-vCPU Xeon VM: a 1.5x swing over five minutes
left the calibrated time within ±6%, against ±12% for the first half
alone).

The slices run in a helper process of their own (this file run as a
script), with the garbage collector off, and only while nothing else of
the benchmark runs: between simulator runs or between sweeps.  The
program under test shares no heap with them.  ``serve-mixed`` is not
calibrated: no placement of the slices tracked its worker processes
(see README.md).
"""

from __future__ import annotations

import gc
import random
import statistics
import subprocess
import sys
import time

#: Duration of one reference slice on the nominal host, in seconds.
NOMINAL_S = 0.010

#: Loop trips of each half of a slice.
_OBJECT_TRIPS = 9000
_TABLE_TRIPS = 4000

#: Rows of the table the second half walks (about 25 MB).
_TABLE_ROWS = 200_000


class _Entry:
    __slots__ = ("key", "value", "hits")

    def __init__(self, key: int, value: int) -> None:
        self.key = key
        self.value = value
        self.hits = 0

    def bump(self, amount: int) -> int:
        self.hits += 1
        self.value = (self.value + amount) & 0xFFFF
        return self.value


class _Row:
    __slots__ = ("op", "dst", "src", "latency", "addr")

    def __init__(self, seed: int) -> None:
        self.op = seed & 7
        self.dst = (seed >> 3) & 31
        self.src = (seed >> 8) & 31
        self.latency = (1, 1, 1, 3, 4, 20, 1, 2)[(seed >> 13) & 7]
        self.addr = (seed >> 12) & 0xFFFFF


_table: list[_Row] = []
_order: list[int] = []


def _build_table() -> None:
    _table.extend(_Row((i * 2654435761) & 0xFFFFFFFF)
                  for i in range(_TABLE_ROWS))
    _order.extend(range(_TABLE_ROWS))
    random.Random(7).shuffle(_order)


def reference_slice(cursor: int = 0) -> int:
    """One slice of the reference workload, starting the table walk at
    row ``cursor``.  Returns a checksum."""
    table: dict[int, _Entry] = {}
    window: list[_Entry] = []
    acc = 0
    for i in range(_OBJECT_TRIPS):
        key = (i * 40503) & 255
        entry = table.get(key)
        if entry is None:
            entry = table[key] = _Entry(key, i)
        acc ^= entry.bump(i)
        window.append(entry)
        if len(window) > 32:
            old = window.pop(0)
            acc = (acc + old.hits * old.key) & 0xFFFFFF
    lines: dict[int, int] = {}
    for i in range(cursor, cursor + _TABLE_TRIPS):
        row = _table[_order[i % _TABLE_ROWS]]
        line = row.addr & 0xFFFF
        lines[line] = lines.get(line, 0) + row.latency
        acc += row.src ^ row.dst
    return acc


class HostClock:
    """Reference slices timed during one run.

    ``exponent`` below 1 applies only part of the correction: for runs
    whose marks sample the host at too few moments for their factor to
    be trusted in full.
    """

    def __init__(self, exponent: float = 1.0) -> None:
        self.exponent = exponent
        self.samples: list[float] = []

    def mark(self, slices: int = 1) -> None:
        """Time ``slices`` slices now (between two timed operations)."""
        self.samples.extend(_Helper.get().run(slices))

    def factor(self) -> float:
        """How much slower than nominal this host ran over the run's
        marks (1.0 = nominal): the median slice over ``NOMINAL_S``,
        raised to ``exponent``."""
        return (statistics.median(self.samples) / NOMINAL_S) ** self.exponent

    def seconds(self, measured: float) -> float:
        """``measured`` host seconds, scaled to the nominal host."""
        return measured / self.factor()


class _Helper:
    """The process that runs the slices (this file run as a script).

    The table lives there, not in the benchmark process, so it neither
    counts toward the benchmark's peak RSS nor is inherited by the pool
    workers it forks, and the program under test shares no heap with
    the reference.
    """

    _instance: "_Helper | None" = None

    def __init__(self) -> None:
        self.proc = subprocess.Popen(
            [sys.executable, __file__], stdin=subprocess.PIPE,
            stdout=subprocess.PIPE, text=True,
        )
        self.run(1)  # returns once the table is built

    @classmethod
    def get(cls) -> "_Helper":
        if cls._instance is None:
            cls._instance = cls()
        return cls._instance

    def run(self, slices: int) -> list[float]:
        self.proc.stdin.write(f"{slices}\n")
        self.proc.stdin.flush()
        line = self.proc.stdout.readline()
        if not line:
            raise RuntimeError("the host clock helper exited")
        return [float(value) for value in line.split()]

    @classmethod
    def stop(cls) -> None:
        """End the helper and wait for it.  Forked pool workers may
        hold its stdin open, so it is told to quit, not sent EOF."""
        helper, cls._instance = cls._instance, None
        if helper is None:
            return
        try:
            helper.proc.stdin.write("0\n")
            helper.proc.stdin.close()
            helper.proc.wait(timeout=10)
        except (OSError, subprocess.TimeoutExpired):
            helper.proc.kill()
            helper.proc.wait()
        helper.proc.stdout.close()


def start() -> None:
    """Start the helper (and build its table) ahead of the first mark."""
    _Helper.get()


def stop() -> None:
    """Stop the helper, if one runs."""
    _Helper.stop()


def _serve() -> None:
    """Helper loop: read a slice count per line, answer with the time
    of each slice; 0 quits."""
    _build_table()
    gc.disable()
    cursor = 0
    for line in sys.stdin:
        slices = int(line)
        if slices == 0:
            break
        times = []
        for _ in range(slices):
            started = time.perf_counter()
            reference_slice(cursor)
            times.append(time.perf_counter() - started)
            cursor = (cursor + _TABLE_TRIPS) % _TABLE_ROWS
        sys.stdout.write(" ".join(map(repr, times)) + "\n")
        sys.stdout.flush()


if __name__ == "__main__":
    _serve()
