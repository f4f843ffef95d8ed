"""Shared pieces of the benchmark: isolation, provenance, checks, stats."""

from __future__ import annotations

import hashlib
import json
import math
import os
import platform
import resource
import shutil
import statistics
import uuid
from pathlib import Path

#: Engine and telemetry switches that would change what the benchmark
#: measures.  The benchmark refuses to start while any is set.
FORBIDDEN_ENV = ("REPRO_FASTPATH", "REPRO_MEMO", "REPRO_LOG",
                 "REPRO_SLOW_SPAN_SECONDS")

#: Variables that would resize the worker pools or redirect the caches.
#: The benchmark drops them: worker counts are pinned to nproc and every
#: run gets its own cache directory.
DROPPED_ENV = ("CI", "REPRO_MAX_JOBS", "REPRO_CACHE_DIR", "REPRO_DISK_CACHE")


def check_environment() -> list[str]:
    """Names of forbidden variables that are set (empty when clean)."""
    return [name for name in FORBIDDEN_ENV if name in os.environ]


def isolate_environment() -> None:
    for name in DROPPED_ENV:
        os.environ.pop(name, None)


def nproc() -> int:
    return len(os.sched_getaffinity(0)) if hasattr(
        os, "sched_getaffinity") else (os.cpu_count() or 1)


def provenance() -> dict:
    """What every result records about the code and the host."""
    from repro.engine import fastpath_enabled, memo_enabled
    from repro.harness.diskcache import code_fingerprint

    return {
        "nproc": nproc(),
        "python": platform.python_version(),
        "fastpath": fastpath_enabled(),
        "memo": memo_enabled(),
        "code_fingerprint": code_fingerprint(),
    }


class Scratch:
    """Fresh, empty directories under the checkout's ``.repobench``."""

    def __init__(self, root: Path) -> None:
        self.root = root / ".repobench"
        self.root.mkdir(exist_ok=True)

    def fresh(self, prefix: str) -> Path:
        path = self.root / f"{prefix}-{os.getpid()}-{uuid.uuid4().hex[:8]}"
        path.mkdir()
        return path

    @staticmethod
    def remove(path: Path) -> None:
        shutil.rmtree(path, ignore_errors=True)


def dir_bytes(path: Path) -> int:
    return sum(p.stat().st_size for p in path.rglob("*") if p.is_file())


# ---------------------------------------------------------------------------
# Statistics
# ---------------------------------------------------------------------------
def percentile(values, q: float) -> float:
    """Nearest-rank percentile (``q`` in [0, 100])."""
    ordered = sorted(values)
    if not ordered:
        return 0.0
    rank = max(1, math.ceil(q / 100.0 * len(ordered)))
    return ordered[min(rank, len(ordered)) - 1]


def tail(values) -> float:
    """p90 when at least ten samples lie beyond it, else the slowest."""
    return percentile(values, 90) if len(values) >= 100 else max(values)


def median(values) -> float:
    return statistics.median(values) if values else 0.0


def peak_rss_mb() -> float:
    """Peak RSS of this process plus that of its largest child, in MB."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + child) / 1024.0


# ---------------------------------------------------------------------------
# Per-operation correctness
# ---------------------------------------------------------------------------
def stats_digest(stats: dict) -> str:
    """Digest of every simulated statistic of one run."""
    blob = json.dumps(stats, sort_keys=True, default=repr)
    return hashlib.sha256(blob.encode()).hexdigest()[:16]


def check_run(label: str, stats: dict, dynamic_count: int) -> list[str]:
    """Problems with one run's stats (empty when the run is correct).

    The run must commit exactly its trace's dynamic instructions, and its
    cycle-accounting buckets must sum to its cycles.
    """
    from repro.obs.accounting import check_conservation

    problems = []
    committed = stats.get("instructions")
    if committed != dynamic_count:
        problems.append(
            f"{label}: committed {committed} instructions, trace has "
            f"{dynamic_count}")
    problems.extend(f"{label}: {p}" for p in check_conservation(stats))
    return problems
