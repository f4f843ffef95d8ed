"""Worker pools: how a scheduler batch turns into simulated cycles.

The scheduler is policy (batching, single-flight dedup, completion
bookkeeping); a :class:`WorkerPool` is mechanism — it owns the executor
that actually runs ``execute_batch`` and reports busy/total gauges plus
a batch-duration histogram for ``/metrics``.

Two pools implement the same ``run_batch`` contract:

* :class:`ProcessWorkerPool` — the one the service runs — forks one
  process per worker, so N workers are N cores of simulation with no
  GIL cap.  Each batch re-applies the disk cache config, sheds inherited
  telemetry with ``begin_worker``, and ships its profiler counters,
  disk-cache stats, wall-clock spans, and final progress heartbeats back
  for the parent to merge, exactly like ``repro.harness.parallel`` does
  for sweep fan-out.  The content-addressed disk cache
  (``REPRO_CACHE_DIR``) is the store the workers share: a result
  simulated by any worker is a disk hit for every other worker.
* :class:`InjectedWorkerPool` is the test seam: it runs a test-supplied
  ``execute_batch_fn`` on a thread executor with the legacy two-argument
  call signature.

``default_workers()`` is ``min(cpu, 8)`` capped by ``REPRO_MAX_JOBS`` —
the same env contract the harness pool honors.
"""

from __future__ import annotations

import asyncio
import contextlib
import functools
import multiprocessing
import os
import threading
import time
from concurrent.futures import ProcessPoolExecutor, ThreadPoolExecutor
from concurrent.futures.process import BrokenProcessPool

import repro.harness.diskcache as diskcache
from repro.harness.parallel import max_jobs
from repro.harness.profiling import PROFILER
from repro.obs.runtime import TRACER, begin_worker, worker_telemetry
from repro.service.metrics import LatencyHistogram

#: Hard ceiling on the process-pool default; wider pools thrash the
#: small queue depths the service runs with.
MAX_DEFAULT_WORKERS = 8


def default_workers() -> int:
    """Default pool width: ``min(cpu, 8)``, capped by ``REPRO_MAX_JOBS``."""
    workers = min(os.cpu_count() or 1, MAX_DEFAULT_WORKERS)
    cap = max_jobs()
    if cap is not None:
        workers = min(workers, cap)
    return max(1, workers)


def idle_worker_stats(kind: str = "none") -> dict:
    """The zero-filled stats shape (gauges must exist while idle)."""
    return {
        "kind": kind,
        "total": 0,
        "busy": 0,
        "batches_total": 0,
        "batch_seconds": LatencyHistogram().summary(),
    }


def _process_batch(
    requests: list,
    sim_jobs: int,
    job_ids: dict,
    cache_enabled: bool,
    cache_root: str | None,
    telemetry: dict | None,
) -> tuple[dict, dict, dict, dict, dict]:
    """One scheduler batch inside a forked worker process.

    Returns ``(outcomes, heartbeats, profiler_snapshot, disk_stats,
    spans)``.  The parent folds the last four back in: without the merge
    a process-pool service would report zero simulated runs, zero cache
    writes, and span histograms with a hole where all the work happened.
    Heartbeats cannot stream across the process boundary mid-batch, so
    the worker records the last beat per flight and the parent applies
    them at completion.
    """
    from repro.service.scheduler import execute_batch

    diskcache.configure(enabled=cache_enabled, root=cache_root)
    PROFILER.reset()  # forked workers inherit the parent's totals
    begin_worker(telemetry)
    beats: dict = {}

    def collect(key, beat) -> None:
        beats[key] = beat

    outcomes = execute_batch(
        requests, sim_jobs, progress_cb=collect, job_ids=job_ids
    )
    spans = {"pid": os.getpid(), **TRACER.snapshot()}
    return outcomes, beats, PROFILER.snapshot(), diskcache.shared_stats(), spans


class WorkerPool:
    """Common gauges + batch accounting; subclasses supply the executor."""

    kind = "base"

    def __init__(self, workers: int) -> None:
        self.workers = max(1, int(workers))
        self._lock = threading.Lock()
        self._busy = 0
        self._batches_total = 0
        self._batch_seconds = LatencyHistogram()

    # ------------------------------------------------------------------
    @contextlib.contextmanager
    def _track(self):
        with self._lock:
            self._busy += 1
        started = time.monotonic()
        try:
            yield
        finally:
            elapsed = time.monotonic() - started
            with self._lock:
                self._busy -= 1
                self._batches_total += 1
            self._batch_seconds.observe(elapsed)

    def stats(self) -> dict:
        with self._lock:
            busy = self._busy
            batches = self._batches_total
        return {
            "kind": self.kind,
            "total": self.workers,
            "busy": busy,
            "batches_total": batches,
            "batch_seconds": self._batch_seconds.summary(),
        }

    # ------------------------------------------------------------------
    async def run_batch(
        self, requests: list, sim_jobs: int, job_ids: dict, on_progress=None
    ) -> dict:
        """Execute one deduplicated batch; returns the outcome map."""
        raise NotImplementedError

    def shutdown(self, wait: bool = True) -> None:
        self._executor.shutdown(wait=wait)


class InjectedWorkerPool(WorkerPool):
    """Test seam: a thread executor around ``execute_batch_fn`` with the
    legacy two-argument call (no progress/correlation plumbing)."""

    kind = "injected"

    def __init__(self, workers: int, execute_batch_fn) -> None:
        super().__init__(workers)
        self._fn = execute_batch_fn
        self._executor = ThreadPoolExecutor(
            max_workers=self.workers, thread_name_prefix="repro-sim"
        )

    async def run_batch(
        self, requests, sim_jobs, job_ids, on_progress=None
    ) -> dict:
        call = functools.partial(self._fn, requests, sim_jobs)
        loop = asyncio.get_running_loop()
        with self._track():
            return await loop.run_in_executor(self._executor, call)


class ProcessWorkerPool(WorkerPool):
    """Forked workers: one core of simulation per worker, no GIL cap."""

    kind = "process"

    def __init__(self, workers: int) -> None:
        super().__init__(workers)
        try:
            self._context = multiprocessing.get_context("fork")
        except ValueError:  # pragma: no cover - non-POSIX fallback
            self._context = multiprocessing.get_context()
        self._executor = self._make_executor()
        self._warm_fork()

    def _make_executor(self) -> ProcessPoolExecutor:
        return ProcessPoolExecutor(
            max_workers=self.workers, mp_context=self._context
        )

    def _warm_fork(self) -> None:
        # Fork the worker processes now, while the calling thread owns
        # no harness locks, instead of lazily mid-request.
        try:
            futures = [
                self._executor.submit(os.getpid) for _ in range(self.workers)
            ]
            for future in futures:
                future.result(timeout=60)
        except Exception:  # pragma: no cover - warmup is best-effort
            pass

    async def run_batch(
        self, requests, sim_jobs, job_ids, on_progress=None
    ) -> dict:
        call = functools.partial(
            _process_batch, requests, sim_jobs, job_ids,
            diskcache.is_enabled(), diskcache.configured_root(),
            worker_telemetry(),
        )
        loop = asyncio.get_running_loop()
        with self._track():
            try:
                outcomes, beats, profile, disk, spans = (
                    await loop.run_in_executor(self._executor, call)
                )
            except BrokenProcessPool:
                # A dead worker (OOM, segfault) poisons the whole
                # executor; rebuild so the next batch gets a live pool,
                # then let the scheduler fail this batch's flights.
                self._executor.shutdown(wait=False)
                self._executor = self._make_executor()
                raise
        PROFILER.merge_snapshot(profile)
        diskcache.merge_stats(disk)
        TRACER.merge(spans, process=f"worker-{spans.get('pid', '?')}")
        if on_progress is not None:
            for key, beat in beats.items():
                on_progress(key, beat)
        return outcomes
