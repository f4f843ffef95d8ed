"""Batching scheduler: queue -> single-flight dedup -> worker pool.

The dispatch loop pulls queued jobs in batches, coalesces jobs whose
``flight_key`` matches an in-flight execution (single-flight: the
duplicate attaches to the leader's flight and never simulates), shards
the batch of *new* flights across idle workers, and hands each shard to
a :class:`repro.service.workers.ProcessWorkerPool` — forked processes,
so N workers really are N cores of simulation.

Inside a worker the batch first warms the harness caches through
``repro.harness.parallel`` — one ``execute_runs`` call over the union of
the batch's ``RunSpec``s, optionally fanning out over ``sim_jobs``
processes — and then builds each request's report from what are now
pure cache hits.  Repeat requests across batches short-circuit the same
way: the layered run caches (including the shared on-disk store) serve
them without re-simulating.

Everything that mutates queue/flight state runs on the event loop
thread; pool workers only execute pure simulation code.  That keeps
the state machine race-free without fine-grained locking.
"""

from __future__ import annotations

import asyncio
import time

from repro.obs.progress import ProgressTracker
from repro.obs.runtime import TRACER
from repro.service.jobs import Job, JobRequest
from repro.service.metrics import ServiceMetrics
from repro.service.queue import JobQueue
from repro.service.workers import (
    InjectedWorkerPool,
    ProcessWorkerPool,
    WorkerPool,
    default_workers,
)


class Flight:
    """One in-flight execution shared by every job with the same key."""

    def __init__(self, key: tuple) -> None:
        self.key = key
        self.jobs: list[Job] = []


class FlightTable:
    """Single-flight registry keyed by ``JobRequest.flight_key``."""

    def __init__(self) -> None:
        self._flights: dict[tuple, Flight] = {}

    def lease(self, key: tuple) -> tuple[Flight, bool]:
        """The flight for ``key`` plus whether the caller is its leader."""
        flight = self._flights.get(key)
        if flight is not None:
            return flight, False
        flight = Flight(key)
        self._flights[key] = flight
        return flight, True

    def land(self, key: tuple) -> None:
        self._flights.pop(key, None)

    def __len__(self) -> int:
        return len(self._flights)

    def __contains__(self, key: tuple) -> bool:
        return key in self._flights


def execute_batch(
    requests: list[JobRequest],
    sim_jobs: int = 1,
    progress_cb=None,
    job_ids: dict | None = None,
) -> dict:
    """Resolve one batch of deduplicated requests (runs in a worker process).

    Returns ``{flight_key: ("ok", report) | ("error", message)}`` — a
    failure in one request never poisons its batchmates.

    ``progress_cb(flight_key, heartbeat)`` (optional) receives a
    progress heartbeat as each request starts and finishes; ``job_ids``
    maps flight keys to leader job ids so every span recorded inside a
    request execution carries ``job_id``/``run_key`` correlation attrs.
    """
    from repro.harness.parallel import warm_cache

    job_ids = job_ids or {}
    specs = [spec for request in requests for spec in request.specs()]
    tracker = ProgressTracker(len(requests), label="batch")

    def notify(request, phase: str) -> None:
        if progress_cb is None:
            return
        beat = tracker.heartbeat(detail=request.benchmark)
        beat["phase"] = phase
        try:
            progress_cb(request.flight_key, beat)
        except Exception:  # noqa: BLE001 — progress must never kill a batch
            pass

    with TRACER.span("service.execute_batch",
                     requests=len(requests), sim_jobs=sim_jobs):
        if sim_jobs > 1:
            try:
                warm_cache(specs, jobs=sim_jobs)
            except Exception:
                # Fall through: per-request execution surfaces the error.
                pass
        out: dict[tuple, tuple[str, object]] = {}
        for request in requests:
            notify(request, "running")
            with TRACER.bind(job_id=job_ids.get(request.flight_key),
                             run_key=request.run_key):
                with TRACER.span("service.execute_request",
                                 benchmark=request.benchmark):
                    try:
                        outcome = ("ok", request.execute())
                    except Exception as exc:  # noqa: BLE001 — report it
                        outcome = (
                            "error", f"{type(exc).__name__}: {exc}"
                        )
            out[request.flight_key] = outcome
            instructions = 0
            if outcome[0] == "ok" and isinstance(outcome[1], dict):
                instructions = int(
                    outcome[1].get("dynamic_instructions", 0) or 0
                )
            tracker.advance(1, instructions, detail=request.benchmark)
            notify(request, "finished" if outcome[0] == "ok" else "failed")
    return out


class Scheduler:
    """Owns the dispatch loop, the flight table, and the worker pool."""

    def __init__(
        self,
        queue: JobQueue,
        metrics: ServiceMetrics,
        *,
        workers: int | None = None,
        sim_jobs: int = 1,
        max_batch: int = 8,
        execute_batch_fn=None,
    ) -> None:
        self.queue = queue
        self.metrics = metrics
        self.workers = max(1, workers) if workers else default_workers()
        self.sim_jobs = max(1, sim_jobs)
        self.max_batch = max(1, max_batch)
        #: Injected executors (tests) keep the legacy two-argument call;
        #: only the process pool gets progress/correlation plumbing.
        if execute_batch_fn is not None:
            self.pool: WorkerPool = InjectedWorkerPool(
                self.workers, execute_batch_fn
            )
        else:
            self.pool = ProcessWorkerPool(self.workers)
        self.flights = FlightTable()
        self._wakeup = asyncio.Event()
        self._tasks: set[asyncio.Task] = set()
        self._draining = False
        self._loop_task: asyncio.Task | None = None

    # ------------------------------------------------------------------
    def start(self) -> None:
        self._loop_task = asyncio.get_running_loop().create_task(self._run())

    def wake(self) -> None:
        self._wakeup.set()

    def in_flight(self) -> int:
        return len(self.flights)

    def worker_stats(self) -> dict:
        """Pool gauges for ``/metrics`` (kind, busy/total, batch times)."""
        return self.pool.stats()

    async def drain(self) -> None:
        """Stop dispatching new work once the queue and flights are empty."""
        self._draining = True
        self.wake()
        if self._loop_task is not None:
            await self._loop_task
        self.pool.shutdown(wait=True)

    # ------------------------------------------------------------------
    async def _run(self) -> None:
        while True:
            batch = self.queue.next_batch(self.max_batch)
            if batch:
                self._dispatch(batch)
                continue
            if self._draining and self.queue.queued_count() == 0:
                if self._tasks:
                    await asyncio.wait(set(self._tasks))
                    continue
                break
            self._wakeup.clear()
            try:
                await asyncio.wait_for(self._wakeup.wait(), timeout=0.1)
            except asyncio.TimeoutError:
                pass

    def _dispatch(self, batch: list[Job]) -> None:
        new_flights: list[Flight] = []
        for job in batch:
            flight, leader = self.flights.lease(job.request.flight_key)
            flight.jobs.append(job)
            if leader:
                new_flights.append(flight)
            else:
                job.coalesced = True
                self.metrics.bump("coalesced")
        if new_flights:
            # Shard the batch across workers: one big batch on one
            # worker would serialize what the pool could parallelize.
            shards = min(self.workers, len(new_flights))
            loop = asyncio.get_running_loop()
            for index in range(shards):
                task = loop.create_task(
                    self._run_flights(new_flights[index::shards])
                )
                self._tasks.add(task)
                task.add_done_callback(self._tasks.discard)

    async def _run_flights(self, flights: list[Flight]) -> None:
        requests = [flight.jobs[0].request for flight in flights]
        flight_map = {flight.key: flight for flight in flights}
        for flight in flights:
            for job in flight.jobs:
                job.progress = {
                    "phase": "dispatched",
                    "requests_total": len(requests),
                }
        # Heartbeats arrive on the loop thread after the batch returns
        # (the worker's final beats, merged back); writing a fresh dict
        # per update keeps readers race-free without a lock.
        def on_progress(key, beat):
            flight = flight_map.get(key)
            if flight is not None:
                for job in list(flight.jobs):
                    job.progress = beat

        job_ids = {flight.key: flight.jobs[0].id for flight in flights}
        try:
            outcomes = await self.pool.run_batch(
                requests, self.sim_jobs, job_ids, on_progress
            )
        except Exception as exc:  # pool broken / executor-level failure
            outcomes = {
                flight.key: ("error", f"{type(exc).__name__}: {exc}")
                for flight in flights
            }
        now = time.monotonic()
        for flight in flights:
            # Land before completing so a post-completion duplicate
            # starts a fresh flight (and is then served by the caches).
            self.flights.land(flight.key)
            status, value = outcomes.get(
                flight.key, ("error", "executor returned no outcome")
            )
            for job in flight.jobs:
                if status == "ok":
                    self.queue.finish(job.id, value)
                    self.metrics.bump("completed")
                    self.metrics.observe_report(value)
                else:
                    self.queue.fail(job.id, str(value))
                    self.metrics.bump("failed")
                # Monotonic end-to-end latency: wall-clock deltas would
                # absorb any clock step between submit and finish.
                self.metrics.observe_latency(now - job.created_mono)
                wait = job.queue_wait_seconds
                if wait is not None:
                    self.metrics.observe_queue_wait(wait)
                final = dict(job.progress or {})
                final["phase"] = "done" if status == "ok" else "failed"
                job.progress = final
        self.wake()
