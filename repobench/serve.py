"""The ``serve-mixed`` workload: an open-loop job stream to ``repro serve``.

One generator thread sends a fixed-rate schedule of small jobs: cold
jobs, each with a ``RunKey`` no earlier job used, interleaved with
repeats of earlier payloads, which either coalesce with a job still in
flight or read the cache.  ``repro loadtest`` is not used because it
starts one thread per job.  A job's latency runs from its due time to
the server's ``finished_at`` stamp, so the client's polling period
never quantises it.
"""

from __future__ import annotations

import os
import random
import select
import signal
import subprocess
import sys
import time
from pathlib import Path

from common import check_run, dir_bytes, median, percentile, stats_digest

HERE = Path(__file__).resolve().parent

#: Offered load, jobs per second (fixed-rate open loop).
RATE = 5.0

#: Centre of the per-job problem scale, and its relative spread (the
#: spread gives every cold job its own ``RunKey``).
SCALE = 0.05
SCALE_SPREAD = 0.1

#: Largest distance, in cold jobs, between a cold job and its repeat.
MAX_LAG = 5

#: A job slower than this counts as missing for goodput.
LATENCY_LIMIT_S = 2.0

#: Completion polling period (latency never depends on it; a longer one
#: leaves more CPU to the server).
POLL_S = 0.25

#: How long the generator waits for stragglers after the last send.
DRAIN_S = 60.0

SERIES = (("mapping_only", True), ("accelerate", False), ("accelerate", True))


def schedule(seed: int, seconds: float) -> list[tuple[float, dict, bool]]:
    """``(due offset, payload, cold)`` for every job of one run.

    Cold jobs come in rounds: each round is every benchmark under every
    series once, in a seed-shuffled order, at a seed-jittered scale.
    Half of each round's cold jobs are repeated once, 0 to ``MAX_LAG``
    cold jobs later; which half depends on the round, not the seed.  So
    the seed changes the order, the scales and the repeat distances, but
    every seed does the same mix of work.

    Repeats are served from the memory of the worker that ran the cold
    job (about 6 ms) or from the disk cache (10-25 ms, a broad spread
    that follows the host's speed).  Cold jobs, and the repeats that
    coalesce with them, take about 110 ms.  With two cold jobs to each
    repeat, both the median and the p90 fall among the cold jobs, whose
    time is set by simulation and the service path, not by which worker
    a repeat happens to reach.
    """
    from repro.workloads import ALL_ABBREVS

    rng = random.Random(seed)
    canonical = [(bench, *series) for bench in ALL_ABBREVS
                 for series in SERIES]
    per_round = len(canonical) + (len(canonical) + 1) // 2
    rounds = max(1, int(RATE * seconds) // per_round)
    used = set()
    events = []
    for round_ in range(rounds):
        combos = list(canonical)
        rng.shuffle(combos)
        for offset, combo in enumerate(combos):
            index = round_ * len(canonical) + offset
            bench, mode, speculation = combo
            while True:
                scale = round(SCALE * (1 + rng.uniform(-SCALE_SPREAD,
                                                        SCALE_SPREAD)), 5)
                if (bench, scale) not in used:
                    break
            used.add((bench, scale))
            payload = {"benchmark": bench, "scale": scale, "mode": mode,
                       "speculation": speculation}
            # Ordered by position; a repeat sorts after its cold job.
            events.append((index, 0, payload, True))
            if (canonical.index(combo) + round_) % 2 == 0:
                events.append((index + rng.randint(0, MAX_LAG), 1, payload,
                               False))
    events.sort(key=lambda event: (event[0], event[1]))
    return [(slot / RATE, payload, cold)
            for slot, (_pos, _order, payload, cold) in enumerate(events)]


class Server:
    """A ``repro serve`` child process on a free port."""

    def __init__(self, root: Path, cache_dir: Path, workers: int,
                 log_path: Path, trace_dir: Path | None = None,
                 run_id: str | None = None) -> None:
        env = dict(os.environ)
        env["PYTHONPATH"] = str(root / "src")
        env["REPRO_CACHE_DIR"] = str(cache_dir)
        if trace_dir is None:
            argv = [sys.executable, "-m", "repro", "serve", "--port", "0",
                    "--workers", str(workers)]
        else:
            argv = [sys.executable, str(HERE / "server_main.py"),
                    "--workers", str(workers), "--trace-dir", str(trace_dir),
                    "--run-id", run_id]
        self.cache_dir = cache_dir
        self._log = open(log_path, "ab")
        # Its own session, so stop() can reap any worker it leaves behind.
        self.proc = subprocess.Popen(
            argv, cwd=root, env=env, stdout=subprocess.PIPE,
            stderr=self._log, start_new_session=True,
        )
        deadline = time.monotonic() + 120
        self.port = self._read_port(deadline)
        self._await_health(deadline)

    def _await_health(self, deadline: float) -> None:
        """Wait for ``/healthz``: once it answers, the server has also
        installed its SIGTERM handler and will drain when stopped."""
        from repro.service.client import ServiceClient
        from repro.service.errors import ServiceError

        client = ServiceClient(port=self.port, timeout=5.0)
        while True:
            try:
                client.health()
                return
            except ServiceError:
                if time.monotonic() > deadline:
                    self.stop()
                    raise RuntimeError("repro serve never became healthy")
                time.sleep(0.01)

    def _read_port(self, deadline: float) -> int:
        line = b""
        while not line.endswith(b"\n"):
            left = deadline - time.monotonic()
            ready, _, _ = select.select([self.proc.stdout], [], [],
                                        max(0.0, left))
            if not ready:
                self.stop()
                raise RuntimeError("repro serve did not start in time")
            chunk = os.read(self.proc.stdout.fileno(), 1)
            if not chunk:
                self.stop()
                raise RuntimeError("repro serve exited during start-up")
            line += chunk
        # "repro.service listening on http://127.0.0.1:PORT (...)"
        return int(line.split(b"http://", 1)[1].split(b" ", 1)[0]
                   .rsplit(b":", 1)[1])

    def stop(self) -> None:
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout=60)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        # Reap workers a crashed server left behind, and wait until the
        # whole group is gone.
        deadline = time.monotonic() + 30
        try:
            os.killpg(self.proc.pid, signal.SIGKILL)
            while time.monotonic() < deadline:
                os.killpg(self.proc.pid, 0)
                time.sleep(0.02)
        except ProcessLookupError:
            pass
        self.proc.stdout.close()
        self._log.close()


def _metrics_delta(before: dict, after: dict) -> dict:
    def diff(*path):
        a, b = before, after
        for part in path:
            a, b = a.get(part, {}), b.get(part, {})
        return (b or 0) - (a or 0)

    disk = {}
    for namespace in after.get("cache", {}).get("disk", {}):
        for counter in ("hits", "misses", "errors", "writes"):
            disk[counter] = disk.get(counter, 0) + diff(
                "cache", "disk", namespace, counter)
    return {
        "submitted": diff("jobs", "submitted"),
        "completed": diff("jobs", "completed"),
        "failed": diff("jobs", "failed"),
        "rejected": diff("jobs", "rejected"),
        "coalesced": diff("jobs", "coalesced"),
        "busy_s": diff("workers", "batch_seconds", "sum"),
        "runs_simulated": diff("cache", "runs_simulated"),
        "disk": disk,
    }


class Phase:
    """One pass of the schedule against one server."""

    def __init__(self) -> None:
        self.latencies: list[float] = []
        self.submit_s: list[float] = []
        self.late_s: list[float] = []
        self.queue_wait_s: list[float] = []
        self.run_s: list[float] = []
        self.problems: list[str] = []
        self.attempted = 0
        self.failed = 0
        self.good = 0
        #: Simulated instructions per second of each cold job's run time.
        self.cold_rates: list[float] = []
        self.cycles = 0
        #: payload label -> (cycles, stats digest) of its first report.
        self.digests: dict[str, tuple] = {}
        self.reports: list[dict] = []
        self.delta: dict = {}
        self.window_s = 0.0
        self.bytes_written = 0

    def samples(self) -> dict:
        """Every raw timing of the phase, for the report."""
        return {"job_s": self.latencies, "cold_instr_per_s": self.cold_rates}

    def run_lines(self) -> list[str]:
        """One line per distinct payload: its cycles and stats digest."""
        return [f"{key} cycles={cycles} digest={digest}"
                for key, (cycles, digest) in sorted(self.digests.items())]


def _check_job(phase: Phase, payload: dict, doc: dict, due_epoch: float,
               cold: bool) -> None:
    label = f"{payload['benchmark']}@{payload['scale']}"
    if doc.get("state") != "done":
        phase.failed += 1
        phase.problems.append(f"{label}: job {doc.get('state')}: "
                              f"{doc.get('error')}")
        return
    report = doc["result"]
    count = report["dynamic_instructions"]
    problems = (check_run(f"{label}/baseline", report["baseline_stats"], count)
                + check_run(f"{label}/dynaspam", report["stats"], count))
    cycles = report["baseline_cycles"] + report["dynaspam_cycles"]
    digest = stats_digest([report["baseline_stats"], report["stats"]])
    key = f"{label}/{payload['mode']}/spec={payload['speculation']}"
    if phase.digests.setdefault(key, (cycles, digest)) != (cycles, digest):
        problems.append(f"{label}: repeat returned different stats")
    latency = doc["finished_at"] - due_epoch
    if problems:
        phase.failed += 1
        phase.problems.extend(problems)
        return
    phase.latencies.append(latency)
    phase.queue_wait_s.append(doc["queue_wait_seconds"])
    phase.run_s.append(doc["run_seconds"])
    phase.cycles += cycles
    if latency <= LATENCY_LIMIT_S:
        phase.good += 1
    if cold:
        phase.cold_rates.append(
            (report["baseline_stats"]["instructions"]
             + report["stats"]["instructions"]) / doc["run_seconds"])
        phase.reports.append(report)


def drive(port: int, jobs: list) -> Phase:
    """Send ``jobs`` on schedule, collect every job document, check it."""
    from repro.service.client import ServiceClient
    from repro.service.errors import ServiceError

    client = ServiceClient(port=port, timeout=30.0)
    phase = Phase()
    before = client.metrics()
    pending: dict[str, tuple] = {}
    epoch0 = time.time() + 0.05
    mono0 = time.monotonic() + 0.05
    index = 0
    next_poll = mono0
    give_up = mono0 + jobs[-1][0] + DRAIN_S
    while index < len(jobs) or pending:
        now = time.monotonic()
        if now > give_up:
            for _job_id, (payload, *_rest) in pending.items():
                phase.failed += 1
                phase.problems.append(f"{payload['benchmark']}: no result")
            break
        if index < len(jobs) and now >= mono0 + jobs[index][0]:
            offset, payload, cold = jobs[index]
            index += 1
            phase.attempted += 1
            phase.late_s.append(now - (mono0 + offset))
            try:
                doc = client.submit(**payload)
            except ServiceError as exc:
                phase.failed += 1
                phase.problems.append(f"refused: {exc}")
                continue
            phase.submit_s.append(time.monotonic() - now)
            pending[doc["id"]] = (payload, epoch0 + offset, cold)
            continue
        if pending and now >= next_poll:
            for job_id in list(pending):
                if client.progress(job_id)["terminal"]:
                    payload, due_epoch, cold = pending.pop(job_id)
                    _check_job(phase, payload, client.job(job_id),
                               due_epoch, cold)
            next_poll = time.monotonic() + POLL_S
            continue
        wake = next_poll if pending else float("inf")
        if index < len(jobs):
            wake = min(wake, mono0 + jobs[index][0])
        time.sleep(max(0.0, min(wake - time.monotonic(), POLL_S)))
    after = client.metrics()
    phase.delta = _metrics_delta(before, after)
    phase.window_s = time.monotonic() - mono0
    delta = phase.delta
    if delta["submitted"] != delta["completed"] + delta["failed"]:
        phase.failed += 1
        phase.problems.append(
            f"/metrics: submitted {delta['submitted']} != completed "
            f"{delta['completed']} + failed {delta['failed']}")
    return phase


class ServeWorkload:
    def __init__(self, root: Path, seed: int, seconds: float, workers: int,
                 scratch) -> None:
        self.root = root
        self.jobs = schedule(seed, seconds)
        self.workers = workers
        self.scratch = scratch
        self.server: Server | None = None
        self.log_path = scratch.root / f"serve-{os.getpid()}.log"

    def start(self, trace_dir: Path | None = None,
              run_id: str | None = None) -> None:
        self.stop()
        cache_dir = self.scratch.fresh("cache")
        self.server = Server(self.root, cache_dir, self.workers,
                             self.log_path, trace_dir, run_id)

    setup_round = start

    def stop(self) -> None:
        if self.server is not None:
            self.server.stop()
            self.scratch.remove(self.server.cache_dir)
            self.server = None

    def measure(self) -> Phase:
        phase = drive(self.server.port, self.jobs)
        phase.bytes_written = dir_bytes(self.server.cache_dir)
        return phase

    close = stop

    def end_to_end(self, phase: Phase) -> dict:
        """Measured, not calibrated: see "Host calibration" in README.md."""
        return {
            "sim_instr_per_s": median(phase.cold_rates),
            "latency_p50_s": median(phase.latencies),
            "latency_p90_s": percentile(phase.latencies, 90),
            "sim_cycles": phase.cycles,
        }

    def native(self, phase: Phase) -> dict:
        horizon = len(self.jobs) / RATE
        return {
            "job_p50_s": (median(phase.latencies), "s"),
            "job_p90_s": (percentile(phase.latencies, 90), "s"),
            "job_samples": (len(phase.latencies), "count"),
            "goodput_jobs_per_s": (phase.good / horizon, "jobs/s"),
            "sim_instr_per_s": (self.end_to_end(phase)["sim_instr_per_s"],
                                "instr/s"),
            "sim_cycles": (phase.cycles, "cycles (simulated)"),
            "offered_jobs_per_s": (RATE, "jobs/s"),
            "latency_limit_s": (LATENCY_LIMIT_S, "s"),
        }

    def service_layers(self, phase: Phase) -> dict:
        delta = phase.delta
        submitted = delta["submitted"] or 1
        return {
            "service.submit_p90_s": percentile(phase.submit_s, 90),
            "service.queue_wait_p50_s": median(phase.queue_wait_s),
            "service.queue_wait_p90_s": percentile(phase.queue_wait_s, 90),
            "service.run_p50_s": median(phase.run_s),
            "service.coalesce_ratio": delta["coalesced"] / submitted,
            "service.worker_busy_ratio": delta["busy_s"] / (
                self.workers * max(phase.window_s, 1e-9)),
            "service.rejected": delta["rejected"],
            "loadgen.late_p90_s": percentile(phase.late_s, 90),
        }
