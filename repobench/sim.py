"""The simulator workloads: ``sim-host``, ``sim-dynaspam`` and ``bench-cold``.

``sim-*`` build machines directly, as ``repro perfbench`` does: traces
are generated in set-up, every run constructs a fresh machine, and the
run and disk caches are bypassed.  ``bench-cold`` goes through the
harness's public Figure 8 driver with a fresh, empty disk-cache
directory and empty in-process caches for every sweep.
"""

from __future__ import annotations

import random
import time

from common import check_run, dir_bytes, median, stats_digest, tail
from hostclock import HostClock

#: Problem scale of the ``sim-*`` inputs, before the per-kernel jitter.
SIM_SCALE = 0.25

#: Problem scale of one ``bench-cold`` sweep, before the per-seed jitter.
BENCH_SCALE = 0.15

#: Largest relative scale change the seed applies to each ``sim-*``
#: kernel.  The throughput metric is per instruction, so it does not
#: follow the work the jitter adds or removes.
JITTER = 0.04

#: The same for the ``bench-cold`` sweep, which takes one scale for all
#: 44 runs: ±1% still changes some traces and every ``RunKey``, but
#: moves the sweep's total work, which its wall time follows, by under
#: 1% instead of up to 6%.
SWEEP_JITTER = 0.01

#: Set-up rounds per run; ``setup_s`` reports the median round.
SETUP_ROUNDS = 3

#: Reference slices timed before each ``bench-cold`` sweep; ``sim-*``
#: time one before each simulator run.
SWEEP_SLICES = 20

#: The share (as an exponent) of the host clock's correction applied to
#: ``bench-cold``.  Its factor rests on the nine or so gaps between
#: sweeps, not on hundreds of moments as on ``sim-*``: over 30 runs the
#: log of the median sweep followed the log of the factor at a slope of
#: 0.69 (correlation 0.84), and the full correction spread one ten-seed
#: set by 0.15 (p50) and 0.24 (slowest sweep) against 0.08 and 0.11 at
#: half of it.
SWEEP_CALIBRATION = 0.5


def _series(workload: str):
    from repro.core import DynaSpAMConfig

    if workload == "sim-host":
        return (("baseline", None),)
    return (
        ("mapping", DynaSpAMConfig(mode="mapping_only")),
        ("no_spec", DynaSpAMConfig(speculation=False)),
        ("spec", DynaSpAMConfig()),
    )


def kernel_scales(seed: int) -> dict[str, float]:
    from repro.harness.experiments import PAPER_ORDER

    rng = random.Random(seed)
    return {
        abbrev: round(SIM_SCALE * (1 + rng.uniform(-JITTER, JITTER)), 4)
        for abbrev in PAPER_ORDER
    }


def sweep_scale(seed: int) -> float:
    rng = random.Random(seed)
    return round(BENCH_SCALE * (1 + rng.uniform(-SWEEP_JITTER, SWEEP_JITTER)),
                 4)


def _simulate(trace, config):
    from repro.core import DynaSpAM
    from repro.ooo.fastpath import make_pipeline

    if config is None:
        return make_pipeline().run_trace(trace.trace)
    return DynaSpAM(ds_config=config).run(trace.trace, trace.program)


class RunLog:
    """Every run of one phase: latency, work, and its correctness."""

    def __init__(self, calibration: float = 1.0) -> None:
        #: Host time of every timed operation (a run or a sweep), in order.
        self.latencies: list[float] = []
        #: The run key of each timed run (``sim-*``).
        self.timed_keys: list[tuple] = []
        #: The host's speed, marked before every timed operation.
        self.host = HostClock(calibration)
        self.digests: dict[tuple, set] = {}
        #: The latest stats of each run key (every pass must match).
        self.stats: dict[tuple, dict] = {}
        self.problems: list[str] = []
        self.attempted = 0
        self.failed = 0
        self.wall_s = 0.0
        self.passes = 0
        #: Harness counters (``bench-cold`` only).
        self.runs_simulated = 0
        self.disk = {"hits": 0, "misses": 0, "errors": 0}
        self.bytes_written = 0

    def add(self, key: tuple, stats: dict, dynamic_count: int,
            elapsed: float | None = None) -> None:
        """Check one run; ``elapsed`` is its host time, when timed alone."""
        self.attempted += 1
        if elapsed is not None:
            self.latencies.append(elapsed)
            self.timed_keys.append(key)
        problems = check_run("/".join(map(str, key)), stats, dynamic_count)
        if problems:
            self.failed += 1
            self.problems.extend(problems)
        self.digests.setdefault(key, set()).add(stats_digest(stats))
        self.stats[key] = stats

    def note(self, problems: list[str]) -> None:
        """Count each problem found after the fact as a failed operation."""
        self.failed += len(problems)
        self.problems.extend(problems)

    def calibrated(self) -> list[float]:
        """Each timed operation's host time, scaled to the nominal host."""
        return [self.host.seconds(elapsed) for elapsed in self.latencies]

    def run_s(self, calibrated: bool = True) -> list[float]:
        """The median time of each run key over the passes (``sim-*``)."""
        times: dict[tuple, list[float]] = {}
        values = self.calibrated() if calibrated else self.latencies
        for key, elapsed in zip(self.timed_keys, values):
            times.setdefault(key, []).append(elapsed)
        return [median(runs) for runs in times.values()]

    def rate(self, seconds: float) -> float:
        """Committed instructions of one pass over every run key (one
        sweep on ``bench-cold``) per ``seconds``."""
        return sum(stats["instructions"]
                   for stats in self.stats.values()) / seconds

    def repeat_problems(self, other: "RunLog | None" = None) -> list[str]:
        """Runs whose stats differ between passes (or from ``other``)."""
        problems = []
        for key, digests in self.digests.items():
            if other is not None:
                digests = digests | other.digests.get(key, set())
            if len(digests) > 1:
                problems.append(
                    f"{'/'.join(map(str, key))}: stats differ between runs")
        return problems

    def samples(self) -> dict:
        """Every raw timing of the phase, for the report."""
        return {
            "host_s": self.host.samples,
            "op_s": self.latencies,
            "op_keys": ["/".join(key) for key in self.timed_keys],
        }

    def run_lines(self) -> list[str]:
        """One line per run key: its simulated cycles and stats digest."""
        return [
            f"{'/'.join(map(str, key))} cycles={self.stats[key]['cycles']} "
            f"digest={','.join(sorted(digests))}"
            for key, digests in sorted(self.digests.items())
        ]

    def rollup(self) -> dict:
        """Simulator counters summed over one run of every key."""
        total: dict[str, int] = {}
        for stats in self.stats.values():
            for name, value in stats.items():
                if isinstance(value, int):
                    total[name] = total.get(name, 0) + value
        return total


# ---------------------------------------------------------------------------
# sim-host / sim-dynaspam
# ---------------------------------------------------------------------------
class SimWorkload:
    def __init__(self, name: str, seed: int) -> None:
        self.name = name
        self.scales = kernel_scales(seed)
        self.series = _series(name)
        self.traces: dict = {}

    def setup_round(self) -> None:
        import repro.harness.diskcache as diskcache
        from repro.workloads import generate_trace
        from repro.workloads.suite import clear_trace_cache

        diskcache.configure(enabled=False)
        clear_trace_cache()
        self.traces = {
            abbrev: generate_trace(abbrev, scale)
            for abbrev, scale in self.scales.items()
        }

    def measure(self, seconds: float, passes: int | None = None) -> RunLog:
        """Complete passes over kernels x series until ``seconds`` elapse
        (or exactly ``passes`` passes)."""
        log = RunLog()
        clock = time.perf_counter
        start = clock()
        while (log.passes < passes) if passes is not None else (
                log.passes == 0 or clock() - start < seconds):
            for abbrev, trace in self.traces.items():
                for series, config in self.series:
                    log.host.mark()
                    t0 = clock()
                    result = _simulate(trace, config)
                    elapsed = clock() - t0
                    log.add((abbrev, series), result.stats.as_dict(),
                            trace.dynamic_count, elapsed)
            log.passes += 1
        log.wall_s = clock() - start
        log.note(log.repeat_problems())
        return log

    def end_to_end(self, log: RunLog) -> dict:
        """Calibrated to the nominal host (see hostclock.py)."""
        runs = log.run_s()
        return {
            "sim_instr_per_s": log.rate(sum(runs)),
            "latency_p50_s": median(runs),
            "latency_p90_s": tail(runs),
            "sim_cycles": log.rollup()["cycles"],
        }

    def native(self, log: RunLog) -> dict:
        return {
            "measured_instr_per_s": (
                log.rate(sum(log.run_s(calibrated=False))), "instr/s"),
            "host_factor": (log.host.factor(), "x nominal"),
            "run_p50_s": (median(log.latencies), "s"),
            "sim_cycles": (log.rollup()["cycles"], "cycles (simulated)"),
            "passes": (log.passes, "count"),
            "runs": (len(log.latencies), "count"),
        }


# ---------------------------------------------------------------------------
# bench-cold
# ---------------------------------------------------------------------------
class BenchColdWorkload:
    """Every sweep starts from a fresh cache directory made beforehand
    (``setup_round`` for the first, the previous sweep's checks after)."""

    def __init__(self, seed: int, jobs: int, scratch) -> None:
        self.scale = sweep_scale(seed)
        self.jobs = jobs
        self.scratch = scratch
        self.cache_dir = None
        self.speedup_geomeans: list[float] = []

    def _fresh_caches(self) -> None:
        import repro.harness.diskcache as diskcache
        from repro.harness.profiling import PROFILER
        from repro.harness.runner import clear_run_cache
        from repro.workloads.suite import clear_trace_cache

        if self.cache_dir is not None:
            self.scratch.remove(self.cache_dir)
        self.cache_dir = self.scratch.fresh("cache")
        diskcache.configure(enabled=True, root=str(self.cache_dir))
        clear_run_cache()
        clear_trace_cache()
        PROFILER.reset()

    setup_round = _fresh_caches

    def _check_sweep(self, log: RunLog, result) -> None:
        """Read the sweep's runs back (memory hits) and check each one."""
        import repro.harness.diskcache as diskcache
        from repro.harness.experiments import PAPER_ORDER
        from repro.harness.profiling import PROFILER
        from repro.harness.runner import run_baseline, run_dynaspam
        from repro.workloads import generate_trace

        log.runs_simulated += PROFILER.counters.get("runs_simulated", 0)
        for counters in diskcache.shared_stats().values():
            for name in log.disk:
                log.disk[name] += counters.get(name, 0)
        scale = self.scale
        for abbrev in PAPER_ORDER:
            count = generate_trace(abbrev, scale).dynamic_count
            runs = (
                ("baseline", run_baseline(abbrev, scale)),
                ("mapping", run_dynaspam(abbrev, scale, mode="mapping_only")),
                ("no_spec", run_dynaspam(abbrev, scale, speculation=False)),
                ("spec", run_dynaspam(abbrev, scale)),
            )
            for series, run in runs:
                log.add((abbrev, series), run.stats.as_dict(), count)
        self.speedup_geomeans.append(result.series_geomean("spec"))
        log.bytes_written += dir_bytes(self.cache_dir)

    def measure(self, seconds: float, sweeps: int | None = None,
                tracer=None) -> RunLog:
        """Cold sweeps until ``seconds`` elapse (or exactly ``sweeps``).

        The checks read every run and trace back; under ``tracer`` they
        run paused, so they count as the benchmark's own time.
        """
        import contextlib

        from repro.harness.experiments import figure8_performance

        log = RunLog(SWEEP_CALIBRATION)
        clock = time.perf_counter
        start = clock()
        while (log.passes < sweeps) if sweeps is not None else (
                log.passes == 0 or clock() - start < seconds):
            log.host.mark(SWEEP_SLICES)
            t0 = clock()
            result = figure8_performance(self.scale, jobs=self.jobs)
            elapsed = clock() - t0
            log.latencies.append(elapsed)
            with tracer.paused() if tracer else contextlib.nullcontext():
                self._check_sweep(log, result)
                self._fresh_caches()
            log.passes += 1
        log.wall_s = clock() - start
        log.note(log.repeat_problems())
        if len(set(self.speedup_geomeans)) > 1:
            log.note(["speedup geomean differs between sweeps"])
        return log

    def close(self) -> None:
        if self.cache_dir is not None:
            self.scratch.remove(self.cache_dir)
            self.cache_dir = None

    def end_to_end(self, log: RunLog) -> dict:
        """Calibrated to the nominal host (see hostclock.py)."""
        sweeps = log.calibrated()
        return {
            "sim_instr_per_s": log.rate(median(sweeps)),
            "latency_p50_s": median(sweeps),
            "latency_p90_s": tail(sweeps),
            "sim_cycles": log.rollup()["cycles"],
        }

    def native(self, log: RunLog) -> dict:
        return {
            "bench_cold_s": (median(log.latencies), "s"),
            "measured_instr_per_s": (log.rate(median(log.latencies)),
                                     "instr/s"),
            "host_factor": (log.host.factor(), "x nominal"),
            "sim_cycles": (log.rollup()["cycles"], "cycles (simulated)"),
            "speedup_geomean": (self.speedup_geomeans[0], "x (simulated)"),
            "sweeps": (log.passes, "count"),
            "scale": (self.scale, "scale"),
        }
