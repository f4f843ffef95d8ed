"""The repository benchmark: one command, four workloads.

    python3 repobench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; the simulator is imported from its
``src`` directory.  ``--trace 0`` measures the end-to-end metrics with
every telemetry switch off.  ``--trace 1`` measures the same work once
untraced and once with the layers' entry points wrapped, and reports the
per-layer metrics and the tracing overhead.  Human-readable lines start
with ``#``; the last line is one JSON object.  A failed correctness
check makes the exit code 1.  See README.md for the workloads and
metrics.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import subprocess
import sys
import time
import traceback
from pathlib import Path

import hostclock
from common import (
    Scratch, check_environment, isolate_environment, median, nproc,
    peak_rss_mb, provenance,
)

ROOT = Path(__file__).resolve().parent.parent

#: Every simulator module a workload imports; set-up time includes
#: importing them.
IMPORTS = ("repro.core", "repro.harness.experiments", "repro.obs.accounting",
           "repro.ooo.fastpath", "repro.service.client", "repro.workloads")

WORKLOADS = ("sim-host", "sim-dynaspam", "bench-cold", "serve-mixed")

#: (name, unit) of every end-to-end metric, in BENCHMARK.json order.
END_TO_END = (
    ("setup_s", "s"),
    ("sim_instr_per_s", "instr/s"),
    ("latency_p50_s", "s"),
    ("latency_p90_s", "s"),
    ("sim_cycles", "cycles"),
    ("peak_rss_mb", "MB"),
)

#: (name, unit) of every per-layer metric, in BENCHMARK.json order.
PER_LAYER = (
    ("workloads.generate_trace_s", "s"),
    ("isa.trace_instr_per_s", "instr/s"),
    ("ooo.process_calls", "count"),
    ("ooo.process_s", "s"),
    ("core.tcache.feed_calls", "count"),
    ("core.tcache.s", "s"),
    ("core.config_cache.lookups", "count"),
    ("core.config_cache.lookup_s", "s"),
    ("core.config_cache.insert_s", "s"),
    ("core.mapper.calls", "count"),
    ("core.mapper.s", "s"),
    ("core.mapper.success_ratio", "ratio"),
    ("core.offload.calls", "count"),
    ("core.offload.success_ratio", "ratio"),
    ("core.offload.self_s", "s"),
    ("core.multifabric.acquire_calls", "count"),
    ("core.multifabric.reconfigurations", "count"),
    ("core.run_self_s", "s"),
    ("core.predict_memo_hit_ratio", "ratio"),
    ("fabric.execute_calls", "count"),
    ("fabric.execute_s", "s"),
    ("fabric.memo_hit_ratio", "ratio"),
    ("fabric.batched_share", "ratio"),
    ("harness.runner.runs_simulated", "count"),
    ("harness.runner.execute_spec_s", "s"),
    ("harness.diskcache.get_s", "s"),
    ("harness.diskcache.put_s", "s"),
    ("harness.diskcache.hits", "count"),
    ("harness.diskcache.misses", "count"),
    ("harness.diskcache.errors", "count"),
    ("harness.diskcache.bytes_written", "bytes"),
    ("harness.parallel.pool_s", "s"),
    ("harness.parallel.worker_busy_ratio", "ratio"),
    ("harness.parallel.tail_s", "s"),
    ("service.submit_p90_s", "s"),
    ("service.queue_wait_p50_s", "s"),
    ("service.queue_wait_p90_s", "s"),
    ("service.run_p50_s", "s"),
    ("service.coalesce_ratio", "ratio"),
    ("service.worker_busy_ratio", "ratio"),
    ("service.rejected", "count"),
    ("loadgen.late_p90_s", "s"),
    ("workloads.self_s", "s"),
    ("isa.self_s", "s"),
    ("ooo.self_s", "s"),
    ("core.self_s", "s"),
    ("fabric.self_s", "s"),
    ("harness.self_s", "s"),
    ("service.self_s", "s"),
    ("bench.self_s", "s"),
    ("trace.wall_s", "s"),
    ("trace.untraced_wall_s", "s"),
    ("trace.overhead_s", "s"),
    ("trace.accounted_share", "ratio"),
    ("trace.spans", "count"),
)


def _ratio(num, den) -> float:
    return num / den if den else 0.0


def layer_metrics(agg: dict, counters: dict) -> dict:
    """Per-layer metrics from merged call aggregates and run counters."""
    from tracing import layer_self_times

    def get(name, index):
        return agg.get(name, (0, 0.0, 0.0, 0))[index]

    isa_s = get("isa.execute", 1)
    out = {
        "workloads.generate_trace_s": get("workloads.generate_trace", 1),
        "isa.trace_instr_per_s": _ratio(get("isa.execute", 3), isa_s),
        "ooo.process_calls": get("ooo.process", 0),
        "ooo.process_s": get("ooo.process", 1),
        "core.tcache.feed_calls": get("core.tcache.feed", 0),
        "core.tcache.s": (get("core.tcache.feed", 1)
                          + get("core.tcache.observe", 1)),
        "core.config_cache.lookups": get("core.config_cache.lookup", 0),
        "core.config_cache.lookup_s": get("core.config_cache.lookup", 1),
        "core.config_cache.insert_s": get("core.config_cache.insert", 1),
        "core.mapper.calls": get("core.mapper.map_trace", 0),
        "core.mapper.s": get("core.mapper.map_trace", 1),
        "core.mapper.success_ratio": _ratio(get("core.mapper.map_trace", 3),
                                            get("core.mapper.map_trace", 0)),
        "core.offload.calls": get("core.offload.offload", 0),
        "core.offload.success_ratio": _ratio(
            get("core.offload.offload", 3), get("core.offload.offload", 0)),
        "core.offload.self_s": get("core.offload.offload", 2),
        "core.multifabric.acquire_calls": get("core.multifabric.acquire", 0),
        "core.run_self_s": get("core.run", 2),
        "fabric.execute_calls": get("fabric.execute", 0),
        "fabric.execute_s": get("fabric.execute", 1),
        "harness.runner.execute_spec_s": get("harness.runner.execute_spec", 1),
        "harness.diskcache.get_s": get("harness.diskcache.get", 1),
        "harness.diskcache.put_s": get("harness.diskcache.put", 1),
        "harness.parallel.pool_s": get("harness.parallel.execute_runs", 1),
    }
    stats = counters.get("sim", {})
    out["core.multifabric.reconfigurations"] = stats.get(
        "fabric_configurations", 0)
    out["core.predict_memo_hit_ratio"] = _ratio(
        stats.get("predict_memo_hits", 0),
        stats.get("predict_memo_hits", 0) + stats.get("predict_memo_misses", 0))
    out["fabric.memo_hit_ratio"] = _ratio(
        stats.get("invocation_memo_hits", 0),
        stats.get("invocation_memo_hits", 0)
        + stats.get("invocation_memo_misses", 0))
    out["fabric.batched_share"] = _ratio(
        stats.get("batched_invocations", 0),
        stats.get("fabric_invocations", 0))
    for layer, seconds in layer_self_times(agg).items():
        out[f"{layer}.self_s"] = seconds
    out.update(counters.get("layers", {}))
    return {name: out.get(name, 0) for name, _unit in PER_LAYER}


# ---------------------------------------------------------------------------
def _import_seconds() -> float:
    """How long a fresh interpreter takes to import ``IMPORTS``."""
    code = ("import time; t = time.perf_counter(); import "
            + ", ".join(IMPORTS) + "; print(time.perf_counter() - t)")
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    done = subprocess.run([sys.executable, "-c", code], env=env, cwd=ROOT,
                          capture_output=True, text=True, check=True)
    return float(done.stdout)


def _setup(workload, rounds: int) -> float:
    times = []
    for _ in range(rounds):
        started = time.perf_counter()
        workload.setup_round()
        times.append(time.perf_counter() - started)
    return median(times)


def _harness_layers(log, tracer, worker_snaps) -> dict:
    from tracing import pool_shape

    # The sweep runs one batch per kernel, so at most 11 workers.
    shapes = [
        pool_shape(worker_snaps, "harness.parallel.worker_batch",
                   span[2], span[3], min(nproc(), 11))
        for span in tracer.spans
        if span[1] == "harness.parallel.execute_runs"
    ]
    return {
        "harness.runner.runs_simulated": log.runs_simulated,
        "harness.diskcache.hits": log.disk["hits"],
        "harness.diskcache.misses": log.disk["misses"],
        "harness.diskcache.errors": log.disk["errors"],
        "harness.diskcache.bytes_written": log.bytes_written,
        "harness.parallel.worker_busy_ratio": median(
            [shape["busy_ratio"] for shape in shapes]),
        "harness.parallel.tail_s": median(
            [shape["tail_s"] for shape in shapes]),
    }


def run_sim(args, scratch) -> dict:
    from sim import SETUP_ROUNDS, BenchColdWorkload, SimWorkload

    if args.workload == "bench-cold":
        workload = BenchColdWorkload(args.seed, nproc(), scratch)
    else:
        workload = SimWorkload(args.workload, args.seed)
    # The host clock's helper is stopped only after peak RSS was read,
    # so it never counts toward it.
    hostclock.start()
    try:
        setup_s = _setup(workload, SETUP_ROUNDS)
        log = workload.measure(args.seconds)
        out = {
            "attempted": log.attempted,
            "failed": log.failed,
            "problems": log.problems,
            "native": workload.native(log),
            "runs": log.run_lines(),
            "samples": log.samples(),
        }
        if not args.trace:
            out.update(setup_s=setup_s, host=log.host)
            out["metrics"] = {**workload.end_to_end(log),
                              "peak_rss_mb": peak_rss_mb()}
            return out

        from tracing import Tracer, merge_aggregates

        tracer = Tracer(scratch.fresh("trace"))
        tracer.install()
        try:
            with tracer.span("bench.setup"):
                workload.setup_round()
            with tracer.span("bench.measure"):
                if args.workload == "bench-cold":
                    traced = workload.measure(args.seconds, log.passes,
                                              tracer)
                else:
                    traced = workload.measure(args.seconds, log.passes)
        finally:
            tracer.uninstall()
        worker_snaps = tracer.worker_snapshots()
        snaps = [tracer.snapshot(), *worker_snaps]
        agg = merge_aggregates(snaps)
        roots = agg["bench.setup"][1] + agg["bench.measure"][1]
        parent_self = sum(entry[2] for entry in tracer.agg.values())
        layers = {
            "trace.wall_s": roots,
            "trace.untraced_wall_s": setup_s + log.wall_s,
            "trace.overhead_s": roots - (setup_s + log.wall_s),
            "trace.accounted_share": parent_self / roots,
            "trace.spans": sum(len(snap["spans"]) for snap in snaps),
        }
        if args.workload == "bench-cold":
            layers.update(_harness_layers(traced, tracer, worker_snaps))
        traced.note(traced.repeat_problems(log))
        out.update(
            attempted=log.attempted + traced.attempted,
            failed=log.failed + traced.failed,
            problems=log.problems + traced.problems,
            metrics=layer_metrics(agg, {"sim": traced.rollup(),
                                        "layers": layers}),
            spans=snaps,
            run_id=tracer.run_id,
        )
        scratch.remove(tracer.out_dir)
        return out
    finally:
        if hasattr(workload, "close"):
            workload.close()


def run_serve(args, scratch) -> dict:
    from serve import ServeWorkload
    from sim import SETUP_ROUNDS

    workload = ServeWorkload(ROOT, args.seed, args.seconds, nproc(), scratch)
    try:
        setup_s = _setup(workload, SETUP_ROUNDS)
        phase = workload.measure()
        out = {
            "attempted": phase.attempted,
            "failed": phase.failed,
            "problems": phase.problems,
            "native": workload.native(phase),
            "runs": phase.run_lines(),
            "samples": phase.samples(),
        }
        if not args.trace:
            workload.stop()
            out.update(setup_s=setup_s, host=None)
            out["metrics"] = {**workload.end_to_end(phase),
                              "peak_rss_mb": peak_rss_mb()}
            return out

        from tracing import Tracer, merge_aggregates

        tracer = Tracer(scratch.fresh("trace"))
        workload.start(tracer.out_dir, tracer.run_id)
        with tracer.span("bench.measure"):
            traced = workload.measure()
        workload.stop()  # the server writes its totals on exit
        snaps = [tracer.snapshot(), *tracer.worker_snapshots()]
        server = tracer.out_dir / "server.json"
        if server.is_file():
            snaps.append(json.loads(server.read_text()))
        agg = merge_aggregates(snaps)
        sim_stats: dict = {}
        for report in traced.reports:
            for name, value in report["stats"].items():
                if isinstance(value, int):
                    sim_stats[name] = sim_stats.get(name, 0) + value
        delta = traced.delta
        # Serve-mixed has no comparable wall clock (the schedule fixes
        # it), so its overhead is the extra worker busy time.
        layers = {
            **workload.service_layers(traced),
            "harness.runner.runs_simulated": delta["runs_simulated"],
            "harness.diskcache.hits": delta["disk"].get("hits", 0),
            "harness.diskcache.misses": delta["disk"].get("misses", 0),
            "harness.diskcache.errors": delta["disk"].get("errors", 0),
            "harness.diskcache.bytes_written": traced.bytes_written,
            "trace.wall_s": delta["busy_s"],
            "trace.untraced_wall_s": phase.delta["busy_s"],
            "trace.overhead_s": delta["busy_s"] - phase.delta["busy_s"],
            "trace.accounted_share": tracer.agg["bench.measure"][2]
            / tracer.agg["bench.measure"][1],
            "trace.spans": sum(len(snap["spans"]) for snap in snaps),
        }
        out.update(
            attempted=phase.attempted + traced.attempted,
            failed=phase.failed + traced.failed,
            problems=phase.problems + traced.problems,
            metrics=layer_metrics(agg, {"sim": sim_stats, "layers": layers}),
            spans=snaps,
            run_id=tracer.run_id,
        )
        scratch.remove(tracer.out_dir)
        return out
    finally:
        workload.close()


# ---------------------------------------------------------------------------
def _print_human(args, prov: dict, out: dict) -> None:
    print(f"# repobench workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds} trace={args.trace} "
          + " ".join(f"{k}={v}" for k, v in prov.items()))
    for line in out["runs"]:
        print(f"# run {line}")
    for name, (value, unit) in out["native"].items():
        print(f"# {args.workload} {name} = {value:.6g} {unit}")
    attempted, failed = out["attempted"], out["failed"]
    print(f"# failed_ratio = {failed / attempted:.6g} ratio "
          f"({failed} of {attempted} operations)")
    units = dict(END_TO_END if not args.trace else PER_LAYER)
    for name, value in out["metrics"].items():
        print(f"# metric {name} = {value:.6g} {units[name]}")
    for problem in out["problems"][:50]:
        print(f"# CHECK FAILED: {problem}")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    forbidden = check_environment()
    if forbidden:
        print(f"repobench: refusing to run with {', '.join(forbidden)} set",
              file=sys.stderr)
        return 2
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"repobench: no simulator sources under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    isolate_environment()
    sys.path.insert(0, str(ROOT / "src"))
    for module in IMPORTS:
        importlib.import_module(module)
    scratch = Scratch(ROOT)
    prov = provenance()
    try:
        if args.workload == "serve-mixed":
            out = run_serve(args, scratch)
        else:
            out = run_sim(args, scratch)
        if not args.trace:
            # Set-up is the imports plus the median set-up round.  The
            # imports are timed in fresh interpreters, after peak RSS
            # was read, so those children never count toward it.
            from sim import SETUP_ROUNDS

            setup_s = out["setup_s"] + median(
                [_import_seconds() for _ in range(SETUP_ROUNDS)])
            out["native"]["setup_s"] = (setup_s, "s")
            out["metrics"]["setup_s"] = (
                out["host"].seconds(setup_s) if out["host"] else setup_s)
    except Exception:  # noqa: BLE001 - report and exit nonzero
        traceback.print_exc()
        return 1
    finally:
        hostclock.stop()

    report_path = scratch.root / (
        f"report-{args.workload}-seed{args.seed}-trace{args.trace}.json")
    report_path.write_text(json.dumps({
        "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace, **prov,
        "native": out["native"], "metrics": out["metrics"],
        "attempted": out["attempted"], "failed": out["failed"],
        "problems": out["problems"], "samples": out["samples"],
        "run_id": out.get("run_id"),
        "spans": out.get("spans"),
    }, default=repr))
    _print_human(args, prov, out)
    correct = out["failed"] == 0 and not out["problems"]
    units = dict(END_TO_END if not args.trace else PER_LAYER)
    print(json.dumps({
        "correct": correct,
        "attempted": out["attempted"],
        "failed": out["failed"],
        "metrics": {
            name: {"value": value, "unit": units[name]}
            for name, value in out["metrics"].items()
        },
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
