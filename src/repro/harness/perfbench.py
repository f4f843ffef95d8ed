"""Simulator-throughput benchmark (``repro perfbench``).

``repro bench`` answers "is the *model* still right and how long does the
sweep take end to end"; this module answers a different question: **how
fast does the simulator itself execute**, in dynamic instructions per
second and fabric invocations per second, per kernel and mode, for each
engine.  The "fast" engine is the full production stack — the compiled
fast path of ``repro.ooo.fastpath`` / ``repro.fabric.compiled`` *plus*
the invocation-timing memo of ``repro.fabric.memo`` — while
"interpreted" forces both tiers off, i.e. the pure reference model, so
the reported speedup is the whole optimization stack against the
reference.

Methodology:

* Traces are generated *before* the timer starts — trace synthesis is
  workload generation, not simulation, and must not pollute throughput.
* Every measurement constructs the machine fresh and runs it directly,
  bypassing the run caches entirely (a cache hit would measure nothing).
* Timing is serial, one cell at a time, on ``time.perf_counter``.  The
  engines are interleaved per (kernel, mode) cell, alternating which
  runs first on each repeat, so the fast/interpreted ratio the CI gate
  checks compares the same host moment.  With ``repeat > 1`` each
  engine keeps its best (minimum-time) repetition, which filters
  scheduler noise without averaging it in.
* The report carries the same provenance block as every other report
  (schema version + code fingerprint) so the regression gate
  (``scripts/check_perf_regression.py``) can refuse stale baselines.

The resulting JSON feeds the CI ``perfbench`` job: the gate fails the
build when the fast engine's geomean instructions/sec regresses more than
the threshold against the committed baseline, or when the fast-vs-
interpreted speedup falls below the floor recorded at PR time.
"""

from __future__ import annotations

import math
import time

from repro.engine import use_fastpath, use_memo

#: Version of the perfbench JSON layout (independent of the simulation
#: report schema — throughput reports are not `repro diff` inputs).
#: v2: memo-tier counters per cell and per engine; cells with zero
#: invocations report ``invocations_per_sec: null`` instead of ``0.0``.
PERFBENCH_SCHEMA_VERSION = 2

#: The Figure 8 suite's execution modes.
MODES = ("baseline", "mapping_only", "accelerate")

ENGINES = ("fast", "interpreted")


def _geomean(values) -> float:
    values = [v for v in values if v is not None and v > 0]
    if not values:
        return 0.0
    return math.exp(sum(math.log(v) for v in values) / len(values))


def _time_once(trace, mode: str, engine: str) -> tuple[float, object]:
    """Run one (kernel, mode, engine) cell once; returns (seconds, result)."""
    from repro.core import DynaSpAM, DynaSpAMConfig
    from repro.ooo.fastpath import make_pipeline

    # "fast" is the production stack (compiled fastpath + invocation
    # memo); "interpreted" is the pure reference with both tiers off.
    fast = engine == "fast"
    with use_fastpath(fast), use_memo(fast):
        if mode == "baseline":
            pipeline = make_pipeline()
            started = time.perf_counter()
            result = pipeline.run_trace(trace.trace)
        else:
            machine = DynaSpAM(ds_config=DynaSpAMConfig(mode=mode))
            started = time.perf_counter()
            result = machine.run(trace.trace, trace.program)
        return time.perf_counter() - started, result


def _cell_record(mode: str, engine: str, elapsed: float, result) -> dict:
    """The JSON record of one timed cell."""
    stats = result.stats
    instructions = stats.instructions
    invocations = getattr(stats, "fabric_invocations", 0)
    elapsed = max(elapsed, 1e-9)
    return {
        "mode": mode,
        "engine": engine,
        "instructions": instructions,
        "simulated_cycles": result.cycles,
        "wall_seconds": elapsed,
        "instr_per_sec": instructions / elapsed,
        "invocations": invocations,
        # A cell that never invoked the fabric (baseline mode, or a
        # kernel whose traces never became ready) has no invocation
        # throughput — null, not a misleading 0.0 that would poison
        # ratio math downstream.
        "invocations_per_sec": (
            invocations / elapsed if invocations else None
        ),
        "memo_hits": getattr(stats, "invocation_memo_hits", 0),
        "memo_misses": getattr(stats, "invocation_memo_misses", 0),
        "batched_invocations": getattr(stats, "batched_invocations", 0),
    }


def _measure_pair(trace, mode: str, engines, repeat: int) -> dict:
    """Time every engine on one (kernel, mode) cell, interleaved.

    Each repeat runs all engines back to back, alternating which goes
    first, so the fast/interpreted ratio compares the same host moment
    instead of two passes minutes apart.  Returns engine -> cell record
    built from that engine's best (minimum-time) repeat.
    """
    best: dict[str, tuple[float, object]] = {}
    for index in range(max(1, repeat)):
        order = engines if index % 2 == 0 else tuple(reversed(engines))
        for engine in order:
            elapsed, result = _time_once(trace, mode, engine)
            if engine not in best or elapsed < best[engine][0]:
                best[engine] = (elapsed, result)
    return {
        engine: _cell_record(mode, engine, *best[engine])
        for engine in engines
    }


def perfbench_report(
    scale: float = 0.1,
    kernels=None,
    modes=MODES,
    engines=ENGINES,
    repeat: int = 1,
    profile: bool = False,
) -> dict:
    """Measure simulator throughput over kernels x modes x engines."""
    from repro.harness.runner import report_provenance
    from repro.workloads import ALL_ABBREVS, generate_trace

    kernels = list(kernels or ALL_ABBREVS)
    started = time.perf_counter()

    # Warm the trace cache up front: after this loop generate_trace is a
    # dictionary lookup and never shows up inside a timed region.
    traces = {abbrev: generate_trace(abbrev, scale) for abbrev in kernels}

    engines = tuple(engines)
    cells_of: dict[str, list] = {engine: [] for engine in engines}
    for abbrev in kernels:
        for mode in modes:
            pair = _measure_pair(traces[abbrev], mode, engines, repeat)
            for engine, cell in pair.items():
                cell["kernel"] = abbrev
                cells_of[engine].append(cell)

    per_engine: dict[str, dict] = {}
    for engine, cells in cells_of.items():
        per_engine[engine] = {
            "cells": cells,
            "geomean_instr_per_sec": _geomean(
                c["instr_per_sec"] for c in cells
            ),
            "geomean_invocations_per_sec": _geomean(
                c["invocations_per_sec"] for c in cells
            ),
            "total_instructions": sum(c["instructions"] for c in cells),
            "total_wall_seconds": sum(c["wall_seconds"] for c in cells),
            "total_memo_hits": sum(c["memo_hits"] for c in cells),
            "total_memo_misses": sum(c["memo_misses"] for c in cells),
            "total_batched_invocations": sum(
                c["batched_invocations"] for c in cells
            ),
        }

    report = {
        **report_provenance(),
        "experiment": "perfbench",
        "perfbench_schema_version": PERFBENCH_SCHEMA_VERSION,
        "scale": scale,
        "repeat": repeat,
        "kernels": kernels,
        "modes": list(modes),
        "engines": per_engine,
        "wall_clock_seconds": time.perf_counter() - started,
    }
    if "fast" in per_engine and "interpreted" in per_engine:
        slow = per_engine["interpreted"]["geomean_instr_per_sec"]
        fast = per_engine["fast"]["geomean_instr_per_sec"]
        report["speedup"] = fast / slow if slow else 0.0
    if profile:
        report["profile"] = _profile_fast_engine(traces, modes)
    return report


def _profile_fast_engine(traces, modes) -> dict:
    """cProfile one fast-engine pass; top functions by cumulative time.

    Complements the harness ``PROFILER`` (whose sections cover the cache
    and experiment layers) with function-level attribution of the
    simulation hot loop itself; the harness profiler's snapshot rides
    along so both views land in one report.
    """
    import cProfile
    import pstats

    from repro.harness.profiling import PROFILER

    profiler = cProfile.Profile()
    profiler.enable()
    with PROFILER.section("perfbench_profile_pass"):
        for trace in traces.values():
            for mode in modes:
                _time_once(trace, mode, "fast")
    profiler.disable()
    stats = pstats.Stats(profiler)
    stats.sort_stats("cumulative")
    top = []
    for func, (cc, nc, tottime, cumtime, _callers) in sorted(
        stats.stats.items(), key=lambda item: item[1][3], reverse=True
    ):
        filename, line, name = func
        if "cProfile" in filename or filename.startswith("<"):
            continue
        top.append({
            "function": f"{filename}:{line}({name})",
            "calls": nc,
            "tottime": round(tottime, 6),
            "cumtime": round(cumtime, 6),
        })
        if len(top) >= 10:
            break
    return {
        "sort": "cumulative",
        "top": top,
        "harness": PROFILER.snapshot(),
    }


def render_perfbench(report: dict) -> str:
    """One-screen human summary of a perfbench report."""
    lines = []
    engines = report["engines"]
    for engine in ("fast", "interpreted"):
        if engine not in engines:
            continue
        summary = engines[engine]
        lines.append(
            f"{engine:>12}: {summary['geomean_instr_per_sec']:>12,.0f} "
            f"instr/s geomean | "
            f"{summary['geomean_invocations_per_sec']:>10,.1f} invoc/s | "
            f"{summary['total_wall_seconds']:.2f}s over "
            f"{len(summary['cells'])} cells"
        )
    if "speedup" in report:
        lines.append(f"{'speedup':>12}: {report['speedup']:.2f}x "
                     f"(fast vs interpreted, geomean instr/s)")
    fast = engines.get("fast")
    if fast and "total_memo_hits" in fast:
        probes = fast["total_memo_hits"] + fast["total_memo_misses"]
        rate = fast["total_memo_hits"] / probes if probes else 0.0
        lines.append(
            f"{'memo':>12}: {fast['total_memo_hits']:,} hits / "
            f"{fast['total_memo_misses']:,} misses ({rate:.1%}) | "
            f"{fast['total_batched_invocations']:,} batched invocations"
        )
    return "\n".join(lines)


# ----------------------------------------------------------------------
# ``repro perfbench --compare A.json B.json``


def compare_perfbench(
    baseline: dict, candidate: dict, force: bool = False
) -> dict:
    """Per-cell throughput deltas between two perfbench reports.

    Reuses the compatibility discipline of :mod:`repro.obs.diffing`:
    mismatched perfbench schema versions are refused unless ``force``,
    and a code-fingerprint mismatch is surfaced as a warning (the usual
    case — comparing across commits is the point of the tool).
    """
    from repro.obs.diffing import DiffError

    warnings: list[str] = []
    for name, report in (("baseline", baseline), ("candidate", candidate)):
        if report.get("experiment") != "perfbench":
            raise DiffError(f"{name} report is not a perfbench report")
    a_ver = baseline.get("perfbench_schema_version")
    b_ver = candidate.get("perfbench_schema_version")
    if a_ver != b_ver:
        message = (
            f"perfbench schema mismatch: baseline v{a_ver}, "
            f"candidate v{b_ver}"
        )
        if not force:
            raise DiffError(message + " (use --force to compare anyway)")
        warnings.append(message)
    if baseline.get("fingerprint") != candidate.get("fingerprint"):
        warnings.append(
            "code fingerprints differ (expected when comparing commits)"
        )
    for knob in ("scale", "repeat"):
        if baseline.get(knob) != candidate.get(knob):
            warnings.append(
                f"{knob} differs: baseline {baseline.get(knob)!r}, "
                f"candidate {candidate.get(knob)!r}"
            )

    def _cells(report):
        out = {}
        for engine, summary in report.get("engines", {}).items():
            for cell in summary["cells"]:
                out[(engine, cell["kernel"], cell["mode"])] = cell
        return out

    a_cells, b_cells = _cells(baseline), _cells(candidate)
    rows = []
    for key in sorted(set(a_cells) & set(b_cells)):
        a, b = a_cells[key], b_cells[key]
        ratio = (
            b["instr_per_sec"] / a["instr_per_sec"]
            if a["instr_per_sec"] else None
        )
        rows.append({
            "engine": key[0],
            "kernel": key[1],
            "mode": key[2],
            "baseline_instr_per_sec": a["instr_per_sec"],
            "candidate_instr_per_sec": b["instr_per_sec"],
            "ratio": ratio,
        })
    only_a = sorted(set(a_cells) - set(b_cells))
    only_b = sorted(set(b_cells) - set(a_cells))
    if only_a:
        warnings.append(f"{len(only_a)} cells only in baseline")
    if only_b:
        warnings.append(f"{len(only_b)} cells only in candidate")

    per_engine = {}
    for engine in sorted({row["engine"] for row in rows}):
        per_engine[engine] = _geomean(
            row["ratio"] for row in rows if row["engine"] == engine
        )
    return {
        "kind": "perfbench_compare",
        "warnings": warnings,
        "cells": rows,
        "geomean_ratio": per_engine,
    }


def render_perfbench_compare(comparison: dict) -> str:
    """One-screen delta view: per-cell instr/sec ratio plus geomeans."""
    lines = []
    for warning in comparison["warnings"]:
        lines.append(f"warning: {warning}")
    lines.append(
        f"{'engine':>12} {'kernel':>8} {'mode':>14} "
        f"{'baseline':>14} {'candidate':>14} {'ratio':>8}"
    )
    for row in comparison["cells"]:
        ratio = f"{row['ratio']:.2f}x" if row["ratio"] else "n/a"
        lines.append(
            f"{row['engine']:>12} {row['kernel']:>8} {row['mode']:>14} "
            f"{row['baseline_instr_per_sec']:>14,.0f} "
            f"{row['candidate_instr_per_sec']:>14,.0f} {ratio:>8}"
        )
    for engine, ratio in comparison["geomean_ratio"].items():
        lines.append(
            f"{engine:>12} geomean instr/s ratio: {ratio:.3f}x "
            f"(candidate vs baseline)"
        )
    return "\n".join(lines)
