"""Bit-identity of the compiled fast path against the interpreted model.

The compiled fast path (``repro.ooo.fastpath`` + ``repro.fabric.compiled``)
is an *implementation* choice, never a modeling choice: every cycle
count, statistic, report byte, and traced event sequence must be exactly
what the interpreted reference model produces.  These tests sweep the
full kernel suite across execution modes with the fast path on and off
and demand byte equality, not closeness, of the serialized results.
Nothing is scrubbed or filtered before comparing.
"""

import json

import pytest

from repro.core import DynaSpAM, DynaSpAMConfig
from repro.engine import fastpath_enabled, set_fastpath, use_fastpath
from repro.ooo.config import CoreConfig
from repro.ooo.fastpath import FastOOOPipeline, make_pipeline
from repro.ooo.pipeline import InstrTiming, OOOPipeline
from repro.workloads import ALL_ABBREVS, generate_trace

SCALE = 0.04

#: (mode, speculation) variants covering every engine code path: the
#: plain host pipeline, all fabric execution tiers, speculation off
#: (conservative memory context), and the mapping-only ablation.
VARIANTS = (
    ("baseline", True),
    ("accelerate", True),
    ("accelerate", False),
    ("mapping_only", True),
)

#: Both fast-path settings; False is the pure interpreted reference.
TIER_COMBOS = (False, True)


def _run_cell(abbrev: str, mode: str, speculation: bool, fast: bool) -> str:
    """One simulation with the engine forced, serialized canonically.

    Machines are constructed directly — not through the harness run
    caches — so both engines genuinely simulate.
    """
    tr = generate_trace(abbrev, SCALE)
    with use_fastpath(fast):
        if mode == "baseline":
            result = make_pipeline().run_trace(tr.trace)
        else:
            machine = DynaSpAM(
                ds_config=DynaSpAMConfig(mode=mode, speculation=speculation)
            )
            result = machine.run(tr.trace, tr.program)
    return _serialize(result)


@pytest.mark.parametrize("abbrev", ALL_ABBREVS)
def test_engine_bit_identity(abbrev):
    for mode, speculation in VARIANTS:
        interpreted, fast = (
            _run_cell(abbrev, mode, speculation, fast)
            for fast in TIER_COMBOS
        )
        assert fast == interpreted, (
            f"{abbrev} {mode} spec={speculation}: engines diverge"
        )


def _serialize(result) -> str:
    return json.dumps(
        {"cycles": result.cycles, "stats": result.stats.as_dict()},
        sort_keys=True,
    )


#: A scale at which these kernels' baseline runs cross at least three
#: slot-window prunes, where the fast run loop writes its cursors back.
PRUNE_SCALE = 0.3


@pytest.mark.parametrize("abbrev", ("KM", "BP"))
def test_baseline_identity_across_prunes(abbrev):
    trace = generate_trace(abbrev, PRUNE_SCALE).trace
    assert len(trace) > 3 * OOOPipeline.PRUNE_INTERVAL
    assert (_serialize(FastOOOPipeline().run_trace(trace))
            == _serialize(OOOPipeline().run_trace(trace)))


def _violation_trace():
    """A loop whose load aliases a store with late data: the kernels
    never violate memory order on the host, this trace does, so store
    sets train and the squash path runs."""
    from repro.isa.builder import ProgramBuilder
    from repro.isa.executor import FunctionalExecutor

    b = ProgramBuilder("violation")
    b.li("r1", 0x100)
    b.li("r5", 64)
    with b.countdown("loop", "r3", 40):
        b.div("r2", "r5", "r3")   # slow producer of the store data
        b.sw("r1", "r2", 0)
        b.lw("r4", "r1", 0)       # aliases the store
    b.halt()
    return FunctionalExecutor().run(b.build()).trace


#: Baseline pipelines on and off the default memory-speculation path:
#: (name, config, conservative_memory).
MEMORY_VARIANTS = (
    ("speculative", None, False),
    ("conservative", None, True),
    ("no_storesets", CoreConfig(storesets_enabled=False), False),
)


@pytest.mark.parametrize(
    "name,config,conservative", MEMORY_VARIANTS,
    ids=[v[0] for v in MEMORY_VARIANTS],
)
def test_baseline_memory_variant_identity(name, config, conservative):
    traces = [generate_trace(a, SCALE).trace for a in ALL_ABBREVS]
    traces.append(_violation_trace())
    changed = False
    for trace in traces:
        fast = _serialize(
            FastOOOPipeline(config, conservative).run_trace(trace)
        )
        reference = _serialize(
            OOOPipeline(config, conservative).run_trace(trace)
        )
        assert fast == reference, name
        changed |= fast != _serialize(FastOOOPipeline().run_trace(trace))
    if name != "speculative":
        assert changed, f"{name} never changed a result: branch not run"


#: Machines for the per-instruction tests: the Table 4 core, and one
#: whose ROB, RS, LQ and SQ are small enough that every capacity ring
#: binds (with the default queues the LQ and SQ never fill on these
#: kernels, so a lost ring cursor would go unseen).
PIPELINE_CONFIGS = (
    ("table4", None),
    ("tight", CoreConfig(rob_entries=24, rs_entries=12, load_queue=1,
                         store_queue=1)),
)


@pytest.mark.parametrize(
    "config", [c for _, c in PIPELINE_CONFIGS],
    ids=[name for name, _ in PIPELINE_CONFIGS],
)
def test_process_timings_match_reference(config):
    """``process()`` returns the interpreted model's ``InstrTiming`` for
    every instruction, not just the same end-of-run totals."""
    trace = generate_trace("KM", SCALE).trace
    fast, reference = FastOOOPipeline(config), OOOPipeline(config)
    timings = [fast.process(dyn) for dyn in trace]
    assert all(type(t) is InstrTiming for t in timings)
    assert timings == [reference.process(dyn) for dyn in trace]
    assert _cursors(fast) == _cursors(reference)
    assert _serialize(fast.finish()) == _serialize(reference.finish())


def _cursors(pipeline) -> tuple:
    """Every cursor the fast run loop keeps in locals, as the pipeline
    object holds it between runs."""
    rings = tuple(
        (ring._head, ring._count)
        for ring in (pipeline.rob, pipeline.rs, pipeline.lq, pipeline.sq)
    )
    return (
        pipeline.seq, pipeline.next_fetch_cycle, pipeline.fetch_barrier,
        pipeline.prev_dispatch_cycle, pipeline.prev_commit_cycle,
        pipeline.last_commit_cycle, pipeline._last_fetch_block,
        pipeline._ops_since_prune, dict(pipeline._stall_credit),
        pipeline.regs.renames, rings, pipeline.rob.last_commit_cycle,
        pipeline.fus._max_claimed,
    )


@pytest.mark.parametrize(
    "config", [c for _, c in PIPELINE_CONFIGS],
    ids=[name for name, _ in PIPELINE_CONFIGS],
)
def test_mixed_process_and_run_chunks_match_run_trace(config):
    """One pipeline fed alternating ``process()`` calls and ``_run``
    chunks of varying length (some spanning prunes) times every
    instruction exactly as one ``run_trace`` does, and holds the
    reference model's cursors after every call."""
    trace = generate_trace("KM", PRUNE_SCALE).trace
    assert len(trace) > 3 * OOOPipeline.PRUNE_INTERVAL
    whole = _serialize(FastOOOPipeline(config).run_trace(trace))

    reference = OOOPipeline(config)
    mixed = FastOOOPipeline(config)
    index, chunk = 0, 1
    while index < len(trace):
        dyn = trace[index]
        assert mixed.process(dyn) == reference.process(dyn)
        assert _cursors(mixed) == _cursors(reference)
        assert mixed._credit_total == sum(mixed._stall_credit.values())
        index += 1
        piece = trace[index:index + chunk]
        timings = []
        mixed._run(piece, timings)
        assert timings == [reference.process(dyn) for dyn in piece]
        assert _cursors(mixed) == _cursors(reference)
        index += chunk
        chunk = chunk * 7 % 5003
    assert _serialize(mixed.finish()) == whole


def test_simulation_report_bit_identity(tmp_path, monkeypatch):
    """The full ``repro run --json`` report is byte-identical with the
    fast path on and off.

    Each setting gets its own disk-cache root and a cleared in-memory
    layer, so neither can serve the other's simulation back.
    """
    from repro.harness import diskcache
    from repro.harness.runner import clear_run_cache, simulation_report

    reports = {}
    for fast in TIER_COMBOS:
        clear_run_cache()
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / f"f{int(fast)}"))
        diskcache.configure()  # drop memoized cache objects, re-read env
        with use_fastpath(fast):
            reports[fast] = json.dumps(
                simulation_report("NW", SCALE), sort_keys=True
            )
    clear_run_cache()
    diskcache.configure()
    assert reports[True] == reports[False]


def _event_stream(fast: bool):
    from repro.obs import MemorySink

    tr = generate_trace("KM", SCALE)
    sink = MemorySink()
    with use_fastpath(fast):
        machine = DynaSpAM(
            ds_config=DynaSpAMConfig(mode="accelerate"), sink=sink
        )
        machine.run(tr.trace, tr.program)
    return [
        (e.seq, e.type, e.cycle, tuple(sorted(e.data.items())))
        for e in sink.events
    ]


def test_traced_event_streams_identical():
    """Tracing sees exactly the same event sequence from both fastpath
    settings."""
    streams = {fast: _event_stream(fast) for fast in TIER_COMBOS}
    assert streams[True], "traced run produced no events"
    assert streams[True] == streams[False]


def test_engine_flag_roundtrip(monkeypatch):
    previous = set_fastpath(True)
    try:
        assert fastpath_enabled()
        with use_fastpath(False):
            assert not fastpath_enabled()
            with use_fastpath(True):
                assert fastpath_enabled()
            assert not fastpath_enabled()
        assert fastpath_enabled()
        assert isinstance(make_pipeline(), FastOOOPipeline)
        set_fastpath(False)
        pipeline = make_pipeline()
        assert type(pipeline) is OOOPipeline
    finally:
        set_fastpath(previous)


def test_hot_structures_stay_bounded():
    """Slot windows, FU occupancy, and store indexes must not grow with
    trace length — the in-place pruning contract of the fast path."""
    tr = generate_trace("KM", 0.3)
    with use_fastpath(True):
        pipeline = make_pipeline()
        assert isinstance(pipeline, FastOOOPipeline)
        result = pipeline.run_trace(tr.trace)
    instructions = result.stats.instructions
    bound = 3 * OOOPipeline.PRUNE_INTERVAL
    assert instructions > bound, "trace too short to exercise pruning"
    assert len(pipeline._fetch_counts) < bound
    assert len(pipeline._issue_counts) < bound
    assert len(pipeline._commit_counts) < bound
    for pool_busy in pipeline.fus._busy.values():
        assert len(pool_busy) < bound
    entries = pipeline.sq.entries
    assert len(pipeline.sq._window) <= entries
    assert len(pipeline.sq._by_addr) <= entries
    assert len(pipeline._store_by_seq) <= 2 * entries + 1
