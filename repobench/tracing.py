"""Call tracing for the benchmark's traced mode (``--trace 1``).

The simulator is left untouched: the tracer replaces a layer's public
entry points (class methods and module functions) with timing wrappers
while the traced phase runs, and restores the originals afterwards.

Every wrapped call is charged to its name: a call count, its duration,
and its self time (the duration minus the time its wrapped children
took, tracked on a per-process call stack).  Calls that happen once per
run or per batch also leave a span record: id, name, start, end and
parent id, all under one run id.  Calls made once per simulated
instruction or invocation (``ooo.process``, ``core.tcache.feed``, ...)
are only aggregated, which keeps memory bounded at millions of calls.
Spans stay in memory and are written out when the run ends.

Wrappers installed before a process pool forks are inherited by its
workers.  The wrapped worker entry points reset the inherited state on
first use in a new process and write the worker's totals to
``<out_dir>/worker-<pid>.json`` after every batch, so the parent can
merge them.
"""

from __future__ import annotations

import contextlib
import functools
import json
import os
import threading
import time
import uuid
from pathlib import Path

#: (traced name, module, class, method) of every wrapped method.
_CLASS_METHODS = (
    ("ooo.process", "repro.ooo.pipeline", "OOOPipeline", "process"),
    ("ooo.process", "repro.ooo.fastpath", "FastOOOPipeline", "process"),
    ("ooo.run_trace", "repro.ooo.pipeline", "OOOPipeline", "run_trace"),
    ("ooo.run_trace", "repro.ooo.fastpath", "FastOOOPipeline", "run_trace"),
    ("core.tcache.feed", "repro.core.tcache", "TraceWindowBuilder", "feed"),
    ("core.tcache.observe", "repro.core.tcache", "TCache", "observe"),
    ("core.config_cache.lookup", "repro.core.config_cache", "ConfigCache",
     "lookup"),
    ("core.config_cache.insert", "repro.core.config_cache", "ConfigCache",
     "insert"),
    ("core.mapper.map_trace", "repro.core.mapper", "ResourceAwareMapper",
     "map_trace"),
    ("core.mapper.map_trace", "repro.core.naive_mapper", "NaiveMapper",
     "map_trace"),
    ("core.offload.offload", "repro.core.offload", "OffloadEngine",
     "offload"),
    ("core.multifabric.acquire", "repro.core.multifabric", "FabricPool",
     "acquire"),
    ("core.run", "repro.core.framework", "DynaSpAM", "run"),
    ("fabric.execute", "repro.fabric.fabric", "SpatialFabric", "execute"),
    ("isa.execute", "repro.isa.executor", "FunctionalExecutor", "run"),
    ("harness.diskcache.get", "repro.harness.diskcache", "DiskCache", "get"),
    ("harness.diskcache.put", "repro.harness.diskcache", "DiskCache", "put"),
)

#: Module-level functions, patched in every module that binds the name.
_FUNCTIONS = (
    ("workloads.generate_trace", "generate_trace",
     ("repro.workloads.suite", "repro.workloads", "repro.harness.runner")),
    ("harness.runner.execute_spec", "execute_spec",
     ("repro.harness.runner", "repro.harness.parallel")),
    ("harness.parallel.execute_runs", "execute_runs",
     ("repro.harness.parallel",)),
)

#: Functions a forked worker runs per batch (worker entry points).
_WORKER_ENTRIES = (
    ("harness.parallel.worker_batch", "repro.harness.parallel",
     "_worker_batch"),
    ("service.worker_batch", "repro.service.workers", "_process_batch"),
)

#: Names called once per simulated instruction or fabric invocation:
#: aggregated only, never recorded as individual spans.
_AGGREGATE_ONLY = frozenset({
    "ooo.process", "core.tcache.feed", "core.tcache.observe",
    "core.config_cache.lookup", "core.config_cache.insert",
    "core.offload.offload", "core.multifabric.acquire", "fabric.execute",
})

#: Per-call tallies from a call's result, summed in the fourth slot of a
#: name's aggregate: successful mappings, successful offloads, and the
#: dynamic instructions each trace generation produced.
_TALLY = {
    "core.mapper.map_trace": lambda result: result is not None,
    "core.offload.offload": lambda result: result.success,
    "isa.execute": lambda result: result.dynamic_count,
}


class Tracer:
    """Per-process call aggregates and span records for one run id."""

    def __init__(self, out_dir: Path, run_id: str | None = None) -> None:
        self.out_dir = Path(out_dir)
        self.run_id = run_id or uuid.uuid4().hex[:12]
        self.stack: list[list] = []
        #: name -> [calls, total_s, self_s, tally]
        self.agg: dict[str, list] = {}
        #: (span id, name, start, end, parent id)
        self.spans: list[tuple] = []
        self._ids = iter(range(1, 1 << 62))
        self._patches: list[tuple] = []
        self.pid = os.getpid()
        self.thread = threading.get_ident()

    # ------------------------------------------------------------------
    def _entry(self, name: str) -> list:
        entry = self.agg.get(name)
        if entry is None:
            entry = self.agg[name] = [0, 0.0, 0.0, 0]
        return entry

    def _reset_after_fork(self) -> None:
        """Forget the state a forked worker inherited from its parent."""
        self.stack.clear()
        for entry in self.agg.values():
            entry[:] = [0, 0.0, 0.0, 0]
        self.spans.clear()
        self.pid = os.getpid()
        self.thread = threading.get_ident()

    def _wrapper(self, fn, name: str, worker: bool = False):
        entry = self._entry(name)
        tally = _TALLY.get(name)
        record = name not in _AGGREGATE_ONLY
        stack = self.stack
        spans = self.spans
        ids = self._ids
        clock = time.perf_counter
        get_ident = threading.get_ident
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if worker and os.getpid() != tracer.pid:
                tracer._reset_after_fork()
            if get_ident() != tracer.thread:
                return fn(*args, **kwargs)
            parent = stack[-1][1] if stack else 0
            frame = [0.0, next(ids) if record else parent]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                elapsed = end - start
                entry[0] += 1
                entry[1] += elapsed
                entry[2] += elapsed - frame[0]
                if stack:
                    stack[-1][0] += elapsed
                if record:
                    spans.append((frame[1], name, start, end, parent))
            if tally is not None:
                entry[3] += tally(result)
            if worker:
                tracer.flush_worker()
            return result

        return wrapper

    @contextlib.contextmanager
    def span(self, name: str):
        """A span around the benchmark's own code (same accounting)."""
        entry = self._entry(name)
        parent = self.stack[-1][1] if self.stack else 0
        frame = [0.0, next(self._ids)]
        self.stack.append(frame)
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            self.stack.pop()
            elapsed = end - start
            entry[0] += 1
            entry[1] += elapsed
            entry[2] += elapsed - frame[0]
            if self.stack:
                self.stack[-1][0] += elapsed
            self.spans.append((frame[1], name, start, end, parent))

    @contextlib.contextmanager
    def paused(self):
        """Let wrapped calls through unrecorded (the benchmark's checks)."""
        owner, self.thread = self.thread, None
        try:
            yield
        finally:
            self.thread = owner

    # ------------------------------------------------------------------
    def install(self) -> None:
        """Wrap every listed entry point (idempotent per tracer)."""
        import importlib

        if self._patches:
            return
        for name, module_name, cls_name, attr in _CLASS_METHODS:
            owner = getattr(importlib.import_module(module_name), cls_name)
            if attr in owner.__dict__:
                self._patch(owner, attr, self._wrapper(
                    owner.__dict__[attr], name))
        for name, attr, modules in _FUNCTIONS:
            original = getattr(importlib.import_module(modules[0]), attr)
            wrapped = self._wrapper(original, name)
            for module_name in modules:
                module = importlib.import_module(module_name)
                if getattr(module, attr) is original:
                    self._patch(module, attr, wrapped)
        for name, module_name, attr in _WORKER_ENTRIES:
            module = importlib.import_module(module_name)
            self._patch(module, attr, self._wrapper(
                getattr(module, attr), name, worker=True))

    def _patch(self, owner, attr, value) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # ------------------------------------------------------------------
    def snapshot(self) -> dict:
        return {
            "run_id": self.run_id,
            "pid": self.pid,
            "agg": {name: list(entry) for name, entry in self.agg.items()},
            "spans": [list(span) for span in self.spans],
        }

    def flush_worker(self) -> None:
        """Write this worker's cumulative totals for the parent to merge."""
        self.out_dir.mkdir(parents=True, exist_ok=True)
        path = self.out_dir / f"worker-{self.pid}.json"
        tmp = path.with_suffix(".tmp")
        tmp.write_text(json.dumps(self.snapshot()))
        os.replace(tmp, path)

    def worker_snapshots(self) -> list[dict]:
        if not self.out_dir.is_dir():
            return []
        return [
            json.loads(path.read_text())
            for path in sorted(self.out_dir.glob("worker-*.json"))
        ]


def merge_aggregates(snapshots) -> dict[str, list]:
    """Sum ``agg`` blocks of several process snapshots."""
    total: dict[str, list] = {}
    for snap in snapshots:
        for name, values in snap["agg"].items():
            entry = total.setdefault(name, [0, 0.0, 0.0, 0])
            for index, value in enumerate(values):
                entry[index] += value
    return total


#: Layers reported with a self time, in the order the README lists them.
LAYERS = ("workloads", "isa", "ooo", "core", "fabric", "harness", "service",
          "bench")


#: Spans whose self time is mostly a wait on worker processes, whose own
#: spans already count that time.
_POOL_WAITS = frozenset({"harness.parallel.execute_runs"})


def layer_self_times(agg: dict[str, list]) -> dict[str, float]:
    """Self seconds per layer (a name's layer is its first component),
    summed over processes, leaving out the parent's waits on a pool."""
    out = {layer: 0.0 for layer in LAYERS}
    for name, (_calls, _dur, self_s, _tally) in agg.items():
        if name not in _POOL_WAITS:
            layer = name.split(".", 1)[0]
            out[layer] = out.get(layer, 0.0) + self_s
    return out


def pool_shape(worker_snaps, entry_name: str, start: float, end: float,
               workers: int) -> dict:
    """Worker busy ratio and tail of one pool, from the worker spans.

    ``start``/``end`` bound the pool in the parent's clock
    (``perf_counter`` is system-wide monotonic, shared across forks).
    """
    busy = 0.0
    last_ends = []
    for snap in worker_snaps:
        spans = [span for span in snap["spans"]
                 if span[1] == entry_name and start <= span[2] <= end]
        busy += sum(span[3] - span[2] for span in spans)
        if spans:
            last_ends.append(max(span[3] for span in spans))
    return {
        "busy_ratio": busy / (workers * max(end - start, 1e-9)),
        "tail_s": (end - min(last_ends)) if last_ends else 0.0,
    }
