"""Tests for the open-loop load generator and the SLO gate script."""

import json
import subprocess
import sys
from pathlib import Path

import pytest

from repro.service.jobs import JobRequest
from repro.service.loadtest import (
    BURST,
    build_schedule,
    run_loadtest,
    summarize,
)
from repro.service.server import ThreadedServer

SCRIPTS = Path(__file__).resolve().parents[2] / "scripts"


@pytest.fixture()
def cold_caches(tmp_path):
    """Point every cache tier at an empty store so flights really run.

    Duplicate-heavy coalescing is only observable when a flight stays
    open long enough for its duplicates to arrive; warm caches close
    flights in microseconds and hide the behaviour under test.
    """
    import repro.harness.diskcache as diskcache
    from repro.harness.runner import clear_run_cache
    from repro.workloads.suite import clear_trace_cache

    diskcache.configure(enabled=True, root=str(tmp_path / "cache"))
    clear_run_cache()
    clear_trace_cache()
    yield
    diskcache.configure()
    clear_run_cache()
    clear_trace_cache()


def _keys(payloads):
    return [JobRequest.from_payload(p).run_key for p in payloads]


def test_build_schedule_duplicate_heavy_bursts_share_run_keys():
    payloads = build_schedule("duplicate-heavy", 12)
    keys = _keys(payloads)
    for start in range(0, 12, BURST):
        burst = keys[start:start + BURST]
        assert len(set(burst)) == 1  # whole burst shares one RunKey
    assert len(set(keys)) <= 12 // BURST  # heavy duplication overall


def test_build_schedule_cold_heavy_is_all_unique():
    payloads = build_schedule("cold-heavy", 30)
    keys = _keys(payloads)
    assert len(set(keys)) == 30


def test_build_schedule_is_deterministic_and_mix_checked():
    assert build_schedule("mixed", 10, seed=7) == build_schedule(
        "mixed", 10, seed=7
    )
    with pytest.raises(ValueError):
        build_schedule("tepid", 10)


@pytest.mark.parametrize("knobs", [
    {"total": 0},
    {"total": -5},
    {"duration": 0},
    {"duration": -1.0},
])
def test_run_loadtest_rejects_empty_schedule_before_connecting(knobs):
    # Port 1 is never listening: validation must fail first, with a
    # ValueError rather than ServiceUnreachable.
    with pytest.raises(ValueError):
        run_loadtest(port=1, rate=2.0, **knobs)


def test_run_loadtest_duplicate_heavy_coalesces_and_conserves(cold_caches):
    with ThreadedServer(queue_depth=64, workers=2) as server:
        report = run_loadtest(
            port=server.port, rate=50.0, total=9,
            mix="duplicate-heavy", timeout=120,
        )
    client = report["client"]
    server_side = report["server"]
    assert client["attempted"] == 9
    assert client["errors"] == 0
    assert client["completed"] + client["rejected"] == 9
    assert server_side["conserved"] is True
    # Bursts of identical payloads must coalesce on the flight table.
    assert server_side["coalesce_ratio"] > 0
    assert report["throughput_jobs_per_sec"] > 0
    assert report["latency_seconds"]["p99"] >= report["latency_seconds"]["p50"]
    assert server_side["workers"]["total"] == 2
    assert 0.0 <= server_side["workers"]["utilization"] <= 1.0
    line = summarize(report)
    assert "duplicate-heavy" in line and "conserved" in line


def test_loadtest_report_feeds_slo_gate_and_history(tmp_path, cold_caches):
    with ThreadedServer(queue_depth=64, workers=2) as server:
        # The workers fork from a parent whose caches cold_caches just
        # emptied, so every flight simulates and stays open long enough
        # for its burst's duplicates to coalesce on it.
        report = run_loadtest(
            port=server.port, rate=50.0, total=6,
            mix="duplicate-heavy", scale=0.04, timeout=120,
        )
    report_path = tmp_path / "loadtest.json"
    report_path.write_text(json.dumps(report))

    gate = subprocess.run(
        [sys.executable, str(SCRIPTS / "check_loadtest_slo.py"),
         str(report_path), "--min-coalesce-ratio", "0.01"],
        capture_output=True, text=True,
    )
    assert gate.returncode == 0, gate.stderr
    assert "loadtest SLOs met" in gate.stdout

    # An absurd absolute SLO must fail the gate.
    gate = subprocess.run(
        [sys.executable, str(SCRIPTS / "check_loadtest_slo.py"),
         str(report_path), "--min-jobs-per-sec", "1e9"],
        capture_output=True, text=True,
    )
    assert gate.returncode == 1
    assert "below SLO" in gate.stderr

    # Relative gate against itself as baseline passes.
    gate = subprocess.run(
        [sys.executable, str(SCRIPTS / "check_loadtest_slo.py"),
         str(report_path), "--baseline", str(report_path)],
        capture_output=True, text=True,
    )
    assert gate.returncode == 0, gate.stderr

    history = tmp_path / "history.jsonl"
    appended = subprocess.run(
        [sys.executable, str(SCRIPTS / "append_bench_history.py"),
         str(report_path), str(history)],
        capture_output=True, text=True,
    )
    assert appended.returncode == 0, appended.stderr
    record = json.loads(history.read_text())
    assert record["experiment"] == "loadtest"
    assert record["mix"] == "duplicate-heavy"
    assert record["conserved"] is True
    assert record["throughput_jobs_per_sec"] == (
        report["throughput_jobs_per_sec"]
    )


def test_slo_gate_rejects_conservation_violation(tmp_path):
    report = {
        "experiment": "loadtest",
        "mix": "cold-heavy",
        "throughput_jobs_per_sec": 10.0,
        "latency_seconds": {"p99": 0.1},
        "client": {"attempted": 2, "completed": 2, "failed": 0,
                   "rejected": 0, "errors": 0},
        "server": {"conserved": False, "submitted_delta": 2,
                   "completed_delta": 1, "failed_delta": 0,
                   "coalesce_ratio": 0.0},
    }
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(report))
    gate = subprocess.run(
        [sys.executable, str(SCRIPTS / "check_loadtest_slo.py"), str(path)],
        capture_output=True, text=True,
    )
    assert gate.returncode == 1
    assert "conservation violated" in gate.stderr
