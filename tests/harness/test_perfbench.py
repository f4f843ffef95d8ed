"""Unit tests for the simulator-throughput benchmark (`repro perfbench`)."""

import json

import pytest

from repro.harness.perfbench import (
    ENGINES,
    MODES,
    PERFBENCH_SCHEMA_VERSION,
    _geomean,
    perfbench_report,
    render_perfbench,
)


def test_geomean():
    assert _geomean([2.0, 8.0]) == pytest.approx(4.0)
    assert _geomean([]) == 0.0
    # Non-positive cells are skipped rather than zeroing the geomean.
    assert _geomean([0.0, 5.0]) == pytest.approx(5.0)


def _tiny_report(**kwargs):
    return perfbench_report(scale=0.02, kernels=["KM"], repeat=1, **kwargs)


def test_report_shape_and_rates():
    report = _tiny_report()
    assert report["perfbench_schema_version"] == PERFBENCH_SCHEMA_VERSION
    assert report["experiment"] == "perfbench"
    assert report["code_fingerprint"]
    assert report["kernels"] == ["KM"]
    assert set(report["engines"]) == set(ENGINES)
    for engine in ENGINES:
        summary = report["engines"][engine]
        assert len(summary["cells"]) == len(MODES)
        assert summary["geomean_instr_per_sec"] > 0
        assert summary["total_instructions"] > 0
        for cell in summary["cells"]:
            assert cell["engine"] == engine
            assert cell["kernel"] == "KM"
            assert cell["instructions"] > 0
            assert cell["instr_per_sec"] > 0
            assert cell["simulated_cycles"] > 0
            if cell["mode"] == "accelerate":
                assert cell["invocations"] > 0
    assert report["speedup"] > 0
    # The report must be JSON-serializable as produced.
    json.dumps(report, sort_keys=True)


def test_single_engine_report_has_no_speedup():
    report = perfbench_report(
        scale=0.02, kernels=["KM"], modes=("baseline",), engines=("fast",)
    )
    assert "speedup" not in report
    assert list(report["engines"]) == ["fast"]


def test_profile_section():
    report = _tiny_report(profile=True)
    profile = report["profile"]
    assert profile["sort"] == "cumulative"
    assert 0 < len(profile["top"]) <= 10
    for entry in profile["top"]:
        assert entry["calls"] > 0
        assert entry["cumtime"] >= entry["tottime"] >= 0
    # The harness profiler snapshot rides along with the cProfile view.
    assert "perfbench_profile_pass" in profile["harness"]["sections_seconds"]


def test_render_perfbench():
    report = _tiny_report()
    text = render_perfbench(report)
    assert "fast" in text
    assert "interpreted" in text
    assert "speedup" in text


def test_engines_interleave_per_cell(monkeypatch):
    """Both engines run back to back on every (kernel, mode) cell, and
    the engine that goes first alternates from one repeat to the next."""
    from repro.harness import perfbench

    calls = []
    real = perfbench._time_once

    def recording(trace, mode, engine):
        calls.append((mode, engine))
        return real(trace, mode, engine)

    monkeypatch.setattr(perfbench, "_time_once", recording)
    report = perfbench_report(
        scale=0.02, kernels=["KM"], modes=("baseline", "accelerate"),
        repeat=3,
    )
    fast, slow = ENGINES
    order = [fast, slow, slow, fast, fast, slow]
    assert calls == [("baseline", e) for e in order] + [
        ("accelerate", e) for e in order
    ]
    for engine in ENGINES:
        cells = report["engines"][engine]["cells"]
        assert [c["mode"] for c in cells] == ["baseline", "accelerate"]
