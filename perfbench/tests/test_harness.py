"""Unit checks of the benchmark's parsing, summaries and wrappers."""

import importlib
import types

import pytest

import layers
import run
import serve_bench

EXPOSITION = """\
# HELP repro_serve_request_seconds Request latency by route template.
# TYPE repro_serve_request_seconds histogram
repro_serve_request_seconds_bucket{route="session/batch",le="0.001"} 3
repro_serve_request_seconds_sum{route="session/batch"} 0.25
repro_serve_request_seconds_count{route="session/batch"} 10 # {trace_id="ab"} 0.2 1.0
repro_serve_request_seconds_sum{route="session/top"} 0.05
repro_serve_applies_total 7
"""


def test_parse_metrics_and_sum():
    samples = serve_bench.parse_metrics(EXPOSITION)
    assert samples[("repro_serve_applies_total", ())] == 7.0
    assert serve_bench.metric_sum(samples, "repro_serve_request_seconds_count") == 10.0
    assert serve_bench.metric_sum(
        samples, "repro_serve_request_seconds_sum", route="session/batch"
    ) == 0.25
    assert serve_bench.metric_sum(samples, "repro_serve_request_seconds_sum") == 0.3
    assert serve_bench.metric_sum(samples, "missing") == 0.0


def test_latency_summary_tail_has_ten_samples_beyond():
    p50, note = run.latency_summary([i / 1000 for i in range(1, 101)])
    assert p50 == pytest.approx(50.5)
    assert "tail p90.0 90.0000 ms" in note  # 91..100 lie beyond it
    assert "n=100" in note
    p50, note = run.latency_summary([0.001, 0.002, 0.003])
    assert p50 == pytest.approx(2.0)
    assert "tail p66.7 2.0000 ms" in note


def test_recorder_wraps_and_restores():
    module = types.ModuleType("fake")
    module.work = lambda x: x + 1
    original = module.work
    recorder = layers.LayerRecorder()
    recorder._patched.append((module, "work", original))
    module.work = recorder._wrap(original, "fake.work", None)
    assert module.work(1) == 2
    assert module.work(2) == 3
    snap = recorder.snapshot()
    assert snap["calls"] == {"fake.work": 2}
    assert snap["seconds"]["fake.work"] >= 0.0
    recorder.uninstall()
    assert module.work is original


def test_recorder_installs_at_the_caller_side_name():
    # ``repro.core`` re-exports a function named gpu_louvain, so reach the
    # module itself through importlib.
    caller = importlib.import_module("repro.core.gpu_louvain")
    callee = importlib.import_module("repro.core.mod_opt")

    recorder = layers.LayerRecorder().install(layers.DETECT_TARGETS)
    try:
        assert caller.modularity_optimization is not callee.modularity_optimization
        assert caller.modularity_optimization.__wrapped__ is callee.modularity_optimization
    finally:
        recorder.uninstall()
    assert caller.modularity_optimization is callee.modularity_optimization
