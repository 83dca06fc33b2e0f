"""The traced run follows the pipeline and survives stages being renamed away."""
import sys
import time
import types
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(BENCH), str(BENCH.parent / "src")]

import tracer  # noqa: E402
from wtminer import pipeline  # noqa: E402
from wtminer.synth import InjectionSpec, generate  # noqa: E402


@pytest.fixture(scope="module")
def log():
    return generate(InjectionSpec.from_bits("11111", n_cases=40, seed=2)).log


def test_every_stage_gets_a_span_under_the_run(log):
    trace = tracer.trace_pipeline(pipeline, log)
    assert trace.missing == []
    span_names = {span_name for span_name, _ in tracer.STAGES.values()}
    assert {span.name for span in trace.spans} == span_names | {tracer.RUN_SPAN}
    (root,) = [span for span in trace.spans if span.name == tracer.RUN_SPAN]
    children = sorted(
        (span for span in trace.spans if span.parent == root.ident), key=lambda s: s.start
    )
    assert root.start <= children[0].start
    assert children[-1].end <= root.end
    for before, after in zip(children, children[1:]):
        assert before.end <= after.start
    assert trace.self_s >= 0
    assert sum(span.seconds for span in children) + trace.self_s == pytest.approx(
        trace.run_s, abs=1e-9
    )


def test_counts_match_the_result(log):
    trace = tracer.trace_pipeline(pipeline, log)
    metrics = trace.metrics()
    result = trace.result
    targets = sum(len(t.instances) for t in result.transitions)
    assert metrics["decomposition.targets"] == metrics["transitions.instances"] == targets
    assert metrics["decomposition.waiting_targets"] == sum(
        1 for dec in result.decompositions if dec.waiting_duration > 0
    )
    assert metrics["calendars.discover_calls"] == len(result.log.resources) == 5
    assert metrics["calendars.availability_intervals"] == sum(
        len(a.available) for a in result.availability.values()
    )
    assert metrics["batching.batched_instances"] == len(result.batching.by_instance)
    assert metrics["concurrency.max_case_len"] == 5


def test_originals_are_restored(log):
    before = {stage: getattr(pipeline, stage) for stage in tracer.STAGES}
    tracer.trace_pipeline(pipeline, log)
    assert {stage: getattr(pipeline, stage) for stage in tracer.STAGES} == before


def test_stage_the_pipeline_no_longer_imports_is_missing_not_fatal(log):
    fake = types.ModuleType("fake_pipeline")
    fake.discover_concurrency = pipeline.discover_concurrency
    fake.run_pipeline = lambda raw: fake.discover_concurrency(raw)
    trace = tracer.trace_pipeline(fake, log)
    assert set(trace.missing) == set(tracer.STAGES) - {"discover_concurrency"}
    metrics = trace.metrics()
    assert metrics["concurrency.discover_s"] > 0
    assert metrics["decomposition.decompose_s"] == 0


def test_counter_that_no_longer_fits_is_missing_not_fatal(log):
    fake = types.ModuleType("fake_pipeline")
    fake.decompose_all = lambda: 42
    fake.run_pipeline = lambda raw: fake.decompose_all()
    trace = tracer.trace_pipeline(fake, log)
    assert any(note.startswith("decomposition.targets (TypeError") for note in trace.missing)
    assert trace.metrics()["decomposition.targets"] == 0


def test_nested_spans_count_once_towards_self_time(log):
    fake = types.ModuleType("fake_pipeline")

    def analyze():
        time.sleep(0.02)
        fake.multitasking_rate()

    def run_pipeline(raw):
        time.sleep(0.02)
        fake.analyze()

    fake.analyze = analyze
    fake.multitasking_rate = lambda: time.sleep(0.02)
    fake.run_pipeline = run_pipeline
    trace = tracer.trace_pipeline(fake, log)
    by_name = {span.name: span for span in trace.spans}
    inner = by_name["decomposition.multitasking_s"]
    outer = by_name["analysis.analyze_s"]
    assert inner.parent == outer.ident
    assert trace.self_s == pytest.approx(trace.run_s - outer.seconds, abs=1e-9)
    assert trace.self_s >= 0.015
