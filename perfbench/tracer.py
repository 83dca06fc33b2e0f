"""Traced in-process pipeline run: one span per stage, recorded from outside.

The tracer replaces each stage function that `wtminer.pipeline` imports
with a wrapper that records a span around the call, runs `run_pipeline`
itself, and puts the originals back. It therefore follows whatever the
pipeline really calls. A stage the pipeline no longer imports is reported
as missing, and a counter that no longer fits the stage's result is
reported the same way; neither stops the run. Spans stay in memory until
the run ends.
"""
from __future__ import annotations

import gc
import time
from dataclasses import dataclass, field
from types import ModuleType
from typing import Any, Callable, Optional


def _max_case_len(args: tuple, result: Any) -> int:
    return max(len(seq) for seq in args[0].cases.values())


def _waiting_targets(args: tuple, result: Any) -> int:
    return sum(1 for dec in result if dec.waiting_duration > 0)


# Stage name in wtminer.pipeline -> (span metric, {counter metric: counter}).
# A counter gets the stage's positional arguments and its result; counters
# run after the pipeline has finished, outside every span.
STAGES: dict[str, tuple[str, dict[str, Callable[[tuple, Any], int]]]] = {
    "discover_concurrency": (
        "concurrency.discover_s",
        {"concurrency.pairs": lambda args, result: len(result)},
    ),
    "compute_enablement": (
        "concurrency.enablement_s",
        {"concurrency.max_case_len": _max_case_len},
    ),
    "discover_transitions": (
        "transitions.discover_s",
        {"transitions.instances": lambda args, result: sum(len(t.instances) for t in result)},
    ),
    "detect_batches": (
        "batching.detect_s",
        {"batching.batched_instances": lambda args, result: len(result.by_instance)},
    ),
    "discover_calendar": (
        "calendars.discover_s",
        {"calendars.discover_calls": lambda args, result: 1},
    ),
    "expand_calendar": (
        "calendars.expand_s",
        {"calendars.availability_intervals": lambda args, result: len(result.available)},
    ),
    "Decomposer": ("decomposition.index_s", {}),
    "decompose_all": (
        "decomposition.decompose_s",
        {
            "decomposition.targets": lambda args, result: len(result),
            "decomposition.waiting_targets": _waiting_targets,
        },
    ),
    "analyze": ("analysis.analyze_s", {}),
    "multitasking_rate": ("decomposition.multitasking_s", {}),
}

RUN_SPAN = "pipeline.run_s"


@dataclass(frozen=True)
class Span:
    ident: int
    name: str
    parent: Optional[int]
    start: float
    end: float

    @property
    def seconds(self) -> float:
        return self.end - self.start


@dataclass
class Trace:
    spans: list[Span] = field(default_factory=list)
    missing: list[str] = field(default_factory=list)
    counts: dict[str, int] = field(default_factory=dict)
    gc_s: float = 0.0
    gc_collections: int = 0
    result: Any = None

    def seconds(self, name: str) -> float:
        return sum(span.seconds for span in self.spans if span.name == name)

    @property
    def run_s(self) -> float:
        return self.seconds(RUN_SPAN)

    @property
    def self_s(self) -> float:
        """Run time that no direct child span covers."""
        (root,) = [span for span in self.spans if span.name == RUN_SPAN]
        children = sum(span.seconds for span in self.spans if span.parent == root.ident)
        return root.seconds - children

    def metrics(self) -> dict[str, float]:
        out: dict[str, float] = {}
        for span_name, counters in STAGES.values():
            out[span_name] = self.seconds(span_name)
            for counter in counters:
                out[counter] = self.counts.get(counter, 0)
        out[RUN_SPAN] = self.run_s
        out["pipeline.self_s"] = self.self_s
        out["process.gc_s"] = self.gc_s
        out["process.gc_collections"] = self.gc_collections
        return out


class _Recorder:
    def __init__(self, trace: Trace) -> None:
        self.trace = trace
        self.open: list[int] = []
        self.next_ident = 0
        self.pending: list[tuple[str, Callable, tuple, Any]] = []
        self._gc_started = 0.0

    def call(self, name: str, func: Callable, args: tuple, kwargs: dict) -> Any:
        ident = self.next_ident
        self.next_ident += 1
        parent = self.open[-1] if self.open else None
        self.open.append(ident)
        start = time.perf_counter()
        try:
            return func(*args, **kwargs)
        finally:
            end = time.perf_counter()
            self.open.pop()
            self.trace.spans.append(Span(ident, name, parent, start, end))

    def wrap(self, span_name: str, counters: dict, func: Callable) -> Callable:
        def traced(*args, **kwargs):
            result = self.call(span_name, func, args, kwargs)
            for counter, count in counters.items():
                self.pending.append((counter, count, args, result))
            return result

        return traced

    def on_gc(self, phase: str, info: dict) -> None:
        if phase == "start":
            self._gc_started = time.perf_counter()
        else:
            self.trace.gc_s += time.perf_counter() - self._gc_started
            self.trace.gc_collections += 1

    def settle_counts(self) -> None:
        for counter, count, args, result in self.pending:
            try:
                value = count(args, result)
            except (AttributeError, TypeError, IndexError, ValueError) as exc:
                note = f"{counter} ({type(exc).__name__}: {exc})"
                if note not in self.trace.missing:
                    self.trace.missing.append(note)
                continue
            self.trace.counts[counter] = self.trace.counts.get(counter, 0) + value
        self.pending.clear()


def trace_pipeline(pipeline: ModuleType, log: Any) -> Trace:
    """Run `pipeline.run_pipeline(log)` with every known stage wrapped."""
    trace = Trace()
    recorder = _Recorder(trace)
    originals: dict[str, Callable] = {}
    for stage, (span_name, counters) in STAGES.items():
        func = getattr(pipeline, stage, None)
        if func is None:
            trace.missing.append(stage)
            continue
        originals[stage] = func
        setattr(pipeline, stage, recorder.wrap(span_name, counters, func))
    gc.callbacks.append(recorder.on_gc)
    try:
        trace.result = recorder.call(RUN_SPAN, pipeline.run_pipeline, (log,), {})
    finally:
        gc.callbacks.remove(recorder.on_gc)
        for stage, func in originals.items():
            setattr(pipeline, stage, func)
    recorder.settle_counts()
    return trace
