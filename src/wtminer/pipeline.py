"""End-to-end orchestration from an event log to a waiting-time analysis."""
from __future__ import annotations

from wtminer.analysis import AnalysisResult, analyze
from wtminer.batching import BatchingConfig, BatchingResult, detect_batches
from wtminer.calendars import (
    AbsoluteAvailability,
    CalendarParams,
    WeeklyCalendar,
    discover_calendar,
    expand_calendar,
)
from wtminer.concurrency import (
    EnablementResult,
    OracleThresholds,
    compute_enablement,
    discover_concurrency,
)
from wtminer.decomposition import (
    Decomposer,
    WtDecomposition,
    decompose_all,
    multitasking_rate,
)
from wtminer.model import EventLog, UNKNOWN_RESOURCE, _Value, _canonicalize
from wtminer.transitions import Transition, discover_transitions


class PipelineConfig(_Value):
    # The defaults are immutable, so every config can share them.
    thresholds: OracleThresholds = OracleThresholds()
    batching: BatchingConfig = BatchingConfig()
    calendars: CalendarParams = CalendarParams()


class PipelineResult(_Value):
    config: PipelineConfig
    enablement: EnablementResult
    transitions: tuple[Transition, ...]
    batching: BatchingResult
    calendars: dict[str, WeeklyCalendar]
    availability: dict[str, AbsoluteAvailability]
    decompositions: tuple[WtDecomposition, ...]
    analysis: AnalysisResult
    multitasking_rate: float
    overridden_resources: tuple[str, ...]

    @property
    def log(self) -> EventLog:
        """The log with enablement times set."""
        return self.enablement.log


def run_pipeline(
    log: EventLog,
    config: PipelineConfig = PipelineConfig(),
    calendar_overrides: dict[str, WeeklyCalendar] | None = None,
) -> PipelineResult:
    """Run discovery, decomposition and impact analysis on a raw log.

    Calendar overrides replace the discovered calendar for the named
    resources; overrides for resources absent from the log are ignored.
    """
    relation = discover_concurrency(log, config.thresholds)
    enablement = compute_enablement(log, relation)
    enriched = enablement.log

    transitions = discover_transitions(enablement)
    batching = detect_batches(enriched, config.batching)

    # Each resource takes its override or its discovered calendar. Availability
    # is only read inside waits, so the calendar is expanded over the merged
    # union of the resource's own non-empty waits. The decomposition never
    # reads it for the unknown resource, whose set stays empty.
    overrides = calendar_overrides or {}
    overridden: list[str] = []
    calendars: dict[str, WeeklyCalendar] = {}
    availability: dict[str, AbsoluteAvailability] = {}
    for resource, seq in enriched.by_resource.items():
        if resource in overrides:
            calendar = overrides[resource]
            overridden.append(resource)
        else:
            calendar = discover_calendar(enriched, resource, config.calendars)
        calendars[resource] = calendar
        if resource == UNKNOWN_RESOURCE:
            seq = ()
        waits = _canonicalize(
            [(inst.enabled, inst.started) for inst in seq if inst.enabled != inst.started]
        )
        availability[resource] = expand_calendar(calendar, *waits)

    decomposer = Decomposer(enriched, batching, availability)
    targets = [target for transition in transitions for target in transition.instances]
    decompositions = decompose_all(decomposer, targets)
    analysis = analyze(enriched, transitions, decompositions)

    return PipelineResult(
        config, enablement, transitions, batching, calendars, availability, decompositions,
        analysis, multitasking_rate(enriched), tuple(sorted(overridden)),
    )
