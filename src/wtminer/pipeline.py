"""End-to-end orchestration from an event log to a waiting-time analysis."""
from __future__ import annotations

from typing import Optional

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
from wtminer.model import EventLog, IntervalSet, UNKNOWN_RESOURCE, _Value
from wtminer.transitions import Transition, discover_transitions


class PipelineConfig(_Value):
    # The defaults are immutable, so every config can share them.
    def __init__(
        self,
        thresholds: OracleThresholds = OracleThresholds(),
        batching: BatchingConfig = BatchingConfig(),
        calendars: CalendarParams = CalendarParams(),
    ) -> None:
        super().__init__(thresholds, batching, calendars)


class PipelineResult(_Value):
    # A plain class, not a tuple, so that a weak reference can show when a
    # finished run is freed.
    def __init__(
        self,
        config: PipelineConfig,
        log: EventLog,
        enablement: EnablementResult,
        transitions: tuple[Transition, ...],
        batching: BatchingResult,
        calendars: dict[str, WeeklyCalendar],
        availability: dict[str, AbsoluteAvailability],
        decompositions: tuple[WtDecomposition, ...],
        analysis: AnalysisResult,
        multitasking_rate: float,
        overridden_resources: tuple[str, ...],
    ) -> None:
        super().__init__(
            config,
            log,
            enablement,
            transitions,
            batching,
            calendars,
            availability,
            decompositions,
            analysis,
            multitasking_rate,
            overridden_resources,
        )


def run_pipeline(
    log: EventLog,
    config: Optional[PipelineConfig] = None,
    calendar_overrides: Optional[dict[str, WeeklyCalendar]] = None,
) -> PipelineResult:
    """Run discovery, decomposition and impact analysis on a raw log.

    Calendar overrides replace the discovered calendar for the named
    resources; overrides for resources absent from the log are ignored.
    """
    if config is None:
        config = PipelineConfig()
    relation = discover_concurrency(log, config.thresholds)
    enablement = compute_enablement(log, relation)
    enriched = enablement.log

    transitions = discover_transitions(enablement)
    batching = detect_batches(enriched, config.batching)

    overrides = calendar_overrides or {}
    overridden = tuple(sorted(set(overrides) & set(enriched.resources)))
    calendars: dict[str, WeeklyCalendar] = {}
    for resource in enriched.resources:
        if resource in overrides:
            calendars[resource] = overrides[resource]
        else:
            calendars[resource] = discover_calendar(
                enriched, resource, config.calendars
            )

    # Availability is only read inside waits, so each resource's calendar is
    # expanded over the union of its own non-empty waits. The decomposition
    # never reads it for the unknown resource, whose set stays empty.
    availability: dict[str, AbsoluteAvailability] = {}
    for resource, calendar in calendars.items():
        waits = (
            IntervalSet(inst.waiting for inst in enriched.by_resource[resource])
            if resource != UNKNOWN_RESOURCE
            else ()
        )
        availability[resource] = expand_calendar(calendar, *waits)

    decomposer = Decomposer(enriched, batching, availability)
    ordered = [ti for transition in transitions for ti in transition.instances]
    decompositions = decompose_all(decomposer, ordered)
    analysis = analyze(enriched, transitions, decompositions)

    return PipelineResult(
        config=config,
        log=enriched,
        enablement=enablement,
        transitions=transitions,
        batching=batching,
        calendars=calendars,
        availability=availability,
        decompositions=decompositions,
        analysis=analysis,
        multitasking_rate=multitasking_rate(enriched),
        overridden_resources=overridden,
    )
