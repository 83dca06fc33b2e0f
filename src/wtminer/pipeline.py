"""End-to-end orchestration from an event log to a waiting-time analysis."""
from __future__ import annotations

from dataclasses import dataclass, field
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
from wtminer.model import EventLog, IntervalSet
from wtminer.transitions import Transition, discover_transitions


@dataclass(frozen=True)
class PipelineConfig:
    thresholds: OracleThresholds = field(default_factory=OracleThresholds)
    batching: BatchingConfig = field(default_factory=BatchingConfig)
    calendars: CalendarParams = field(default_factory=CalendarParams)


@dataclass(frozen=True)
class PipelineResult:
    config: PipelineConfig
    log: EventLog
    enablement: EnablementResult
    transitions: tuple[Transition, ...]
    batching: BatchingResult
    calendars: dict[str, WeeklyCalendar]
    availability: dict[str, AbsoluteAvailability]
    decompositions: tuple[WtDecomposition, ...]
    analysis: AnalysisResult
    multitasking_rate: float
    overridden_resources: tuple[str, ...]


def run_pipeline(
    log: EventLog,
    config: Optional[PipelineConfig] = None,
    calendar_overrides: Optional[dict[str, WeeklyCalendar]] = None,
) -> PipelineResult:
    """Run discovery, decomposition and impact analysis on a raw log.

    Calendar overrides replace the discovered calendar for the named
    resources; overrides for resources absent from the log are ignored.
    """
    config = config or PipelineConfig()
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
    # expanded over the union of its own non-empty waits.
    availability: dict[str, AbsoluteAvailability] = {}
    for resource, calendar in calendars.items():
        seq = enriched.by_resource[resource]
        waits = IntervalSet(
            tuple(inst.waiting for inst in seq if inst.enabled < inst.started)
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
