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
    def __init__(
        self,
        thresholds: OracleThresholds = OracleThresholds(),
        batching: BatchingConfig = BatchingConfig(),
        calendars: CalendarParams = CalendarParams(),
    ) -> None:
        vars(self).update(thresholds=thresholds, batching=batching, calendars=calendars)


class PipelineResult(_Value):
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
        vars(self).update(
            config=config,
            log=log,
            enablement=enablement,
            transitions=transitions,
            batching=batching,
            calendars=calendars,
            availability=availability,
            decompositions=decompositions,
            analysis=analysis,
            multitasking_rate=multitasking_rate,
            overridden_resources=overridden_resources,
        )


def run_pipeline(
    log: EventLog,
    config: PipelineConfig | None = None,
    calendar_overrides: dict[str, WeeklyCalendar] | None = None,
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
    # expanded over the merged union of its own non-empty waits. The
    # decomposition never reads it for the unknown resource, whose set stays
    # empty.
    availability: dict[str, AbsoluteAvailability] = {}
    for resource, calendar in calendars.items():
        seq = enriched.by_resource[resource] if resource != UNKNOWN_RESOURCE else ()
        waits = _canonicalize([(inst.enabled, inst.started) for inst in seq])
        availability[resource] = expand_calendar(calendar, *waits)

    decomposer = Decomposer(enriched, batching, availability)
    targets = [target for transition in transitions for target in transition.instances]
    decompositions = decompose_all(decomposer, targets)
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
