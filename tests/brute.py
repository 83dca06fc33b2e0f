"""Deliberately naive reference implementations, used as test oracles.

`brute_cause_durations` walks every second of a waiting interval and assigns
it to the first matching cause in dominance order. The other functions are
the full scans that the windowed pipeline stages replaced: a quadratic
predecessor search for enablement, a walk of the enriched log's cases that
looks each instance's enabler up, a scan of the resource's whole work
sequence for busy overlaps, a subtraction of the whole availability set, and
a calendar tiled week by week over the hull of the spans it is read in.
"""
from __future__ import annotations

from typing import Optional

from wtminer.batching import BatchingResult
from wtminer.calendars import (
    SECONDS_PER_WEEK,
    AbsoluteAvailability,
    WeeklyCalendar,
    week_start,
)
from wtminer.concurrency import ConcurrencyRelation, EnablementResult, EnablementStats
from wtminer.decomposition import CAUSES
from wtminer.model import (
    ActivityInstance,
    EventLog,
    IntervalSet,
    TimeInstant,
    TimeInterval,
    UNKNOWN_RESOURCE,
)
from wtminer.transitions import TransitionInstance


def brute_cause_durations(
    target: ActivityInstance,
    log: EventLog,
    batching: BatchingResult,
    availability: dict[str, AbsoluteAvailability],
) -> dict[str, int]:
    counts = dict.fromkeys(CAUSES, 0)
    assert target.enabled is not None
    batch = batching.by_instance.get(target)
    same_resource = [
        other
        for other in log.instances
        if other.resource == target.resource and other is not target
    ]
    unknown = target.resource == UNKNOWN_RESOURCE
    available = availability[target.resource].available if not unknown else None

    for t in range(target.enabled, target.started):
        if unknown:
            counts["extraneous"] += 1
        elif batch is not None and t < batch.accumulation_end:
            counts["batching"] += 1
        elif any(
            o.enabled <= target.enabled and o.started <= t < o.completed
            for o in same_resource
        ):
            counts["contention"] += 1
        elif any(
            o.enabled > target.enabled and o.started <= t < o.completed
            for o in same_resource
        ):
            counts["prioritization"] += 1
        elif not available.contains_point(t):
            counts["unavailability"] += 1
        else:
            counts["extraneous"] += 1
    return counts


def brute_enablement(log: EventLog, relation: ConcurrencyRelation) -> EnablementResult:
    """Enablement by scanning every earlier instance of the case: O(k^2) per case."""
    stats = EnablementStats()
    new_instances: list[ActivityInstance] = []
    enabler: dict[ActivityInstance, ActivityInstance] = {}

    for seq in log.cases.values():
        rebuilt: list[ActivityInstance] = []
        for idx, inst in enumerate(seq):
            enabler_idx: Optional[int] = None
            best_completion: Optional[TimeInstant] = None
            for j in range(idx):
                pred = seq[j]
                if relation.is_concurrent(pred.activity, inst.activity):
                    continue
                if best_completion is None or pred.completed >= best_completion:
                    best_completion = pred.completed
                    enabler_idx = j
            if inst.enabled is not None:
                enabled = inst.enabled
                stats.supplied += 1
            elif enabler_idx is None:
                enabled = inst.started
                if idx == 0:
                    stats.first_in_case += 1
                else:
                    stats.concurrent_only += 1
            else:
                enabled = best_completion
                if enabled > inst.started:
                    enabled = inst.started
                    stats.clamped += 1
                stats.derived += 1
            rebuilt.append(
                ActivityInstance(
                    case_id=inst.case_id,
                    activity=inst.activity,
                    resource=inst.resource,
                    started=inst.started,
                    completed=inst.completed,
                    enabled=enabled,
                )
            )
            if enabler_idx is not None:
                enabler[rebuilt[idx]] = rebuilt[enabler_idx]
        new_instances.extend(rebuilt)

    new_log = EventLog.from_instances(new_instances)
    return EnablementResult(log=new_log, relation=relation, enabler=enabler, stats=stats)


def brute_transition_instances(result: EnablementResult) -> tuple[TransitionInstance, ...]:
    """Transition instances by walking the enriched log case by case and looking
    every instance up in the enabler map."""
    out: list[TransitionInstance] = []
    for seq in result.log.cases.values():
        for inst in seq:
            source = result.enabler.get(inst)
            if source is not None:
                out.append(TransitionInstance(source=source, target=inst))
    return tuple(out)


def brute_busy_overlaps(
    target: ActivityInstance, log: EventLog, want_earlier: bool
) -> IntervalSet:
    """Same-resource processing inside the wait, scanning from the first instance."""
    wait = target.waiting
    if wait.is_empty():
        return IntervalSet.empty()
    spans = []
    for other in log.by_resource.get(target.resource, ()):
        if other.started >= wait.end:
            break
        if other is target:
            continue
        earlier = other.enabled <= target.enabled
        if earlier != want_earlier:
            continue
        overlap = other.processing.intersect(wait)
        if overlap is not None:
            spans.append(overlap)
    return IntervalSet(tuple(spans))


def brute_raw_unavailability(
    target: ActivityInstance, availability: dict[str, AbsoluteAvailability]
) -> IntervalSet:
    """The wait minus the resource's whole availability set."""
    wait = target.waiting
    if wait.is_empty():
        return IntervalSet.empty()
    return IntervalSet((wait,)) - availability[target.resource].available


def brute_expand_calendar(cal: WeeklyCalendar, *spans: TimeInterval) -> AbsoluteAvailability:
    """Tile the weekly ranges over every week of the spans' hull, then clip
    the result to the spans."""
    union = IntervalSet(spans)
    if not union:
        return AbsoluteAvailability(cal.resource, IntervalSet.empty())
    hull = TimeInterval(union.intervals[0].start, union.intervals[-1].end)
    tiles = []
    w = week_start(hull.start)
    while w < hull.end:
        for s, e in cal.weekly_ranges():
            if w + e > hull.start and w + s < hull.end:
                tiles.append(TimeInterval(max(w + s, hull.start), min(w + e, hull.end)))
        w += SECONDS_PER_WEEK
    return AbsoluteAvailability(cal.resource, IntervalSet(tuple(tiles)) & union)
