"""Deliberately naive reference implementations, used as test oracles.

`brute_cause_durations` walks every second of a waiting interval and assigns
it to the first matching cause in dominance order. The other functions are
the full scans that the windowed pipeline stages replaced: a quadratic
predecessor search for enablement, a walk of the enriched log's cases that
looks each instance's enabler up, a scan of the resource's whole work
sequence for busy overlaps, a subtraction of the whole availability set, a
calendar tiled week by week over the hull of the spans it is read in, a
check of every same-resource pair for multitasking, a cell-by-cell merge
of (weekday, slot) cells into weekly ranges, and batch detection that
recomputes a run's window after every shrink step. `SetAlgebraDecomposer`
is the cascade as set algebra, one canonical span tuple per step, which
the pipeline's cascade on bare pairs must match set by set. Spans are plain
(start, end) pairs, as in the pipeline, and a set of instants is a canonical
tuple of them: the oracles build theirs with `model._canonicalize`, so every
comparison with an oracle also checks that the pipeline's sets are
canonical. `dictreader_load_log` is CSV ingest
through `csv.DictReader`, one dict and fresh timestamp parses per row, which
`load_log` must match row by row and counter by counter.
`brute_discover_calendar` counts observations under (weekday, slot) tuple
keys, as discovery did before it counted week-slot indices, and
`stdlib_report_json` is the standard library's `json.dumps` with the
indentation `report_json` must match byte for byte; with `build_report`
it is the oracle for the rendered `report.json`, and `transitions_csv`,
a separate `csv.writer` pass, for the rendered `transitions.csv`.

`weekday_of`, `week_start`, `contains_point`, `total_duration`,
`concurrency_relation`, `is_concurrent`, `horizon`, `cause_durations`,
`is_self_loop` and `impact_label` are small helpers that only tests need, so
they live here and not in the package. So do `intersect` and `subtract`, the
set algebra that the oracles above are written in; the pipeline splits
bare span lists with `model._split` instead.
"""
from __future__ import annotations

import csv
import io
import json
from bisect import bisect_left
from pathlib import Path
from typing import Iterable, Optional, Union

from wtminer.analysis import TransitionImpact
from wtminer.batching import Batch, BatchingConfig, BatchingResult
from wtminer.calendars import (
    MAX_RELAXATIONS,
    SECONDS_PER_DAY,
    SECONDS_PER_WEEK,
    AbsoluteAvailability,
    CalendarParams,
    WeeklyCalendar,
)
from wtminer.concurrency import ConcurrencyRelation, EnablementResult, EnablementStats
from wtminer.decomposition import CAUSES, Decomposer, WtDecomposition
from wtminer.ingest import ColumnMapping, IngestStats, LoadResult, _parse_timestamp
from wtminer.model import (
    ActivityInstance,
    ConfigError,
    EventLog,
    IngestError,
    Span,
    TimeInstant,
    UNKNOWN_RESOURCE,
    _canonicalize,
    _split,
)
from wtminer.pipeline import PipelineResult
from wtminer.report import TRANSITIONS_CSV_COLUMNS, significant
from wtminer.transitions import Transition


def weekday_of(t: TimeInstant) -> int:
    """Monday=0 .. Sunday=6; 1970-01-01 was a Thursday."""
    return (t // SECONDS_PER_DAY + 3) % 7


def week_start(t: TimeInstant) -> TimeInstant:
    """Monday 00:00 of the week holding `t`."""
    day = t // SECONDS_PER_DAY
    return (day - weekday_of(t)) * SECONDS_PER_DAY


def contains_point(s: tuple[Span, ...], t: TimeInstant) -> bool:
    """Whether instant `t` lies in one of the half-open spans of `s`."""
    for start, end in s:
        if start > t:
            return False
        if t < end:
            return True
    return False


def total_duration(s: tuple[Span, ...]) -> int:
    """Seconds covered by `s`."""
    return sum(end - start for start, end in s)


def intersect(a: tuple[Span, ...], b: tuple[Span, ...]) -> tuple[Span, ...]:
    """The instants in both canonical `a` and `b`."""
    return tuple(_split(a, b)[0])


def subtract(a: tuple[Span, ...], b: tuple[Span, ...]) -> tuple[Span, ...]:
    """The instants in canonical `a` and not in canonical `b`."""
    return tuple(_split(a, b)[1])


def concurrency_relation(*pairs: tuple[str, str]) -> ConcurrencyRelation:
    """A relation over `pairs`."""
    return ConcurrencyRelation(frozenset(pairs))


def is_concurrent(relation: ConcurrencyRelation, a: str, b: str) -> bool:
    """Whether `relation` holds `a` and `b`, in either order."""
    return (min(a, b), max(a, b)) in relation.pairs


def horizon(log: EventLog) -> Span:
    """Smallest span covering every enablement, start and completion."""
    start = min(
        inst.started if inst.enabled is None else min(inst.enabled, inst.started)
        for inst in log.instances
    )
    return (start, max(inst.completed for inst in log.instances))


def cause_durations(dec: WtDecomposition) -> dict[str, int]:
    """Seconds per cause, in `CAUSES` order."""
    return {cause: total_duration(getattr(dec, cause)) for cause in CAUSES}


def is_self_loop(t: Transition) -> bool:
    """Whether `t` leads from an activity back to the same activity."""
    return t.source_activity == t.target_activity


def impact_label(t: TransitionImpact) -> tuple[str, str]:
    """The (source, target) activity pair of a transition's impact."""
    return (t.source_activity, t.target_activity)


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
        elif not contains_point(available, t):
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
                if is_concurrent(relation, pred.activity, inst.activity):
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


def brute_transition_instances(
    result: EnablementResult,
) -> tuple[tuple[ActivityInstance, ActivityInstance], ...]:
    """(source, target) pairs by walking the enriched log case by case and
    looking every instance up in the enabler map."""
    out: list[tuple[ActivityInstance, ActivityInstance]] = []
    for seq in result.log.cases.values():
        for inst in seq:
            source = result.enabler.get(inst)
            if source is not None:
                out.append((source, inst))
    return tuple(out)


def brute_busy_overlaps(
    target: ActivityInstance, log: EventLog, want_earlier: bool
) -> tuple[Span, ...]:
    """Same-resource processing inside the wait, scanning from the first instance."""
    wait_start, wait_end = target.waiting
    if wait_start == wait_end:
        return ()
    spans = []
    for other in log.by_resource.get(target.resource, ()):
        if other.started >= wait_end:
            break
        if other is target:
            continue
        earlier = other.enabled <= target.enabled
        if earlier != want_earlier:
            continue
        start, end = max(other.started, wait_start), min(other.completed, wait_end)
        if end > start:
            spans.append((start, end))
    return _canonicalize(spans)


def brute_raw_unavailability(
    target: ActivityInstance, availability: dict[str, AbsoluteAvailability]
) -> tuple[Span, ...]:
    """The wait minus the resource's whole availability set."""
    wait = target.waiting
    if wait[0] == wait[1]:
        return ()
    return subtract(_canonicalize((wait,)), availability[target.resource].available)


def brute_expand_calendar(cal: WeeklyCalendar, *spans: Span) -> AbsoluteAvailability:
    """Tile the weekly ranges over every week of the spans' hull, then clip
    the result to the spans."""
    union = _canonicalize(spans)
    if not union:
        return AbsoluteAvailability(cal.resource, ())
    hull_start, hull_end = union[0][0], union[-1][1]
    tiles = []
    w = week_start(hull_start)
    while w < hull_end:
        for s, e in cal.ranges:
            if w + e > hull_start and w + s < hull_end:
                tiles.append((max(w + s, hull_start), min(w + e, hull_end)))
        w += SECONDS_PER_WEEK
    return AbsoluteAvailability(cal.resource, intersect(_canonicalize(tiles), union))


def brute_weekly_ranges(granule: int, cells: Iterable[tuple[int, int]]) -> tuple[Span, ...]:
    """Working time of (weekday, slot) cells on a grid of `granule` minutes as
    merged [start, end) second offsets from Monday 00:00, one cell at a time."""
    granule_s = granule * 60
    starts = sorted(day * SECONDS_PER_DAY + slot * granule_s for day, slot in cells)
    merged: list[list[int]] = []
    for s in starts:
        if merged and s <= merged[-1][1]:
            merged[-1][1] = max(merged[-1][1], s + granule_s)
        else:
            merged.append([s, s + granule_s])
    return tuple((s, e) for s, e in merged)


def calendar_from_cells(
    resource: str, granule: int, cells: Iterable[tuple[int, int]]
) -> WeeklyCalendar:
    """A calendar given as (weekday, slot) cells on a grid of `granule` minutes."""
    return WeeklyCalendar(resource, granule, brute_weekly_ranges(granule, cells))


def brute_discover_calendar(
    log: EventLog, resource: str, params: CalendarParams = CalendarParams()
) -> WeeklyCalendar:
    """`discover_calendar` with each observation counted under its
    (weekday, slot of the day) key."""
    if resource == UNKNOWN_RESOURCE:
        return WeeklyCalendar.always_on(resource, params.granule_minutes)
    obs = [
        t
        for inst in log.by_resource.get(resource, ())
        for t in (inst.started, inst.completed)
    ]
    if not obs:
        raise ValueError(f"resource {resource!r} has no instances in the log")

    freq: dict[tuple[int, int], int] = {}
    for t in obs:
        slot = ((t % SECONDS_PER_DAY) // 60) // params.granule_minutes
        key = (weekday_of(t), slot)
        freq[key] = freq.get(key, 0) + 1
    max_freq = max(freq.values())
    total = len(obs)

    cut = params.confidence
    working: set[tuple[int, int]] = set()
    for _ in range(MAX_RELAXATIONS + 1):
        working = {key for key, f in freq.items() if f >= cut * max_freq}
        covered = sum(freq[key] for key in working)
        if covered >= params.support * total or len(working) == len(freq):
            break
        cut /= 2
    size = params.granule_minutes * 60
    starts = [day * SECONDS_PER_DAY + slot * size for day, slot in working]
    return WeeklyCalendar(resource, params.granule_minutes, [(s, s + size) for s in starts])


def stdlib_report_json(report: object) -> str:
    """The report text as the standard library writes it."""
    return json.dumps(report, indent=2, allow_nan=False) + "\n"


def transitions_csv(result: PipelineResult) -> str:
    """`transitions.csv` as a separate pass with `csv.writer`, one list per row."""
    buffer = io.StringIO()
    writer = csv.writer(buffer)
    writer.writerow(TRANSITIONS_CSV_COLUMNS)
    for t in result.analysis.per_transition:
        writer.writerow(
            [
                t.source_activity,
                t.target_activity,
                significant(t.case_frequency),
                t.total_frequency,
                t.total_wt_seconds,
                *(t.wt_by_cause[c] for c in CAUSES),
                significant(t.delta),
            ]
        )
    return buffer.getvalue()


def brute_multitasking_rate(log: EventLog) -> float:
    """Share of known-resource instances whose processing overlaps another
    instance of the same resource, checking every pair."""
    known = [inst for inst in log.instances if inst.resource != UNKNOWN_RESOURCE]
    overlapping = set()
    for i, a in enumerate(known):
        for b in known[i + 1 :]:
            if (
                a.resource == b.resource
                and a.started < b.completed
                and b.started < a.completed
            ):
                overlapping.update((id(a), id(b)))
    return len(overlapping) / len(known) if known else 0.0


def brute_detect_batches(
    log: EventLog, config: BatchingConfig = BatchingConfig()
) -> BatchingResult:
    """`detect_batches` recomputing the run's window after every shrink step.

    Within each resource's start-ordered work sequence, a run of same-activity
    instances grows while each newcomer was enabled by the run's first start
    and starts within gap_tolerance of the previous completion. A run is then
    shrunk until no other instance of the resource starts inside its
    [first start, last completion) window. Instances without a known resource
    never batch.
    """
    batches: list[Batch] = []
    by_instance: dict[ActivityInstance, Batch] = {}
    for resource, seq in log.by_resource.items():
        if resource == UNKNOWN_RESOURCE:
            continue
        if any(inst.enabled is None for inst in seq):
            raise ValueError("batch detection requires enablement to be computed")
        i = 0
        while i < len(seq):
            run = [seq[i]]
            run_start = seq[i].started
            j = i + 1
            while j < len(seq):
                nxt = seq[j]
                if nxt.activity != run[0].activity:
                    break
                if nxt.enabled > run_start:
                    break
                if nxt.started > run[-1].completed + config.gap_tolerance:
                    break
                run.append(nxt)
                j += 1
            # Shrink until no non-member execution starts inside the window.
            while len(run) >= 2:
                follower = seq[i + len(run)] if i + len(run) < len(seq) else None
                window_end = max(m.completed for m in run)
                if follower is not None and follower.started < window_end:
                    run.pop()
                    continue
                if i > 0 and seq[i - 1].started >= run_start and window_end > run_start:
                    # A same-instant predecessor sits inside the window; no
                    # suffix trim can fix that.
                    del run[1:]
                break
            if len(run) >= config.min_batch_size:
                batch = Batch(tuple(run))
                batches.append(batch)
                for member in run:
                    by_instance[member] = batch
                i += len(run)
            else:
                i += 1
    return BatchingResult(batches=tuple(batches), by_instance=by_instance)


def batching_interval(inst: ActivityInstance, batch: Batch) -> tuple[Span, ...]:
    """Waiting attributable to batch accumulation: [enabled, τ_bc) clipped to ω."""
    end = min(batch.accumulation_end, inst.started)
    if end <= inst.enabled:
        return ()
    return _canonicalize([(inst.enabled, end)])


class SetAlgebraDecomposer(Decomposer):
    """The cascade in set algebra over the same bisected window of
    work: each cause's raw set is built, intersected with what is left and
    subtracted from it. Availability is not bisected: what is left is split
    on the whole availability set."""

    def _busy_overlaps(
        self, target: ActivityInstance
    ) -> tuple[tuple[Span, ...], tuple[Span, ...]]:
        """Same-resource processing inside the wait, in one pass over the window:
        work enabled no later than the target, then work enabled after it."""
        wait_start, wait_end = target.waiting
        # Only instances starting in [wait_start - longest, wait_end) can
        # overlap the wait: anything starting earlier has already completed.
        # The target itself starts at wait_end, so it is never in the window.
        seq, starts, longest = self._windows[target.resource]
        lo = bisect_left(starts, wait_start - longest)
        hi = bisect_left(starts, wait_end)
        earlier: list[Span] = []
        later: list[Span] = []
        for other in seq[lo:hi]:
            start = max(other.started, wait_start)
            end = min(other.completed, wait_end)
            if end > start:
                (earlier if other.enabled <= target.enabled else later).append((start, end))
        return _canonicalize(earlier), _canonicalize(later)

    def raw_contention(self, target: ActivityInstance) -> tuple[Span, ...]:
        """Resource busy during the wait on work enabled no later than the target."""
        return self._busy_overlaps(target)[0]

    def raw_prioritization(self, target: ActivityInstance) -> tuple[Span, ...]:
        """Resource busy during the wait on work enabled strictly after the target."""
        return self._busy_overlaps(target)[1]

    def raw_unavailability(self, target: ActivityInstance) -> tuple[Span, ...]:
        """Waiting instants outside the resource's availability calendar."""
        available = self.availability[target.resource].available
        return subtract(_canonicalize((target.waiting,)), available)

    def decompose(self, target: ActivityInstance) -> WtDecomposition:
        wait = target.waiting
        empty = ()
        if wait[0] == wait[1]:
            return WtDecomposition(target, empty, empty, empty, empty, empty)
        remaining = (wait,)
        if target.resource == UNKNOWN_RESOURCE:
            # No resource identity: no batch, no busy evidence and no
            # calendar, so all of the wait is extraneous.
            return WtDecomposition(target, empty, empty, empty, empty, remaining)

        batch = self.batching.by_instance.get(target)
        batched = batching_interval(target, batch) if batch is not None else empty
        claimed = []
        for raw in (batched, *self._busy_overlaps(target)):
            claimed.append(intersect(remaining, raw))
            remaining = subtract(remaining, raw)
        # What remains is split on the resource's whole availability set.
        available = self.availability[target.resource].available
        return WtDecomposition(
            target, *claimed, subtract(remaining, available), intersect(remaining, available)
        )


def parse_timestamp(raw: str, fmt: str, stats: Optional[IngestStats] = None) -> TimeInstant:
    """One timestamp through ingest's parser, adding its naive and truncated
    adjustments to `stats` when given, as a load counts them per row."""
    seconds, naive, truncated = _parse_timestamp(raw, fmt)
    if stats is not None:
        stats.naive_timestamps += naive
        stats.truncated_timestamps += truncated
    return seconds


def dictreader_load_log(
    path: Union[str, Path], mapping: ColumnMapping = ColumnMapping()
) -> LoadResult:
    """Load a CSV activity-instance log through `csv.DictReader`.

    Rows with unparseable timestamps or end < start are rejected and counted.
    A missing resource value maps to the reserved "__UNKNOWN__" label. An
    enabled time after the start is clamped to the start and counted. A file
    that is not UTF-8 text or not readable as CSV raises IngestError.
    """
    path = Path(path)
    if not path.exists():
        raise ConfigError(f"log file not found: {path}")

    stats = IngestStats()
    instances: list[ActivityInstance] = []
    try:
        with path.open(newline="", encoding="utf-8-sig") as handle:
            reader = csv.DictReader(handle)
            header = reader.fieldnames or []
            needed = [
                mapping.case_column,
                mapping.activity_column,
                mapping.resource_column,
                mapping.start_column,
                mapping.end_column,
            ]
            if mapping.enabled_column:
                needed.append(mapping.enabled_column)
            missing = [name for name in needed if name not in header]
            if missing:
                raise ConfigError(f"log {path} is missing mapped columns: {missing}")

            for row in reader:
                stats.rows_total += 1
                inst = _dictreader_parse_row(row, mapping, stats)
                if inst is None:
                    stats.rows_rejected += 1
                else:
                    instances.append(inst)
    except UnicodeDecodeError as exc:
        raise IngestError(f"log {path} is not UTF-8 text: {exc.reason}") from exc
    except csv.Error as exc:
        raise IngestError(f"log {path} is not a readable CSV: {exc}") from exc

    if not instances:
        raise IngestError(f"no usable activity instances in {path}")
    return LoadResult(EventLog.from_instances(instances), stats)


def _dictreader_parse_row(row: dict, mapping: ColumnMapping, stats: IngestStats) -> Optional[ActivityInstance]:
    case_id = (row.get(mapping.case_column) or "").strip()
    activity = (row.get(mapping.activity_column) or "").strip()
    if not case_id or not activity:
        return None
    resource = (row.get(mapping.resource_column) or "").strip()
    if not resource:
        resource = UNKNOWN_RESOURCE
        stats.unknown_resources += 1
    fmt = mapping.timestamp_format
    # A short row leaves its trailing fields None.
    try:
        started = parse_timestamp(row.get(mapping.start_column) or "", fmt, stats)
        completed = parse_timestamp(row.get(mapping.end_column) or "", fmt, stats)
    except ValueError:
        return None
    if completed < started:
        return None

    enabled: Optional[TimeInstant] = None
    if mapping.enabled_column:
        raw = (row.get(mapping.enabled_column) or "").strip()
        if raw:
            try:
                enabled = parse_timestamp(raw, fmt, stats)
            except ValueError:
                return None
            if enabled > started:
                enabled = started
                stats.clamped_enablements += 1
    return ActivityInstance(case_id, activity, resource, started, completed, enabled)
