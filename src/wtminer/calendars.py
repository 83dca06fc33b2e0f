"""Weekly availability calendars per resource.

A resource's working hours are estimated from the instants at which it was
seen doing anything (starts and completions). Evidence is bucketed into
weekly slots of granule_minutes; slots with enough relative frequency count
as working time. If the resulting calendar explains too small a share of the
observations, the frequency cut is relaxed stepwise. Weekly calendars expand
to absolute availability interval sets over each resource's waits, the only
place where availability is read.
"""
from __future__ import annotations

from pathlib import Path
from typing import Iterable, Optional, Union

from wtminer.model import (
    ConfigError,
    EventLog,
    IntervalSet,
    Span,
    TimeInstant,
    UNKNOWN_RESOURCE,
    _Value,
    _canonicalize,
    _slot_setters,
)

SECONDS_PER_DAY = 86400
SECONDS_PER_WEEK = 7 * SECONDS_PER_DAY
MINUTES_PER_DAY = 1440
# 1970-01-01 was a Thursday; weekday indices run Monday=0 .. Sunday=6.
_EPOCH_WEEKDAY = 3

# Discovery halves the frequency cut at most this many times.
MAX_RELAXATIONS = 10

DAY_NAMES = ("MON", "TUE", "WED", "THU", "FRI", "SAT", "SUN")
_DAY_INDEX = {name: i for i, name in enumerate(DAY_NAMES)}


def weekday_of(t: TimeInstant) -> int:
    return (t // SECONDS_PER_DAY + _EPOCH_WEEKDAY) % 7


def week_start(t: TimeInstant) -> TimeInstant:
    day = t // SECONDS_PER_DAY
    return (day - weekday_of(t)) * SECONDS_PER_DAY


class CalendarParams(_Value):
    def __init__(
        self, granule_minutes: int = 60, confidence: float = 0.1, support: float = 0.1
    ) -> None:
        if granule_minutes < 1 or MINUTES_PER_DAY % granule_minutes != 0:
            raise ConfigError(
                f"granule must divide {MINUTES_PER_DAY} minutes, got {granule_minutes}"
            )
        if not 0.0 <= confidence <= 1.0:
            raise ConfigError(f"confidence must be in [0, 1], got {confidence}")
        if not 0.0 <= support <= 1.0:
            raise ConfigError(f"support must be in [0, 1], got {support}")
        super().__init__(granule_minutes, confidence, support)


class WeeklyCalendar(_Value):
    """Working time as merged [start, end) second offsets from Monday 00:00."""

    def __init__(self, resource: str, granule_minutes: int, ranges: Iterable[Span]) -> None:
        if granule_minutes < 1 or MINUTES_PER_DAY % granule_minutes != 0:
            raise ConfigError(f"granule must divide {MINUTES_PER_DAY} minutes")
        size = granule_minutes * 60
        ranges = _canonicalize(ranges)
        for start, end in ranges:
            if start < 0 or end > SECONDS_PER_WEEK or start % size or end % size:
                raise ConfigError(f"range ({start}, {end}) outside the weekly grid")
        super().__init__(resource, granule_minutes, ranges)

    @classmethod
    def always_on(cls, resource: str, granule_minutes: int = 60) -> "WeeklyCalendar":
        return cls(resource, granule_minutes, ((0, SECONDS_PER_WEEK),))

    @property
    def is_always_on(self) -> bool:
        return self.ranges == ((0, SECONDS_PER_WEEK),)


class AbsoluteAvailability(_Value):
    __slots__ = ("resource", "available")

    def __init__(self, resource: str, available: IntervalSet) -> None:
        _aa_resource(self, resource)
        _aa_available(self, available)


_aa_resource, _aa_available = _slot_setters(AbsoluteAvailability)


def discover_calendar(
    log: EventLog, resource: str, params: Optional[CalendarParams] = None
) -> WeeklyCalendar:
    """Estimate one resource's weekly calendar from its observed instants.

    A slot is working when its observation count reaches confidence times the
    busiest slot's count. When working slots explain less than the support
    share of all observations, the cut is halved (bounded) until they do or
    every observed slot is in.
    """
    if params is None:
        params = CalendarParams()
    if resource == UNKNOWN_RESOURCE:
        return WeeklyCalendar.always_on(resource, params.granule_minutes)
    seq = log.by_resource.get(resource, ())
    if not seq:
        raise ValueError(f"resource {resource!r} has no instances in the log")

    # Count each observed instant at its slot's index in the week from
    # Monday 00:00; the slot size divides a day, so the index is
    # weekday * slots per day + slot of the day, also before 1970.
    size = params.granule_minutes * 60
    shift = _EPOCH_WEEKDAY * SECONDS_PER_DAY
    freq: dict[int, int] = {}
    for inst in seq:
        key = (inst.started + shift) % SECONDS_PER_WEEK // size
        freq[key] = freq.get(key, 0) + 1
        key = (inst.completed + shift) % SECONDS_PER_WEEK // size
        freq[key] = freq.get(key, 0) + 1
    max_freq = max(freq.values())
    total = 2 * len(seq)

    cut = params.confidence
    working: set[int] = set()
    for _ in range(MAX_RELAXATIONS + 1):
        working = {key for key, f in freq.items() if f >= cut * max_freq}
        covered = sum(freq[key] for key in working)
        if covered >= params.support * total or len(working) == len(freq):
            break
        cut /= 2
    return WeeklyCalendar(
        resource, params.granule_minutes, [(k * size, k * size + size) for k in working]
    )


def discover_calendars(
    log: EventLog, params: Optional[CalendarParams] = None
) -> dict[str, WeeklyCalendar]:
    if params is None:
        params = CalendarParams()
    return {res: discover_calendar(log, res, params) for res in log.resources}


def expand_calendar(cal: WeeklyCalendar, *spans: Span) -> AbsoluteAvailability:
    """Tile the weekly working ranges across the weeks each (start, end) span
    touches, clipped to that span. No spans, or only empty ones, give the
    empty set; a span that ends before it starts is a `ValueError`."""
    pieces: list[Span] = []
    for start, end in spans:
        if end < start:
            raise ValueError(f"span end {end} before start {start}")
        w = week_start(start)
        while w < end:
            for s, e in cal.ranges:
                if w + e > start and w + s < end:
                    pieces.append((max(w + s, start), min(w + e, end)))
            w += SECONDS_PER_WEEK
    # Canonicalizing merges a range ending Sunday 24:00 with the next
    # Monday 00:00, and pieces of touching spans with each other.
    return AbsoluteAvailability(cal.resource, IntervalSet(pieces))


def _parse_minute_of_day(text: str, *, allow_midnight_end: bool) -> int:
    parts = text.strip().split(":")
    if len(parts) != 2:
        raise ConfigError(f"expected HH:MM, got {text!r}")
    try:
        hours, minutes = int(parts[0]), int(parts[1])
    except ValueError as exc:
        raise ConfigError(f"expected HH:MM, got {text!r}") from exc
    if hours == 24 and minutes == 0 and allow_midnight_end:
        return MINUTES_PER_DAY
    if not (0 <= hours < 24 and 0 <= minutes < 60):
        raise ConfigError(f"time of day out of range: {text!r}")
    return hours * 60 + minutes


def load_calendar_overrides(path: Union[str, Path]) -> dict[str, WeeklyCalendar]:
    """Read manually defined calendars from JSON.

    Format: {"R1": [{"day": "MON", "from": "09:00", "to": "17:00"}, ...]}.
    Overrides use a 1-minute granule so arbitrary HH:MM bounds are exact.
    Each entry is one weekly range; overlapping and touching entries merge.
    """
    import json  # only an override file needs the JSON reader

    path = Path(path)
    try:
        raw = json.loads(path.read_text(encoding="utf-8-sig"))
    except OSError as exc:
        raise ConfigError(f"cannot read calendar overrides {path}: {exc}") from exc
    except ValueError as exc:  # not UTF-8 text, or not JSON
        raise ConfigError(f"calendar overrides {path} is not UTF-8 JSON: {exc}") from exc
    if not isinstance(raw, dict):
        raise ConfigError("calendar overrides must be a JSON object keyed by resource")

    overrides: dict[str, WeeklyCalendar] = {}
    for resource, ranges in raw.items():
        if not isinstance(ranges, list):
            raise ConfigError(f"override for {resource!r} must be a list of ranges")
        spans: list[Span] = []
        for entry in ranges:
            if not isinstance(entry, dict) or set(entry) != {"day", "from", "to"}:
                raise ConfigError(
                    f"override range for {resource!r} needs exactly day/from/to keys"
                )
            day_name = str(entry["day"]).upper()
            if day_name not in _DAY_INDEX:
                raise ConfigError(f"unknown weekday {entry['day']!r} for {resource!r}")
            start = _parse_minute_of_day(str(entry["from"]), allow_midnight_end=False)
            end = _parse_minute_of_day(str(entry["to"]), allow_midnight_end=True)
            if start >= end:
                raise ConfigError(
                    f"range for {resource!r} must satisfy from < to, got "
                    f"{entry['from']!r} >= {entry['to']!r}"
                )
            day_s = _DAY_INDEX[day_name] * SECONDS_PER_DAY
            spans.append((day_s + start * 60, day_s + end * 60))
        overrides[resource] = WeeklyCalendar(resource, 1, spans)
    return overrides


def calendar_to_ranges(cal: WeeklyCalendar) -> list[dict[str, str]]:
    """Serialize a weekly calendar as day/from/to dicts (split at midnight)."""
    out: list[dict[str, str]] = []
    for s, e in cal.ranges:
        cursor = s
        while cursor < e:
            day = cursor // SECONDS_PER_DAY
            day_end = min(e, (day + 1) * SECONDS_PER_DAY)
            start_min = (cursor % SECONDS_PER_DAY) // 60
            end_min = (day_end - day * SECONDS_PER_DAY) // 60
            out.append(
                {
                    "day": DAY_NAMES[day % 7],
                    "from": f"{start_min // 60:02d}:{start_min % 60:02d}",
                    "to": "24:00" if end_min == MINUTES_PER_DAY
                    else f"{end_min // 60:02d}:{end_min % 60:02d}",
                }
            )
            cursor = day_end
    return out
