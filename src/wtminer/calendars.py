"""Weekly availability calendars per resource.

A resource's working hours are estimated from the instants at which it was
seen doing anything (starts and completions). Evidence is bucketed into
weekly slots of granule_minutes; slots with enough relative frequency count
as working time. If the resulting calendar explains too small a share of the
observations, the frequency cut is relaxed stepwise. Weekly calendars expand
to absolute availability spans over each resource's waits, the only
place where availability is read. Neither a calendar nor an availability
names its resource: the dict that holds it is keyed by the resource.
"""
from __future__ import annotations

from collections.abc import Iterable
from pathlib import Path

from wtminer.model import (
    ConfigError,
    EventLog,
    Span,
    UNKNOWN_RESOURCE,
    _Value,
    _canonicalize,
    _read_json_object,
)

SECONDS_PER_DAY = 86400
SECONDS_PER_WEEK = 7 * SECONDS_PER_DAY
MINUTES_PER_DAY = 1440
# 1970-01-01 was a Thursday, so an instant plus three days, modulo a week,
# is its offset from Monday 00:00; weekday indices run Monday=0 .. Sunday=6.
_MONDAY_SHIFT = 3 * SECONDS_PER_DAY

# Discovery halves the frequency cut at most this many times.
MAX_RELAXATIONS = 10

DAY_NAMES = ("MON", "TUE", "WED", "THU", "FRI", "SAT", "SUN")
_DAY_INDEX = {name: i for i, name in enumerate(DAY_NAMES)}


def _check_granule(granule_minutes: int) -> None:
    if granule_minutes < 1 or MINUTES_PER_DAY % granule_minutes != 0:
        raise ConfigError(
            f"granule must divide {MINUTES_PER_DAY} minutes, got {granule_minutes}"
        )


class CalendarParams(_Value):
    granule_minutes: int = 60
    confidence: float = 0.1
    support: float = 0.1

    def _check(self) -> None:
        _check_granule(self.granule_minutes)
        if not 0.0 <= self.confidence <= 1.0:
            raise ConfigError(f"confidence must be in [0, 1], got {self.confidence}")
        if not 0.0 <= self.support <= 1.0:
            raise ConfigError(f"support must be in [0, 1], got {self.support}")


class WeeklyCalendar(_Value):
    """Working time as merged [start, end) second offsets from Monday 00:00."""

    def __init__(self, granule_minutes: int, ranges: Iterable[Span]) -> None:
        _check_granule(granule_minutes)
        size = granule_minutes * 60
        ranges = _canonicalize(ranges)
        for start, end in ranges:
            if start < 0 or end > SECONDS_PER_WEEK or start % size or end % size:
                raise ConfigError(f"range ({start}, {end}) outside the weekly grid")
        vars(self).update(granule_minutes=granule_minutes, ranges=ranges)

    @classmethod
    def _from_canonical(cls, granule_minutes: int, ranges: tuple[Span, ...]) -> "WeeklyCalendar":
        # For ranges already merged, sorted and on the granule's weekly grid.
        cal = object.__new__(cls)
        vars(cal).update(granule_minutes=granule_minutes, ranges=ranges)
        return cal

    @classmethod
    def always_on(cls, granule_minutes: int = 60) -> "WeeklyCalendar":
        return cls(granule_minutes, ((0, SECONDS_PER_WEEK),))

    @property
    def is_always_on(self) -> bool:
        return self.ranges == ((0, SECONDS_PER_WEEK),)


class AbsoluteAvailability(_Value):
    def __init__(self, available: tuple[Span, ...]) -> None:
        vars(self).update(available=available)


def discover_calendar(
    log: EventLog, resource: str, params: CalendarParams = CalendarParams()
) -> WeeklyCalendar:
    """Estimate one resource's weekly calendar from its observed instants.

    A slot is working when its observation count reaches confidence times the
    busiest slot's count. When working slots explain less than the support
    share of all observations, the cut is halved (bounded) until they do or
    every observed slot is in.
    """
    if resource == UNKNOWN_RESOURCE:
        return WeeklyCalendar.always_on(params.granule_minutes)
    seq = log.by_resource.get(resource, ())
    if not seq:
        raise ValueError(f"resource {resource!r} has no instances in the log")

    # Count each observed instant at its slot's index in the week from
    # Monday 00:00; the slot size divides a day, so the index is
    # weekday * slots per day + slot of the day, also before 1970.
    size = params.granule_minutes * 60
    shift = _MONDAY_SHIFT
    freq: dict[int, int] = {}
    for inst in seq:
        key = (inst.started + shift) % SECONDS_PER_WEEK // size
        freq[key] = freq.get(key, 0) + 1
        key = (inst.completed + shift) % SECONDS_PER_WEEK // size
        freq[key] = freq.get(key, 0) + 1
    max_freq = max(freq.values())
    needed = params.support * (2 * len(seq))

    # Slots in week order, so the working ones come out sorted.
    slots = sorted(freq)
    cut = params.confidence
    for _ in range(MAX_RELAXATIONS + 1):
        threshold = cut * max_freq
        working = [key for key in slots if freq[key] >= threshold]
        if len(working) == len(slots) or sum([freq[key] for key in working]) >= needed:
            break
        cut /= 2
    # Merge runs of neighbouring slots into ranges; the busiest slot is
    # always working, so there is at least one.
    ranges: list[Span] = []
    first = last = working[0]
    for key in working:
        if key != last:
            ranges.append((first * size, last * size))
            first = key
        last = key + 1
    ranges.append((first * size, last * size))
    return WeeklyCalendar._from_canonical(params.granule_minutes, tuple(ranges))


def discover_calendars(
    log: EventLog, params: CalendarParams = CalendarParams()
) -> dict[str, WeeklyCalendar]:
    return {res: discover_calendar(log, res, params) for res in log.resources}


def expand_calendar(cal: WeeklyCalendar, *spans: Span) -> AbsoluteAvailability:
    """Tile the weekly working ranges across the weeks each (start, end) span
    touches, clipped to that span. No spans, or only empty ones, give the
    empty set; a span that ends before it starts is a `ValueError`."""
    ranges = cal.ranges
    pieces: list[Span] = []
    last_end = 0
    # In start order, each piece either extends the last one (it overlaps
    # or touches it, as a range ending Sunday 24:00 touches the next Monday
    # 00:00) or starts after it, so the pieces come out canonical.
    for start, end in sorted(spans):
        if end <= start:
            if end < start:
                raise ValueError(f"span end {end} before start {start}")
            continue
        w = start - (start + _MONDAY_SHIFT) % SECONDS_PER_WEEK  # its week's Monday
        while w < end:
            for s, e in ranges:
                e += w
                if e <= start:
                    continue
                s += w
                if s >= end:
                    break
                if s < start:
                    s = start
                if e > end:
                    e = end
                if pieces and s <= last_end:
                    if e > last_end:
                        pieces[-1] = (pieces[-1][0], e)
                        last_end = e
                else:
                    pieces.append((s, e))
                    last_end = e
            w += SECONDS_PER_WEEK
    return AbsoluteAvailability(tuple(pieces))


def _parse_minute_of_day(text: str, *, allow_midnight_end: bool) -> int:
    # Each side is one or two ASCII digits; `int()` would also accept signs,
    # underscores, inner blanks and non-ASCII digits.
    parts = text.strip().split(":")
    if len(parts) != 2 or not all(
        len(part) <= 2 and part.isascii() and part.isdigit() for part in parts
    ):
        raise ConfigError(f"expected HH:MM, got {text!r}")
    hours, minutes = int(parts[0]), int(parts[1])
    if hours == 24 and minutes == 0 and allow_midnight_end:
        return MINUTES_PER_DAY
    if not (0 <= hours < 24 and 0 <= minutes < 60):
        raise ConfigError(f"time of day out of range: {text!r}")
    return hours * 60 + minutes


def load_calendar_overrides(path: str | Path) -> dict[str, WeeklyCalendar]:
    """Read manually defined calendars from JSON.

    Format: {"R1": [{"day": "MON", "from": "09:00", "to": "17:00"}, ...]}.
    Overrides use a 1-minute granule so arbitrary HH:MM bounds are exact.
    Each entry is one weekly range; overlapping and touching entries merge.
    """
    raw = _read_json_object(
        Path(path), "calendar overrides", "be a JSON object keyed by resource"
    )
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
        overrides[resource] = WeeklyCalendar(1, spans)
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
