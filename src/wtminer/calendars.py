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

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Optional, Union

from wtminer.model import (
    ConfigError,
    EventLog,
    IntervalSet,
    TimeInstant,
    TimeInterval,
    UNKNOWN_RESOURCE,
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


@dataclass(frozen=True)
class CalendarParams:
    granule_minutes: int = 60
    confidence: float = 0.1
    support: float = 0.1

    def __post_init__(self) -> None:
        if self.granule_minutes < 1 or MINUTES_PER_DAY % self.granule_minutes != 0:
            raise ConfigError(
                f"granule must divide {MINUTES_PER_DAY} minutes, got {self.granule_minutes}"
            )
        if not 0.0 <= self.confidence <= 1.0:
            raise ConfigError(f"confidence must be in [0, 1], got {self.confidence}")
        if not 0.0 <= self.support <= 1.0:
            raise ConfigError(f"support must be in [0, 1], got {self.support}")


@dataclass(frozen=True)
class WeeklyCalendar:
    """Working slots on a weekly grid: (weekday, slot index within day)."""

    resource: str
    granule_minutes: int
    working: frozenset[tuple[int, int]]

    def __post_init__(self) -> None:
        if MINUTES_PER_DAY % self.granule_minutes != 0:
            raise ConfigError(f"granule must divide {MINUTES_PER_DAY} minutes")
        per_day = self.slots_per_day
        for day, slot in self.working:
            if not (0 <= day < 7 and 0 <= slot < per_day):
                raise ConfigError(f"slot ({day}, {slot}) outside the weekly grid")

    @property
    def slots_per_day(self) -> int:
        return MINUTES_PER_DAY // self.granule_minutes

    @classmethod
    def always_on(cls, resource: str, granule_minutes: int = 60) -> "WeeklyCalendar":
        per_day = MINUTES_PER_DAY // granule_minutes
        slots = frozenset((d, s) for d in range(7) for s in range(per_day))
        return cls(resource=resource, granule_minutes=granule_minutes, working=slots)

    @property
    def is_always_on(self) -> bool:
        return len(self.working) == 7 * self.slots_per_day

    def weekly_ranges(self) -> tuple[tuple[int, int], ...]:
        """Working time as merged [start, end) second offsets from Monday 00:00."""
        granule_s = self.granule_minutes * 60
        starts = sorted(
            day * SECONDS_PER_DAY + slot * granule_s for day, slot in self.working
        )
        merged: list[list[int]] = []
        for s in starts:
            if merged and s <= merged[-1][1]:
                merged[-1][1] = max(merged[-1][1], s + granule_s)
            else:
                merged.append([s, s + granule_s])
        return tuple((s, e) for s, e in merged)


@dataclass(frozen=True)
class AbsoluteAvailability:
    resource: str
    available: IntervalSet


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
    return WeeklyCalendar(
        resource=resource,
        granule_minutes=params.granule_minutes,
        working=frozenset(working),
    )


def discover_calendars(
    log: EventLog, params: Optional[CalendarParams] = None
) -> dict[str, WeeklyCalendar]:
    if params is None:
        params = CalendarParams()
    return {res: discover_calendar(log, res, params) for res in log.resources}


def expand_calendar(cal: WeeklyCalendar, *spans: TimeInterval) -> AbsoluteAvailability:
    """Tile the weekly working ranges across the weeks each span touches,
    clipped to that span. No spans, or only empty ones, give the empty set."""
    ranges = cal.weekly_ranges()
    pieces: list[TimeInterval] = []
    for span in spans:
        w = week_start(span.start)
        while w < span.end:
            for s, e in ranges:
                if w + e > span.start and w + s < span.end:
                    pieces.append(
                        TimeInterval(max(w + s, span.start), min(w + e, span.end))
                    )
            w += SECONDS_PER_WEEK
    # Canonicalizing merges a range ending Sunday 24:00 with the next
    # Monday 00:00, and pieces of touching spans with each other.
    return AbsoluteAvailability(cal.resource, IntervalSet(tuple(pieces)))


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
    """
    path = Path(path)
    try:
        raw = json.loads(path.read_text(encoding="utf-8"))
    except OSError as exc:
        raise ConfigError(f"cannot read calendar overrides {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"calendar overrides {path} is not valid JSON: {exc}") from exc
    if not isinstance(raw, dict):
        raise ConfigError("calendar overrides must be a JSON object keyed by resource")

    overrides: dict[str, WeeklyCalendar] = {}
    for resource, ranges in raw.items():
        if not isinstance(ranges, list):
            raise ConfigError(f"override for {resource!r} must be a list of ranges")
        slots: set[tuple[int, int]] = set()
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
            day = _DAY_INDEX[day_name]
            slots.update((day, minute) for minute in range(start, end))
        overrides[resource] = WeeklyCalendar(
            resource=resource, granule_minutes=1, working=frozenset(slots)
        )
    return overrides


def calendar_to_ranges(cal: WeeklyCalendar) -> list[dict[str, str]]:
    """Serialize a weekly calendar as day/from/to dicts (split at midnight)."""
    out: list[dict[str, str]] = []
    for s, e in cal.weekly_ranges():
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
