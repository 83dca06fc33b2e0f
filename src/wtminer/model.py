"""Core domain types: instants, half-open intervals, canonical interval sets,
activity instances and event logs.

All time arithmetic is integer seconds since the Unix epoch (UTC). Intervals
are half-open [start, end), which lets adjacent cause intervals partition a
waiting period with no double counting.
"""
from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from functools import cached_property
from operator import attrgetter
from typing import Iterable, Iterator, Optional

# Instants are plain epoch seconds; durations are plain second counts.
TimeInstant = int

UNKNOWN_RESOURCE = "__UNKNOWN__"


class WtMinerError(Exception):
    """Base class for errors raised by this package."""


class ConfigError(WtMinerError):
    """Invalid configuration: bad column mapping, malformed override file, etc."""


class IngestError(WtMinerError):
    """The input log could not be turned into a usable event log."""


@dataclass(frozen=True, order=True)
class TimeInterval:
    """Half-open span [start, end) in epoch seconds. Zero length is allowed."""

    start: TimeInstant
    end: TimeInstant

    def __post_init__(self) -> None:
        if self.end < self.start:
            raise ValueError(f"interval end {self.end} before start {self.start}")

    @property
    def duration(self) -> int:
        return self.end - self.start

    def is_empty(self) -> bool:
        return self.end == self.start

    def contains_point(self, t: TimeInstant) -> bool:
        return self.start <= t < self.end

    def overlaps(self, other: "TimeInterval") -> bool:
        return self.start < other.end and other.start < self.end

    def intersect(self, other: "TimeInterval") -> Optional["TimeInterval"]:
        start = max(self.start, other.start)
        end = min(self.end, other.end)
        if end > start:
            return TimeInterval(start, end)
        return None

    def __repr__(self) -> str:
        return f"[{self.start}, {self.end})"


def _canonicalize(intervals: Iterable[TimeInterval]) -> tuple[TimeInterval, ...]:
    # Sort, drop empties, merge overlapping or touching neighbours.
    pending = sorted(iv for iv in intervals if not iv.is_empty())
    merged: list[TimeInterval] = []
    for iv in pending:
        if merged and iv.start <= merged[-1].end:
            if iv.end > merged[-1].end:
                merged[-1] = TimeInterval(merged[-1].start, iv.end)
        else:
            merged.append(iv)
    return tuple(merged)


_START = attrgetter("start")
_END = attrgetter("end")


@dataclass(frozen=True)
class IntervalSet:
    """Canonical set of instants: sorted, pairwise disjoint, non-touching intervals."""

    intervals: tuple[TimeInterval, ...] = ()

    def __post_init__(self) -> None:
        object.__setattr__(self, "intervals", _canonicalize(self.intervals))

    @classmethod
    def _from_canonical(cls, intervals: tuple[TimeInterval, ...]) -> "IntervalSet":
        # For results already sorted, disjoint, non-touching and non-empty.
        result = object.__new__(cls)
        object.__setattr__(result, "intervals", intervals)
        return result

    @classmethod
    def empty(cls) -> "IntervalSet":
        return _EMPTY

    @classmethod
    def of(cls, *spans: tuple[TimeInstant, TimeInstant]) -> "IntervalSet":
        return cls(tuple(TimeInterval(s, e) for s, e in spans))

    @property
    def total_duration(self) -> int:
        return sum(iv.duration for iv in self.intervals)

    def is_empty(self) -> bool:
        return not self.intervals

    def contains_point(self, t: TimeInstant) -> bool:
        for iv in self.intervals:
            if iv.start > t:
                return False
            if t < iv.end:
                return True
        return False

    def overlapping(self, span: TimeInterval) -> "IntervalSet":
        """The member intervals that overlap `span`, found by bisection, unclipped."""
        ivs = self.intervals
        lo = bisect_right(ivs, span.start, key=_END)
        hi = bisect_left(ivs, span.end, lo=lo, key=_START)
        return IntervalSet._from_canonical(ivs[lo:hi])

    def intersect(self, other: "IntervalSet") -> "IntervalSet":
        # Two-pointer sweep over both canonical sequences.
        out: list[TimeInterval] = []
        a, b = self.intervals, other.intervals
        i = j = 0
        while i < len(a) and j < len(b):
            start = max(a[i].start, b[j].start)
            end = min(a[i].end, b[j].end)
            if end > start:
                out.append(TimeInterval(start, end))
            if a[i].end <= b[j].end:
                i += 1
            else:
                j += 1
        return IntervalSet._from_canonical(tuple(out))

    def union(self, other: "IntervalSet") -> "IntervalSet":
        return IntervalSet(self.intervals + other.intervals)

    def subtract(self, other: "IntervalSet") -> "IntervalSet":
        out: list[TimeInterval] = []
        holes = other.intervals
        j = 0
        for iv in self.intervals:
            cursor = iv.start
            while j < len(holes) and holes[j].end <= cursor:
                j += 1
            k = j
            while k < len(holes) and holes[k].start < iv.end:
                if holes[k].start > cursor:
                    out.append(TimeInterval(cursor, holes[k].start))
                cursor = max(cursor, holes[k].end)
                k += 1
            if cursor < iv.end:
                out.append(TimeInterval(cursor, iv.end))
        return IntervalSet._from_canonical(tuple(out))

    def __and__(self, other: "IntervalSet") -> "IntervalSet":
        return self.intersect(other)

    def __or__(self, other: "IntervalSet") -> "IntervalSet":
        return self.union(other)

    def __sub__(self, other: "IntervalSet") -> "IntervalSet":
        return self.subtract(other)

    def __iter__(self) -> Iterator[TimeInterval]:
        return iter(self.intervals)

    def __len__(self) -> int:
        return len(self.intervals)

    def __bool__(self) -> bool:
        return bool(self.intervals)

    def __repr__(self) -> str:
        return "{" + ", ".join(repr(iv) for iv in self.intervals) + "}"


# Interval sets are immutable, so every caller can share one empty set.
_EMPTY = IntervalSet._from_canonical(())


@dataclass(frozen=True, eq=False)
class ActivityInstance:
    """One execution of an activity within a case.

    `enabled` is None until enablement has been computed or supplied.
    Equality is identity: two field-identical rows are still distinct
    executions, so instances are safe as dict keys.
    """

    case_id: str
    activity: str
    resource: str
    started: TimeInstant
    completed: TimeInstant
    enabled: Optional[TimeInstant] = None

    def __post_init__(self) -> None:
        if self.completed < self.started:
            raise ValueError(
                f"instance of {self.activity!r} completes at {self.completed} "
                f"before it starts at {self.started}"
            )
        if self.enabled is not None and self.enabled > self.started:
            raise ValueError(
                f"instance of {self.activity!r} enabled at {self.enabled} "
                f"after it starts at {self.started}"
            )

    @property
    def processing(self) -> TimeInterval:
        return TimeInterval(self.started, self.completed)

    @property
    def waiting(self) -> TimeInterval:
        if self.enabled is None:
            raise ValueError("waiting time is undefined until enablement is known")
        return TimeInterval(self.enabled, self.started)


def _within_case_key(inst: ActivityInstance) -> tuple:
    return (inst.started, inst.completed, inst.activity)


def _resource_order(inst: ActivityInstance) -> tuple:
    return (inst.started, inst.completed, inst.activity, inst.case_id)


@dataclass(frozen=True)
class EventLog:
    """Immutable collection of activity instances indexed by case.

    Instances are kept in (case_id, started, completed, activity) order so
    downstream passes see a deterministic sequence regardless of input row
    order. `from_instances` sorts; the constructor takes instances already in
    that order. Either way an empty log is an `IngestError`.
    """

    instances: tuple[ActivityInstance, ...]

    def __post_init__(self) -> None:
        if not self.instances:
            raise IngestError("event log contains no activity instances")

    @classmethod
    def from_instances(cls, instances: Iterable[ActivityInstance]) -> "EventLog":
        ordered = sorted(instances, key=lambda i: (i.case_id,) + _within_case_key(i))
        return cls(tuple(ordered))

    @cached_property
    def cases(self) -> dict[str, tuple[ActivityInstance, ...]]:
        by_case: dict[str, list[ActivityInstance]] = {}
        for inst in self.instances:
            by_case.setdefault(inst.case_id, []).append(inst)
        return {cid: tuple(seq) for cid, seq in by_case.items()}

    @cached_property
    def by_resource(self) -> dict[str, tuple[ActivityInstance, ...]]:
        """Each resource's instances in (started, completed, activity, case_id)
        order, keyed by resource in sorted order; remaining ties keep log order.

        Batching, calendar discovery and decomposition all read this one index.
        """
        grouped: dict[str, list[ActivityInstance]] = {}
        for inst in self.instances:
            grouped.setdefault(inst.resource, []).append(inst)
        return {
            resource: tuple(sorted(grouped[resource], key=_resource_order))
            for resource in sorted(grouped)
        }

    @cached_property
    def resources(self) -> tuple[str, ...]:
        return tuple(self.by_resource)

    @cached_property
    def activities(self) -> tuple[str, ...]:
        return tuple(sorted({inst.activity for inst in self.instances}))

    @property
    def case_count(self) -> int:
        return len(self.cases)

    def horizon(self) -> TimeInterval:
        """Smallest interval covering every enablement, start and completion."""
        start = min(
            inst.started if inst.enabled is None else min(inst.enabled, inst.started)
            for inst in self.instances
        )
        end = max(inst.completed for inst in self.instances)
        return TimeInterval(start, end)
