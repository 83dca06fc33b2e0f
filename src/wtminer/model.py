"""Core domain types: instants, spans, canonical interval sets, activity
instances and event logs.

All time arithmetic is integer seconds since the Unix epoch (UTC). A span is
a plain (start, end) pair read as the half-open interval [start, end), which
lets adjacent cause intervals partition a waiting period with no double
counting. `IntervalSet` is the one interval type that checks and stores them.
"""
from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from functools import cached_property
from operator import itemgetter
from typing import Iterable, Iterator, Optional, Sequence

# Instants are plain epoch seconds; durations are plain second counts.
TimeInstant = int
# A half-open span [start, end) of instants; `IntervalSet` checks start <= end.
Span = tuple[TimeInstant, TimeInstant]

UNKNOWN_RESOURCE = "__UNKNOWN__"


class WtMinerError(Exception):
    """Base class for errors raised by this package."""


class ConfigError(WtMinerError):
    """Invalid configuration: bad column mapping, malformed override file, etc."""


class IngestError(WtMinerError):
    """The input log could not be turned into a usable event log."""


def _canonicalize(spans: Iterable[Span]) -> tuple[Span, ...]:
    # Sort, check and drop empties, merge overlapping or touching neighbours.
    merged: list[Span] = []
    for start, end in sorted(spans):
        if end < start:
            raise ValueError(f"interval end {end} before start {start}")
        if end == start:
            continue
        if merged and start <= merged[-1][1]:
            if end > merged[-1][1]:
                merged[-1] = (merged[-1][0], end)
        else:
            merged.append((start, end))
    return tuple(merged)


def _split(spans: Sequence[Span], holes: Sequence[Span]) -> tuple[list[Span], list[Span]]:
    """One sweep of canonical `spans` against canonical `holes`: the parts of
    the spans inside the holes, and the parts outside them, both canonical."""
    inside: list[Span] = []
    outside: list[Span] = []
    j = 0
    n = len(holes)
    for cursor, end in spans:
        while j < n and holes[j][1] <= cursor:
            j += 1
        k = j
        while k < n and holes[k][0] < end:
            hole_start, hole_end = holes[k]
            if hole_start > cursor:
                outside.append((cursor, hole_start))
                cursor = hole_start
            inside.append((cursor, min(hole_end, end)))
            cursor = hole_end
            k += 1
        if cursor < end:
            outside.append((cursor, end))
    return inside, outside


_START = itemgetter(0)
_END = itemgetter(1)


@dataclass(frozen=True, slots=True)
class IntervalSet:
    """Canonical set of instants: sorted, pairwise disjoint, non-touching,
    non-empty (start, end) pairs. A pair that ends before it starts is a
    `ValueError`."""

    intervals: tuple[Span, ...] = ()

    def __post_init__(self) -> None:
        object.__setattr__(self, "intervals", _canonicalize(self.intervals))

    @classmethod
    def _from_canonical(cls, intervals: tuple[Span, ...]) -> "IntervalSet":
        # For results already sorted, disjoint, non-touching and non-empty.
        result = object.__new__(cls)
        object.__setattr__(result, "intervals", intervals)
        return result

    @classmethod
    def empty(cls) -> "IntervalSet":
        return _EMPTY

    @property
    def total_duration(self) -> int:
        return sum(end - start for start, end in self.intervals)

    def overlapping(self, span: Span) -> "IntervalSet":
        """The member intervals that overlap `span`, found by bisection, unclipped."""
        ivs = self.intervals
        lo = bisect_right(ivs, span[0], key=_END)
        hi = bisect_left(ivs, span[1], lo=lo, key=_START)
        return IntervalSet._from_canonical(ivs[lo:hi])

    def intersect(self, other: "IntervalSet") -> "IntervalSet":
        inside, _ = _split(self.intervals, other.intervals)
        return IntervalSet._from_canonical(tuple(inside))

    def subtract(self, other: "IntervalSet") -> "IntervalSet":
        _, outside = _split(self.intervals, other.intervals)
        return IntervalSet._from_canonical(tuple(outside))

    def __and__(self, other: "IntervalSet") -> "IntervalSet":
        return self.intersect(other)

    def __sub__(self, other: "IntervalSet") -> "IntervalSet":
        return self.subtract(other)

    def __iter__(self) -> Iterator[Span]:
        return iter(self.intervals)

    def __len__(self) -> int:
        return len(self.intervals)

    def __bool__(self) -> bool:
        return bool(self.intervals)

    def __repr__(self) -> str:
        return "{" + ", ".join(f"[{s}, {e})" for s, e in self.intervals) + "}"


# Interval sets are immutable, so every caller can share one empty set.
_EMPTY = IntervalSet._from_canonical(())


@dataclass(frozen=True, eq=False, slots=True)
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
    def waiting(self) -> Span:
        if self.enabled is None:
            raise ValueError("waiting time is undefined until enablement is known")
        return (self.enabled, self.started)


def _log_order(inst: ActivityInstance) -> tuple:
    return (inst.case_id, inst.started, inst.completed, inst.activity)


def _resource_order(inst: ActivityInstance) -> tuple:
    return (inst.started, inst.completed, inst.activity, inst.case_id)


@dataclass(frozen=True)
class EventLog:
    """Immutable collection of activity instances indexed by case.

    The constructor sorts instances into (case_id, started, completed,
    activity) order, so downstream passes see a deterministic sequence
    regardless of input row order; the sort is stable, so full ties keep
    their input order. An empty log is an `IngestError`.
    """

    instances: tuple[ActivityInstance, ...]

    def __post_init__(self) -> None:
        if not self.instances:
            raise IngestError("event log contains no activity instances")
        object.__setattr__(
            self, "instances", tuple(sorted(self.instances, key=_log_order))
        )

    @classmethod
    def from_instances(cls, instances: Iterable[ActivityInstance]) -> "EventLog":
        return cls(tuple(instances))

    @classmethod
    def _from_sorted(
        cls,
        instances: tuple[ActivityInstance, ...],
        cases: dict[str, tuple[ActivityInstance, ...]],
    ) -> "EventLog":
        # For non-empty instances already in log order, with `cases` the
        # grouping the `cases` property would build from them; it is stored
        # where that cached property keeps its value.
        log = object.__new__(cls)
        object.__setattr__(log, "instances", instances)
        vars(log)["cases"] = cases
        return log

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
