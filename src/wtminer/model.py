"""Core domain types: instants, spans, canonical interval sets, activity
instances and event logs.

All time arithmetic is integer seconds since the Unix epoch (UTC). A span is
a plain (start, end) pair read as the half-open interval [start, end), which
lets adjacent cause intervals partition a waiting period with no double
counting. `IntervalSet` is the one interval type that checks and stores them.
"""
from __future__ import annotations

from bisect import bisect_left, bisect_right
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


# A constructor sets each field once through this; the frozen types' own
# `__setattr__` refuses every later assignment. The hot types skip its
# lookup of the slot by name: they call each slot's own bound `__set__`.
_set = object.__setattr__


def _slot_setters(cls: type) -> tuple:
    """The bound `__set__` of each of `cls`'s own slots, in `__slots__` order."""
    return tuple(vars(cls)[name].__set__ for name in cls.__slots__)


class _Frozen:
    """Base of the immutable types: assigning or deleting a field raises
    `dataclasses.FrozenInstanceError`, as on a frozen dataclass. The types are
    written out because `@dataclass` would generate their code, and import
    `inspect`, in every process at start-up; only this error path imports
    `dataclasses`."""

    __slots__ = ()

    def __setattr__(self, name: str, value: object) -> None:
        from dataclasses import FrozenInstanceError

        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        from dataclasses import FrozenInstanceError

        raise FrozenInstanceError(f"cannot delete field {name!r}")


class _Record:
    """A type whose fields are its constructor's parameters, in order, as
    `_fields` names them. Two records are equal when they are of one class
    and their fields are equal."""

    __slots__ = ()
    _fields: tuple[str, ...] = ()

    def __init_subclass__(cls) -> None:
        code = cls.__init__.__code__
        cls._fields = code.co_varnames[1 : code.co_argcount]

    def __init__(self, *values: object) -> None:
        for name, value in zip(self._fields, values, strict=True):
            _set(self, name, value)

    def as_dict(self) -> dict:
        return {name: getattr(self, name) for name in self._fields}

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.as_dict() == other.as_dict()


class _Value(_Record, _Frozen):
    """A frozen record, hashed by its fields."""

    __slots__ = ()

    def __hash__(self) -> int:
        return hash(tuple(self.as_dict().values()))


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


class IntervalSet(_Value):
    """Canonical set of instants: sorted, pairwise disjoint, non-touching,
    non-empty (start, end) pairs. A pair that ends before it starts is a
    `ValueError`."""

    __slots__ = ("intervals",)

    def __init__(self, intervals: Iterable[Span] = ()) -> None:
        _iv_intervals(self, _canonicalize(intervals))

    @classmethod
    def _from_canonical(cls, intervals: tuple[Span, ...]) -> "IntervalSet":
        # For results already sorted, disjoint, non-touching and non-empty.
        result = object.__new__(cls)
        _iv_intervals(result, intervals)
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


(_iv_intervals,) = _slot_setters(IntervalSet)
# Interval sets are immutable, so every caller can share one empty set.
_EMPTY = IntervalSet._from_canonical(())


class ActivityInstance(_Frozen):
    """One execution of an activity within a case.

    `enabled` is None until enablement has been computed or supplied.
    Equality is identity: two field-identical rows are still distinct
    executions, so instances are safe as dict keys.
    """

    __slots__ = ("case_id", "activity", "resource", "started", "completed", "enabled")

    def __init__(
        self,
        case_id: str,
        activity: str,
        resource: str,
        started: TimeInstant,
        completed: TimeInstant,
        enabled: Optional[TimeInstant] = None,
    ) -> None:
        if completed < started:
            raise ValueError(
                f"instance of {activity!r} completes at {completed} "
                f"before it starts at {started}"
            )
        if enabled is not None and enabled > started:
            raise ValueError(
                f"instance of {activity!r} enabled at {enabled} "
                f"after it starts at {started}"
            )
        _ai_case_id(self, case_id)
        _ai_activity(self, activity)
        _ai_resource(self, resource)
        _ai_started(self, started)
        _ai_completed(self, completed)
        _ai_enabled(self, enabled)

    @property
    def waiting(self) -> Span:
        if self.enabled is None:
            raise ValueError("waiting time is undefined until enablement is known")
        return (self.enabled, self.started)


(_ai_case_id, _ai_activity, _ai_resource, _ai_started, _ai_completed,
 _ai_enabled) = _slot_setters(ActivityInstance)


def _log_order(inst: ActivityInstance) -> tuple:
    return (inst.case_id, inst.started, inst.completed, inst.activity)


def _resource_order(inst: ActivityInstance) -> tuple:
    return (inst.started, inst.completed, inst.activity, inst.case_id)


class EventLog(_Value):
    """Immutable collection of activity instances indexed by case.

    The constructor sorts instances into (case_id, started, completed,
    activity) order, so downstream passes see a deterministic sequence
    regardless of input row order; the sort is stable, so full ties keep
    their input order. An empty log is an `IngestError`.
    """

    def __init__(self, instances: tuple[ActivityInstance, ...]) -> None:
        if not instances:
            raise IngestError("event log contains no activity instances")
        super().__init__(tuple(sorted(instances, key=_log_order)))

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
        _set(log, "instances", instances)
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
