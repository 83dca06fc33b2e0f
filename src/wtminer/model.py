"""Core domain types: instants, spans, activity instances and event logs.

All time arithmetic is integer seconds since the Unix epoch (UTC). A span is
a plain (start, end) pair read as the half-open interval [start, end), which
lets adjacent cause intervals partition a waiting period with no double
counting. A set of instants is a canonical tuple of spans: sorted, pairwise
disjoint, non-touching and non-empty, with `()` the empty set.
`_canonicalize` builds one from spans that come from outside the pipeline.
"""
from __future__ import annotations

from collections.abc import Iterable, Sequence
from functools import cached_property

# Instants are plain epoch seconds; durations are plain second counts.
TimeInstant = int
# A half-open span [start, end) of instants; `_canonicalize` checks start <= end.
Span = tuple[TimeInstant, TimeInstant]

UNKNOWN_RESOURCE = "__UNKNOWN__"


class WtMinerError(Exception):
    """Base class for errors raised by this package."""


class ConfigError(WtMinerError):
    """Invalid configuration: bad column mapping, malformed override file, etc."""


class IngestError(WtMinerError):
    """The input log could not be turned into a usable event log."""


# The frozen types' own `__setattr__` refuses every assignment, so no
# constructor assigns through it. A record fills its instance `__dict__` in
# one `vars(self).update(...)` call. Each of the two types built once per
# activity instance keeps its fields in the slots of a private writable base
# class that defines no `__setattr__`: its `__new__` makes an object of that
# base, stores each field with a plain assignment, and seals the object by
# setting its `__class__` to the public frozen class, which adds no slots.
# That builds an `ActivityInstance` about a third faster than storing
# through each slot's bound `__set__`: 338 against 508 ns at best, both
# alternating in one process (2-core x86-64 host, CPython 3.11).
# The writable class is a base: a subclass that restored
# `object.__setattr__` would still take CPython's slow generic path.
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
    `_fields` names them: those of its `__init__`, or of its `__new__` when
    it has no `__init__`. The constructor fills every field itself. Two
    records are equal when they are of one class and their fields are
    equal."""

    __slots__ = ()
    _fields: tuple[str, ...] = ()

    def __init_subclass__(cls) -> None:
        # A base without a constructor of its own, like `_Value`, has no fields.
        for name in ("__init__", "__new__"):
            if name in vars(cls):
                code = getattr(cls, name).__code__
                cls._fields = code.co_varnames[1 : code.co_argcount]
                return

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


class _ActivityInstanceSlots:
    # The writable layout of `ActivityInstance`, sealed by its constructor.
    __slots__ = ("case_id", "activity", "resource", "started", "completed", "enabled")


class ActivityInstance(_Frozen, _ActivityInstanceSlots):
    """One execution of an activity within a case.

    `enabled` is None until enablement has been computed or supplied.
    Equality is identity: two field-identical rows are still distinct
    executions, so instances are safe as dict keys.
    """

    __slots__ = ()

    def __new__(
        cls,
        case_id: str,
        activity: str,
        resource: str,
        started: TimeInstant,
        completed: TimeInstant,
        enabled: TimeInstant | None = None,
    ) -> "ActivityInstance":
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
        self = object.__new__(_ActivityInstanceSlots)
        self.case_id = case_id
        self.activity = activity
        self.resource = resource
        self.started = started
        self.completed = completed
        self.enabled = enabled
        self.__class__ = cls
        return self

    @property
    def waiting(self) -> Span:
        if self.enabled is None:
            raise ValueError("waiting time is undefined until enablement is known")
        return (self.enabled, self.started)



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
        vars(self).update(instances=tuple(sorted(instances, key=_log_order)))

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
        vars(log).update(instances=instances, cases=cases)
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
