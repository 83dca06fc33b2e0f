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
from pathlib import Path

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


def _read_json_object(path: str | Path, what: str, shape: str) -> dict:
    """The JSON object in the UTF-8 file `path`, read with or without a BOM.

    An unreadable file, a text that is not UTF-8 JSON, and a value that is
    not an object are each a `ConfigError` that names the file as `what`;
    `shape` finishes the last one's "`what` must ..." message.
    """
    import json  # only an option file needs the JSON reader

    try:
        with open(path, encoding="utf-8-sig") as handle:
            payload = json.load(handle)
    except OSError as exc:
        raise ConfigError(f"cannot read {what} {path}: {exc}") from exc
    except ValueError as exc:  # not UTF-8 text, or not JSON
        raise ConfigError(f"{what} {path} is not UTF-8 JSON: {exc}") from exc
    if not isinstance(payload, dict):
        raise ConfigError(f"{what} must {shape}")
    return payload


# The frozen types' own `__setattr__` refuses every assignment, so no
# constructor assigns through it. A record fills its instance `__dict__` in
# one `vars(self).update(...)` call. Each of the two types built once per
# activity instance keeps its fields in the slots of a private writable base
# class that defines no `__setattr__`. One private sealing factory per type,
# a plain function, makes an object of that base, stores each field with a
# plain assignment, and seals the object by setting its `__class__` to the
# public frozen class, which adds no slots. That is about a third faster
# than storing through each slot's bound `__set__` (338 against 508 ns at
# best). The public `__new__` calls the factory, and in `ActivityInstance`
# checks its arguments first; the pipeline's own builders call the factory
# directly, because calling the class costs about 165 ns more per object:
# 482-487 against 307-320 ns for an `ActivityInstance`, and 456-498
# against 287-316 ns for a `WtDecomposition` (minimum of 40 rounds of 8000
# objects; 2-core x86-64 host, CPython 3.11.7).
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
    """A type with named fields, in order, as `_fields` names them. Two
    records are equal when they are of one class and their fields are equal.

    A record declares its fields as class annotations, each with its default
    if it has one, and `_fill` is its constructor. A type that writes its own
    `__init__`, or `__new__` when it has no `__init__`, has that
    constructor's parameters as its fields and fills them itself."""

    __slots__ = ()
    _fields: tuple[str, ...] = ()
    _defaults: dict[str, object] = {}

    def __init_subclass__(cls) -> None:
        # A base without a constructor or annotations of its own, like
        # `_Value`, has no fields.
        own = vars(cls)
        for name in ("__init__", "__new__"):
            if name in own:
                code = getattr(cls, name).__code__
                cls._fields = code.co_varnames[1 : code.co_argcount]
                return
        if "__annotations__" in own:
            cls._fields = tuple(own["__annotations__"])
            cls._defaults = {name: own[name] for name in cls._fields if name in own}
            cls.__init__ = _fill

    def _check(self) -> None:
        """Raise if the fields do not make a valid record; `_fill` calls it
        once they are stored."""

    def as_dict(self) -> dict:
        return {name: getattr(self, name) for name in self._fields}

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.as_dict() == other.as_dict()


def _fill(self: _Record, *args: object, **kwargs: object) -> None:
    """The constructor of a record with declared fields. It binds `args` and
    `kwargs` to `_fields` as a call binds them to parameters, takes each
    omitted field's declared default, stores every field, and runs `_check`."""
    cls = type(self)
    fields = cls._fields
    if len(args) > len(fields):
        raise TypeError(f"{cls.__name__}() takes {len(fields)} arguments, got {len(args)}")
    given = dict(zip(fields, args))
    for name in kwargs:
        if name not in fields:
            raise TypeError(f"{cls.__name__}() got an unexpected keyword argument {name!r}")
        if name in given:
            raise TypeError(f"{cls.__name__}() got multiple values for argument {name!r}")
    values = {**cls._defaults, **given, **kwargs}
    if len(values) < len(fields):
        missing = ", ".join(repr(name) for name in fields if name not in values)
        raise TypeError(f"{cls.__name__}() missing required arguments: {missing}")
    vars(self).update(values)
    self._check()


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
    # The writable layout of `ActivityInstance`, sealed by `_sealed_instance`.
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
        return _sealed_instance(case_id, activity, resource, started, completed, enabled)

    @property
    def waiting(self) -> Span:
        if self.enabled is None:
            raise ValueError("waiting time is undefined until enablement is known")
        return (self.enabled, self.started)


def _sealed_instance(
    case_id: str,
    activity: str,
    resource: str,
    started: TimeInstant,
    completed: TimeInstant,
    enabled: TimeInstant | None,
) -> ActivityInstance:
    # The one sealing path, without `ActivityInstance.__new__`'s checks: a
    # caller must already hold started <= completed and, when enabled is
    # set, enabled <= started.
    self = object.__new__(_ActivityInstanceSlots)
    self.case_id = case_id
    self.activity = activity
    self.resource = resource
    self.started = started
    self.completed = completed
    self.enabled = enabled
    self.__class__ = ActivityInstance
    return self


def _log_order(inst: ActivityInstance) -> tuple:
    return (inst.case_id, inst.started, inst.completed, inst.activity)


def _resource_order(inst: ActivityInstance) -> tuple:
    return (inst.started, inst.completed, inst.activity, inst.case_id)


class EventLog(_Value):
    """Immutable collection of activity instances indexed by case.

    The constructor takes any iterable of instances and sorts them into
    (case_id, started, completed, activity) order, so downstream passes see
    a deterministic sequence regardless of input row order; the sort is
    stable, so full ties keep their input order. `cases` maps each case id,
    in sorted order, to its instances in that order. An empty log is an
    `IngestError`.
    """

    def __init__(self, instances: Iterable[ActivityInstance]) -> None:
        instances = tuple(sorted(instances, key=_log_order))
        if not instances:
            raise IngestError("event log contains no activity instances")
        by_case: dict[str, list[ActivityInstance]] = {}
        for inst in instances:
            by_case.setdefault(inst.case_id, []).append(inst)
        cases = {cid: tuple(seq) for cid, seq in by_case.items()}
        vars(self).update(instances=instances, cases=cases)

    @classmethod
    def _from_sorted(
        cls,
        instances: tuple[ActivityInstance, ...],
        cases: dict[str, tuple[ActivityInstance, ...]],
    ) -> "EventLog":
        # For non-empty instances already in log order, with `cases` the
        # grouping `__init__` would build from them.
        log = object.__new__(cls)
        vars(log).update(instances=instances, cases=cases)
        return log

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
