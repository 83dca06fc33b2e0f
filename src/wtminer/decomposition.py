"""Waiting time decomposition.

Every second of a waiting target's interval [enabled, started) is
attributed to exactly one cause, claimed in strict dominance order:

1. batching        - the target accumulated in a batch until its last member
                     was enabled
2. contention      - the resource was busy on work enabled no later than the
                     target (first come, first served backlog)
3. prioritization  - the resource was busy on work enabled after the target
                     (the target was overtaken)
4. unavailability  - the instant lies outside the resource's availability
                     calendar
5. extraneous      - residual: none of the above explains it

Each stage claims from what previous stages left, so the five sets
partition the waiting interval exactly. The cascade works on bare sorted
(start, end) lists, and each of its five results is a canonical tuple of
spans, `()` when empty.
"""
from __future__ import annotations

from bisect import bisect_left, bisect_right
from collections.abc import Iterable
from operator import attrgetter, itemgetter

from wtminer.batching import BatchingResult
from wtminer.calendars import AbsoluteAvailability
from wtminer.model import (
    ActivityInstance,
    EventLog,
    Span,
    UNKNOWN_RESOURCE,
    _Value,
    _split,
)

_START = itemgetter(0)
_END = itemgetter(1)
_STARTED = attrgetter("started")

CAUSES = ("batching", "contention", "prioritization", "unavailability", "extraneous")


class _WtDecompositionSlots:
    # The writable layout of `WtDecomposition`, sealed by `_sealed_decomposition`:
    # one span tuple per cause, named and ordered as in `CAUSES`.
    __slots__ = ("instance", *CAUSES)


class WtDecomposition(_Value, _WtDecompositionSlots):
    """Disjoint per-cause sets of instants covering one target's waiting time,
    each a canonical tuple of (start, end) spans."""

    __slots__ = ()

    def __new__(
        cls,
        instance: ActivityInstance,
        batching: tuple[Span, ...],
        contention: tuple[Span, ...],
        prioritization: tuple[Span, ...],
        unavailability: tuple[Span, ...],
        extraneous: tuple[Span, ...],
    ) -> "WtDecomposition":
        return _sealed_decomposition(
            instance, batching, contention, prioritization, unavailability, extraneous
        )

    @property
    def waiting_duration(self) -> int:
        return self.instance.started - self.instance.enabled


def _sealed_decomposition(
    instance: ActivityInstance,
    batching: tuple[Span, ...],
    contention: tuple[Span, ...],
    prioritization: tuple[Span, ...],
    unavailability: tuple[Span, ...],
    extraneous: tuple[Span, ...],
) -> WtDecomposition:
    # The one sealing path; `Decomposer.decompose` calls it directly.
    self = object.__new__(_WtDecompositionSlots)
    self.instance = instance
    self.batching = batching
    self.contention = contention
    self.prioritization = prioritization
    self.unavailability = unavailability
    self.extraneous = extraneous
    self.__class__ = WtDecomposition
    return self


# A resource's instances longer than this many times its median duration
# form its outlier list; see `_window`.
_OUTLIER_FACTOR = 16

# One resource's work sequence, its start times and its longest processing,
# then the same three for its outliers: `()`, `[]` and 0 when it has none.
_Window = tuple[
    tuple[ActivityInstance, ...], list[int], int,
    tuple[ActivityInstance, ...], list[int], int,
]


def _window(seq: tuple[ActivityInstance, ...]) -> _Window:
    # A scan reaches back by its list's longest duration, so one week-long
    # instance would make every wait scan a week of work. The instances
    # longer than 16 median durations get their own list, scanned
    # separately. The median is only taken when the longest exceeds 16
    # mean durations: otherwise the single window reaches back at most that
    # far, and the pre-check costs a sum where the median costs a sort.
    durations = [inst.completed - inst.started for inst in seq]
    longest = max(durations)
    if longest * len(seq) > _OUTLIER_FACTOR * sum(durations):
        cut = _OUTLIER_FACTOR * sorted(durations)[len(seq) // 2]
        outliers = tuple(inst for inst, d in zip(seq, durations) if d > cut)
        if outliers:
            typical = tuple(inst for inst, d in zip(seq, durations) if d <= cut)
            return (
                typical,
                [inst.started for inst in typical],
                max(d for d in durations if d <= cut),
                outliers,
                [inst.started for inst in outliers],
                longest,
            )
    return seq, [inst.started for inst in seq], longest, (), [], 0


class Decomposer:
    """The per-instance cascade over the log's resource index, batches and calendars."""

    def __init__(
        self,
        log: EventLog,
        batching: BatchingResult,
        availability: dict[str, AbsoluteAvailability],
    ) -> None:
        self.batching = batching
        self.availability = availability
        self._windows: dict[str, _Window] = {
            resource: _window(seq) for resource, seq in log.by_resource.items()
        }

    def decompose(self, target: ActivityInstance) -> WtDecomposition:
        # Most targets do not wait; they are answered before anything else
        # is read. An unknown enablement is never equal to a start time, so
        # it still reaches `waiting`, which raises.
        if target.enabled == target.started:
            return _sealed_decomposition(target, (), (), (), (), ())
        wait_start, wait_end = target.waiting
        resource = target.resource
        if resource == UNKNOWN_RESOURCE:
            # No resource identity: no batch, no busy evidence and no
            # calendar, so all of the wait is extraneous.
            return _sealed_decomposition(target, (), (), (), (), ((wait_start, wait_end),))

        # Batching claims a prefix of the wait, so what it leaves is one span.
        batching: list[Span] = []
        rest_start = wait_start
        batch = self.batching.by_instance.get(target)
        if batch is not None:
            batch_end = min(batch.accumulation_end, wait_end)
            if batch_end > wait_start:
                batching.append((wait_start, batch_end))
                rest_start = batch_end
                if rest_start == wait_end:
                    return _sealed_decomposition(target, tuple(batching), (), (), (), ())

        # Same-resource processing inside the rest of the wait, in one pass
        # over the window: work enabled no later than the target, then work
        # enabled after it. Only instances of a list starting in
        # [rest_start - its longest, wait_end) can overlap it: anything
        # starting earlier has already completed. The target itself starts
        # at wait_end, so it is never in the window. Members arrive in start
        # order, the outliers merged in, so clipped starts never decrease
        # and each list is merged as it grows.
        seq, starts, longest, outliers, outlier_starts, outlier_longest = self._windows[resource]
        members = seq[bisect_left(starts, rest_start - longest) : bisect_left(starts, wait_end)]
        if outliers:
            lo = bisect_left(outlier_starts, rest_start - outlier_longest)
            hi = bisect_left(outlier_starts, wait_end, lo)
            if lo < hi:
                members = sorted(members + outliers[lo:hi], key=_STARTED)
        earlier: list[Span] = []
        later: list[Span] = []
        for other in members:
            start = max(other.started, rest_start)
            end = min(other.completed, wait_end)
            if end > start:
                spans = earlier if other.enabled <= wait_start else later
                if spans and start <= spans[-1][1]:
                    spans[-1] = (spans[-1][0], max(end, spans[-1][1]))
                else:
                    spans.append((start, end))

        # Each cause claims what the previous ones left. `earlier` is
        # contention as it stands, clipped to the rest of the wait and
        # canonical, and its gaps are what it leaves. The rest lies inside
        # the wait, so the availability that overlaps the wait splits it
        # into unavailability and extraneous exactly. Availability is
        # canonical, so it is bisected on ends for the first interval ending
        # after the wait's start and on starts for the first one starting at
        # its end.
        remaining: list[Span] = []
        cursor = rest_start
        for start, end in earlier:
            if start > cursor:
                remaining.append((cursor, start))
            cursor = end
        if cursor < wait_end:
            remaining.append((cursor, wait_end))
        prioritization, remaining = _split(remaining, later)
        available = self.availability[resource].available
        lo = bisect_right(available, wait_start, key=_END)
        hi = bisect_left(available, wait_end, lo=lo, key=_START)
        extraneous, unavailability = _split(remaining, available[lo:hi])
        return _sealed_decomposition(
            target,
            tuple(batching),
            tuple(earlier),
            tuple(prioritization),
            tuple(unavailability),
            tuple(extraneous),
        )


def decompose_all(
    decomposer: Decomposer, targets: Iterable[ActivityInstance]
) -> tuple[WtDecomposition, ...]:
    """Decompose many targets, keeping their order. A target that does not
    wait is answered here, without a call of `decompose`."""
    decompose = decomposer.decompose
    return tuple(
        [
            _sealed_decomposition(target, (), (), (), (), ())
            if target.enabled == target.started
            else decompose(target)
            for target in targets
        ]
    )


def multitasking_rate(log: EventLog) -> float:
    """Share of instances whose processing overlaps same-resource processing.

    The decomposition assumes resources work one instance at a time; this
    diagnostic quantifies how far a log deviates from that assumption.
    """
    overlapping = 0
    total = 0
    for resource, seq in log.by_resource.items():
        if resource == UNKNOWN_RESOURCE:
            continue
        total += len(seq)
        # The sequence is in start order, so an instance overlaps an earlier
        # one exactly when the latest completion so far is after its start,
        # and a later one exactly when it completes after the next start. The
        # last instance has no next one.
        latest = seq[0].started
        for inst, nxt in zip(seq, seq[1:]):
            if latest > inst.started or inst.completed > nxt.started:
                overlapping += 1
            if inst.completed > latest:
                latest = inst.completed
        overlapping += latest > seq[-1].started
    return overlapping / total if total else 0.0
