"""Waiting time decomposition.

Every second of a transition instance's waiting interval is attributed to
exactly one cause, claimed in strict dominance order:

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
(start, end) lists and builds an `IntervalSet` only for each of its five
results.
"""
from __future__ import annotations

from bisect import bisect_left
from typing import Iterable

from wtminer.batching import BatchingResult
from wtminer.calendars import AbsoluteAvailability
from wtminer.model import (
    ActivityInstance,
    EventLog,
    IntervalSet,
    Span,
    UNKNOWN_RESOURCE,
    _Value,
    _slot_setters,
    _split,
)
from wtminer.transitions import TransitionInstance

_EMPTY = IntervalSet.empty()

CAUSES = ("batching", "contention", "prioritization", "unavailability", "extraneous")


class WtDecomposition(_Value):
    """Disjoint per-cause interval sets covering one instance's waiting time."""

    # One interval set per cause, named and ordered as in `CAUSES`.
    __slots__ = ("instance", *CAUSES)

    def __init__(
        self,
        instance: TransitionInstance,
        batching: IntervalSet,
        contention: IntervalSet,
        prioritization: IntervalSet,
        unavailability: IntervalSet,
        extraneous: IntervalSet,
    ) -> None:
        _wd_instance(self, instance)
        _wd_batching(self, batching)
        _wd_contention(self, contention)
        _wd_prioritization(self, prioritization)
        _wd_unavailability(self, unavailability)
        _wd_extraneous(self, extraneous)

    @property
    def waiting_duration(self) -> int:
        target = self.instance.target
        return target.started - target.enabled


(_wd_instance, _wd_batching, _wd_contention, _wd_prioritization, _wd_unavailability,
 _wd_extraneous) = _slot_setters(WtDecomposition)


class _ResourceWindow(_Value):
    """One resource's work sequence, its start times and longest processing."""

    __slots__ = ("seq", "starts", "longest")

    def __init__(
        self, seq: tuple[ActivityInstance, ...], starts: list[int], longest: int
    ) -> None:
        _rw_seq(self, seq)
        _rw_starts(self, starts)
        _rw_longest(self, longest)


_rw_seq, _rw_starts, _rw_longest = _slot_setters(_ResourceWindow)


class Decomposer:
    """The per-instance cascade over the log's resource index, batches and calendars."""

    def __init__(
        self,
        log: EventLog,
        batching: BatchingResult,
        availability: dict[str, AbsoluteAvailability],
    ) -> None:
        self.log = log
        self.batching = batching
        self.availability = availability
        self._windows: dict[str, _ResourceWindow] = {}

    def _window(self, resource: str) -> _ResourceWindow:
        window = self._windows.get(resource)
        if window is None:
            seq = self.log.by_resource.get(resource, ())
            window = _ResourceWindow(
                seq,
                [inst.started for inst in seq],
                max((inst.completed - inst.started for inst in seq), default=0),
            )
            self._windows[resource] = window
        return window

    def decompose(self, ti: TransitionInstance) -> WtDecomposition:
        target = ti.target
        wait_start, wait_end = target.waiting
        if wait_start == wait_end:
            return WtDecomposition(ti, _EMPTY, _EMPTY, _EMPTY, _EMPTY, _EMPTY)
        resource = target.resource
        if resource == UNKNOWN_RESOURCE:
            # No resource identity: no batch, no busy evidence and no
            # calendar, so all of the wait is extraneous.
            return WtDecomposition(
                ti, _EMPTY, _EMPTY, _EMPTY, _EMPTY, _result([(wait_start, wait_end)])
            )

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
                    return WtDecomposition(
                        ti, _result(batching), _EMPTY, _EMPTY, _EMPTY, _EMPTY
                    )

        # Same-resource processing inside the rest of the wait, in one pass
        # over the window: work enabled no later than the target, then work
        # enabled after it. Only instances starting in [rest_start - longest,
        # wait_end) can overlap it: anything starting earlier has already
        # completed. The target itself starts at wait_end, so it is never in
        # the window. Members arrive in start order, so clipped starts never
        # decrease and each list is merged as it grows.
        earlier: list[Span] = []
        later: list[Span] = []
        window = self._window(resource)
        lo = bisect_left(window.starts, rest_start - window.longest)
        hi = bisect_left(window.starts, wait_end)
        for other in window.seq[lo:hi]:
            start = max(other.started, rest_start)
            end = min(other.completed, wait_end)
            if end > start:
                spans = earlier if other.enabled <= wait_start else later
                if spans and start <= spans[-1][1]:
                    spans[-1] = (spans[-1][0], max(end, spans[-1][1]))
                else:
                    spans.append((start, end))

        # Each cause claims what the previous ones left; the rest lies inside
        # the wait, so the availability that overlaps the wait splits it into
        # unavailability and extraneous exactly.
        contention, remaining = _split([(rest_start, wait_end)], earlier)
        prioritization, remaining = _split(remaining, later)
        available = self.availability[resource].available.overlapping(
            (wait_start, wait_end)
        )
        extraneous, unavailability = _split(remaining, available.intervals)
        return WtDecomposition(
            ti,
            _result(batching),
            _result(contention),
            _result(prioritization),
            _result(unavailability),
            _result(extraneous),
        )


def _result(spans: list[Span]) -> IntervalSet:
    return IntervalSet._from_canonical(tuple(spans)) if spans else _EMPTY


def decompose_all(
    decomposer: Decomposer, transition_instances: Iterable[TransitionInstance]
) -> tuple[WtDecomposition, ...]:
    """Decompose many instances, keeping their order."""
    return tuple(decomposer.decompose(ti) for ti in transition_instances)


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
