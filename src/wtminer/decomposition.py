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

Each stage intersects its raw intervals with what previous stages left, so
the five sets partition the waiting interval exactly.
"""
from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from typing import Iterable, NamedTuple

from wtminer.batching import BatchingResult, batching_interval
from wtminer.calendars import AbsoluteAvailability
from wtminer.model import (
    ActivityInstance,
    EventLog,
    IntervalSet,
    Span,
    UNKNOWN_RESOURCE,
)
from wtminer.transitions import TransitionInstance

CAUSES = ("batching", "contention", "prioritization", "unavailability", "extraneous")


@dataclass(frozen=True)
class WtDecomposition:
    """Disjoint per-cause interval sets covering one instance's waiting time."""

    instance: TransitionInstance
    batching: IntervalSet
    contention: IntervalSet
    prioritization: IntervalSet
    unavailability: IntervalSet
    extraneous: IntervalSet

    def cause_sets(self) -> dict[str, IntervalSet]:
        return {cause: getattr(self, cause) for cause in CAUSES}

    def cause_durations(self) -> dict[str, int]:
        return {cause: s.total_duration for cause, s in self.cause_sets().items()}

    @property
    def waiting_duration(self) -> int:
        target = self.instance.target
        return target.started - target.enabled


class _ResourceWindow(NamedTuple):
    """One resource's work sequence, its start times and longest processing."""

    seq: tuple[ActivityInstance, ...]
    starts: list[int]
    longest: int


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

    def _busy_overlaps(self, target: ActivityInstance) -> tuple[IntervalSet, IntervalSet]:
        """Same-resource processing inside the wait, in one pass over the window:
        work enabled no later than the target, then work enabled after it."""
        wait_start, wait_end = target.waiting
        # Only instances starting in [wait_start - longest, wait_end) can
        # overlap the wait: anything starting earlier has already completed.
        # The target itself starts at wait_end, so it is never in the window.
        window = self._window(target.resource)
        lo = bisect_left(window.starts, wait_start - window.longest)
        hi = bisect_left(window.starts, wait_end)
        earlier: list[Span] = []
        later: list[Span] = []
        for other in window.seq[lo:hi]:
            start = max(other.started, wait_start)
            end = min(other.completed, wait_end)
            if end > start:
                (earlier if other.enabled <= target.enabled else later).append((start, end))
        return IntervalSet(earlier), IntervalSet(later)

    def raw_contention(self, target: ActivityInstance) -> IntervalSet:
        """Resource busy during the wait on work enabled no later than the target."""
        return self._busy_overlaps(target)[0]

    def raw_prioritization(self, target: ActivityInstance) -> IntervalSet:
        """Resource busy during the wait on work enabled strictly after the target."""
        return self._busy_overlaps(target)[1]

    def raw_unavailability(self, target: ActivityInstance) -> IntervalSet:
        """Waiting instants outside the resource's availability calendar."""
        wait = target.waiting
        avail = self.availability[target.resource].available
        return IntervalSet((wait,)) - avail.overlapping(wait)

    def decompose(self, ti: TransitionInstance) -> WtDecomposition:
        target = ti.target
        wait = target.waiting
        empty = IntervalSet.empty()
        if wait[0] == wait[1]:
            return WtDecomposition(ti, empty, empty, empty, empty, empty)
        remaining = IntervalSet._from_canonical((wait,))
        if target.resource == UNKNOWN_RESOURCE:
            # No resource identity: no batch, no busy evidence and no
            # calendar, so all of the wait is extraneous.
            return WtDecomposition(ti, empty, empty, empty, empty, remaining)

        batch = self.batching.by_instance.get(target)
        batched = batching_interval(target, batch) if batch is not None else empty
        claimed = []
        for raw in (batched, *self._busy_overlaps(target)):
            claimed.append(remaining & raw)
            remaining -= raw
        # remaining lies inside the wait, so the availability that overlaps
        # the wait splits it into unavailability and extraneous exactly.
        available = self.availability[target.resource].available.overlapping(wait)
        return WtDecomposition(ti, *claimed, remaining - available, remaining & available)


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
    overlapping: set[int] = set()
    total = 0
    for resource, seq in log.by_resource.items():
        if resource == UNKNOWN_RESOURCE:
            continue
        total += len(seq)
        active: list[ActivityInstance] = []
        for inst in seq:
            # The sequence is in start order, so an earlier instance overlaps
            # `inst` exactly when it completes after `inst` starts.
            active = [a for a in active if a.completed > inst.started]
            if active:
                overlapping.add(id(inst))
                overlapping.update(id(a) for a in active)
            active.append(inst)
    return len(overlapping) / total if total else 0.0
