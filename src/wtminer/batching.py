"""Batch detection.

A batch is a group of same-activity instances handled by one resource as a
unit: every member was enabled before any member started, and the resource
ran the members back to back (or simultaneously) without squeezing other
work in between. The batch-accumulation instant is the last member
enablement; waiting before that instant is attributable to batching.
"""
from __future__ import annotations

from functools import cached_property

from wtminer.model import (
    ActivityInstance,
    ConfigError,
    EventLog,
    TimeInstant,
    UNKNOWN_RESOURCE,
    _Value,
)


class BatchingConfig(_Value):
    """gap_tolerance: max idle seconds between consecutive member executions."""

    gap_tolerance: int = 0
    min_batch_size: int = 2

    def _check(self) -> None:
        if self.gap_tolerance < 0:
            raise ConfigError("gap tolerance must be non-negative")
        if self.min_batch_size < 2:
            raise ConfigError("minimum batch size must be at least 2")


class Batch(_Value):
    """Same-activity instances of one resource, in its work order; their
    activity and resource are the first member's."""

    def __init__(self, members: tuple[ActivityInstance, ...]) -> None:
        if len(members) < 2:
            raise ValueError("a batch needs at least two members")
        vars(self).update(members=members)

    @cached_property
    def accumulation_end(self) -> TimeInstant:
        # All members have enablement set by the time batches are built; the
        # decomposition reads this once per member, so it is computed once.
        return max(m.enabled for m in self.members)


class BatchingResult(_Value):
    """Maps each batched instance to its batch. The distinct values, in
    insertion order, are the batches: resource by resource, in work order."""

    by_instance: dict[ActivityInstance, Batch]


def detect_batches(log: EventLog, config: BatchingConfig = BatchingConfig()) -> BatchingResult:
    """Find maximal batches per (activity, resource) group.

    Within each resource's start-ordered work sequence, a run of same-activity
    instances grows while each newcomer was enabled by the run's first start
    and starts within gap_tolerance of the previous completion. A run is then
    shrunk until no other instance of the resource starts inside its
    [first start, last completion) window. Instances without a known resource
    never batch.
    """
    by_instance: dict[ActivityInstance, Batch] = {}
    for resource, seq in log.by_resource.items():
        if resource == UNKNOWN_RESOURCE:
            continue
        if any(inst.enabled is None for inst in seq):
            raise ValueError("batch detection requires enablement to be computed")
        bounds = _batch_bounds(seq, config.gap_tolerance, config.min_batch_size)
        for start, stop in bounds:
            members = seq[start:stop]
            batch = Batch(members)
            for member in members:
                by_instance[member] = batch
    return BatchingResult(by_instance)


def _batch_bounds(
    seq: tuple[ActivityInstance, ...], gap: int, min_size: int
) -> list[tuple[int, int]]:
    """The (start, stop) index pairs of the batches in one resource's work
    sequence, in order, in time linear in its length.

    Each start index i is tried in turn. Its run is seq[i:end], grown as
    `detect_batches` describes, and shrinking it keeps the largest stop e
    in [i + 2, end] that suits i: e is the sequence's length, or seq[e]
    starts no earlier than every completion in seq[i:e]. A later start in
    the same run keeps every member, since its enablement bound is no
    lower, so growth resumes at `end`; and a stop that suits a start suits
    every later one. So each stop e is read once, for low(e): one past the
    last member before e that completes after seq[e] starts; e suits
    exactly the starts from low(e) on.
    """
    n = len(seq)
    bounds: list[tuple[int, int]] = []
    run = end = 0  # the run grown so far is seq[run:end]
    # Members as (completed, index), in index order, less those dropped for
    # completing by a start read so far: starts only rise, so such a member
    # never completes after a later one.
    tops: list[tuple[int, int]] = []
    # low(e) -> the greatest stop e with that low(e), above the current start.
    pending: dict[int, int] = {}
    best = -1  # the greatest stop read so far that suits the current start
    queried = 0  # low(e) is known for every stop e up to here
    released = 0  # pending stops with low(e) up to here are in `best`
    zero = 0  # seq[i:zero] all complete at seq[i].started
    i = 0
    while i < n:
        first = seq[i]
        run_start = first.started
        if i > 0 and seq[i - 1].started == run_start < first.completed:
            # Every window of a run from here ends after run_start, so the
            # same-instant predecessor rule below would leave one member.
            i += 1
            continue
        if i >= end:
            # A new run; no stop below run + 2 can suit a start in it.
            run = released = i
            end = queried = i + 1
        else:
            for low in range(released + 1, i + 1):
                e = pending.pop(low, -1)
                if e > best:
                    best = e
            released = i
        while end < n:
            nxt = seq[end]
            if end > queried:
                queried = end
                while tops and tops[-1][0] <= nxt.started:
                    tops.pop()
                low = tops[-1][1] + 1 if tops else 0
                if low <= i:
                    best = end
                else:
                    pending[low] = end
            if (
                nxt.activity != first.activity
                or nxt.enabled > run_start
                or nxt.started > seq[end - 1].completed + gap
            ):
                break
            if end == run + 1:
                tops.append((first.completed, run))
            tops.append((nxt.completed, end))
            end += 1
        if end == n:
            best = n  # nothing follows the run, so this stop suits every start
        if best < i + 2:
            i += 1  # the run shrinks to its first member
            continue
        stop = best
        if i > 0 and seq[i - 1].started == run_start:
            # The first member completes at run_start (see above); any
            # member completing later puts the predecessor inside the window.
            zero = max(zero, i)
            while zero < stop and seq[zero].completed == run_start:
                zero += 1
            if zero < stop:
                i += 1
                continue
        if stop - i >= min_size:
            bounds.append((i, stop))
            i = stop
        else:
            i += 1
    return bounds
