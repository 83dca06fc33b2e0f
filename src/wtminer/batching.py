"""Batch detection.

A batch is a group of same-activity instances handled by one resource as a
unit: every member was enabled before any member started, and the resource
ran the members back to back (or simultaneously) without squeezing other
work in between. The batch-accumulation instant is the last member
enablement; waiting before that instant is attributable to batching.
"""
from __future__ import annotations

from functools import cached_property
from typing import Optional

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

    def __init__(self, gap_tolerance: int = 0, min_batch_size: int = 2) -> None:
        if gap_tolerance < 0:
            raise ConfigError("gap tolerance must be non-negative")
        if min_batch_size < 2:
            raise ConfigError("minimum batch size must be at least 2")
        super().__init__(gap_tolerance, min_batch_size)


class Batch(_Value):
    def __init__(
        self, activity: str, resource: str, members: tuple[ActivityInstance, ...]
    ) -> None:
        if len(members) < 2:
            raise ValueError("a batch needs at least two members")
        super().__init__(activity, resource, members)

    @cached_property
    def accumulation_end(self) -> TimeInstant:
        # All members have enablement set by the time batches are built; the
        # decomposition reads this once per member, so it is computed once.
        return max(m.enabled for m in self.members)


class BatchingResult(_Value):
    def __init__(
        self, batches: tuple[Batch, ...], by_instance: dict[ActivityInstance, Batch]
    ) -> None:
        super().__init__(batches, by_instance)


def detect_batches(log: EventLog, config: Optional[BatchingConfig] = None) -> BatchingResult:
    """Find maximal batches per (activity, resource) group.

    Within each resource's start-ordered work sequence, a run of same-activity
    instances grows while each newcomer was enabled by the run's first start
    and starts within gap_tolerance of the previous completion. A run is then
    shrunk until no other instance of the resource starts inside its
    [first start, last completion) window. Instances without a known resource
    never batch.
    """
    if config is None:
        config = BatchingConfig()
    batches: list[Batch] = []
    by_instance: dict[ActivityInstance, Batch] = {}
    for resource, seq in log.by_resource.items():
        if resource == UNKNOWN_RESOURCE:
            continue
        if any(inst.enabled is None for inst in seq):
            raise ValueError("batch detection requires enablement to be computed")
        i = 0
        while i < len(seq):
            first = seq[i]
            run_start = first.started
            if i > 0 and seq[i - 1].started == run_start < first.completed:
                # Every window of a run from here ends after run_start, so
                # the same-instant predecessor rule below would leave one
                # member: no run is grown.
                i += 1
                continue
            # The run is seq[i : i + len(ends)]; ends[k] is the latest
            # completion among its first k + 1 members, so the window of
            # any prefix is known without rescanning it.
            ends = [first.completed]
            j = i + 1
            while j < len(seq):
                nxt = seq[j]
                if nxt.activity != first.activity:
                    break
                if nxt.enabled > run_start:
                    break
                if nxt.started > seq[j - 1].completed + config.gap_tolerance:
                    break
                ends.append(max(ends[-1], nxt.completed))
                j += 1
            # Shrink until no non-member execution starts inside the window.
            size = len(ends)
            while size >= 2:
                window_end = ends[size - 1]
                if i + size < len(seq) and seq[i + size].started < window_end:
                    size -= 1
                    continue
                if i > 0 and seq[i - 1].started >= run_start and window_end > run_start:
                    # A same-instant predecessor sits inside the window; no
                    # suffix trim can fix that.
                    size = 1
                break
            if size >= config.min_batch_size:
                batch = Batch(
                    activity=first.activity,
                    resource=resource,
                    members=seq[i : i + size],
                )
                batches.append(batch)
                for member in batch.members:
                    by_instance[member] = batch
                i += size
            else:
                i += 1
    return BatchingResult(batches=tuple(batches), by_instance=by_instance)

