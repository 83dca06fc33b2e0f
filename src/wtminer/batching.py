"""Batch detection.

A batch is a group of same-activity instances handled by one resource as a
unit: every member was enabled before any member started, and the resource
ran the members back to back (or simultaneously) without squeezing other
work in between. The batch-accumulation instant is the last member
enablement; waiting before that instant is attributable to batching.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Optional

from wtminer.model import (
    ActivityInstance,
    ConfigError,
    EventLog,
    TimeInstant,
    UNKNOWN_RESOURCE,
)


@dataclass(frozen=True)
class BatchingConfig:
    """gap_tolerance: max idle seconds between consecutive member executions."""

    gap_tolerance: int = 0
    min_batch_size: int = 2

    def __post_init__(self) -> None:
        if self.gap_tolerance < 0:
            raise ConfigError("gap tolerance must be non-negative")
        if self.min_batch_size < 2:
            raise ConfigError("minimum batch size must be at least 2")


@dataclass(frozen=True)
class Batch:
    activity: str
    resource: str
    members: tuple[ActivityInstance, ...]

    def __post_init__(self) -> None:
        if len(self.members) < 2:
            raise ValueError("a batch needs at least two members")

    @cached_property
    def accumulation_end(self) -> TimeInstant:
        # All members have enablement set by the time batches are built; the
        # decomposition reads this once per member, so it is computed once.
        return max(m.enabled for m in self.members)


@dataclass(frozen=True)
class BatchingResult:
    batches: tuple[Batch, ...]
    by_instance: dict[ActivityInstance, Batch]


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
            run = [seq[i]]
            run_start = seq[i].started
            j = i + 1
            while j < len(seq):
                nxt = seq[j]
                if nxt.activity != run[0].activity:
                    break
                if nxt.enabled > run_start:
                    break
                if nxt.started > run[-1].completed + config.gap_tolerance:
                    break
                run.append(nxt)
                j += 1
            # Shrink until no non-member execution starts inside the window.
            while len(run) >= 2:
                follower = seq[i + len(run)] if i + len(run) < len(seq) else None
                window_end = max(m.completed for m in run)
                if follower is not None and follower.started < window_end:
                    run.pop()
                    continue
                if i > 0 and seq[i - 1].started >= run_start and window_end > run_start:
                    # A same-instant predecessor sits inside the window; no
                    # suffix trim can fix that.
                    del run[1:]
                break
            if len(run) >= config.min_batch_size:
                batch = Batch(
                    activity=run[0].activity,
                    resource=resource,
                    members=tuple(run),
                )
                batches.append(batch)
                for member in run:
                    by_instance[member] = batch
                i += len(run)
            else:
                i += 1
    return BatchingResult(batches=tuple(batches), by_instance=by_instance)

