"""Concurrency detection and enablement computation.

Concurrent activity pairs are detected from directly-follows statistics: a
pair observed often enough in both orders, with a low enough dependency
measure, is treated as parallel. Each instance is then enabled by the
completion of its closest (latest-completing) non-concurrent predecessor in
the same case; first instances and instances with only concurrent
predecessors are enabled at their own start and carry no waiting time.
"""
from __future__ import annotations

from typing import Optional

from wtminer.model import (
    ActivityInstance,
    ConfigError,
    EventLog,
    TimeInstant,
    _Record,
    _Value,
)


class OracleThresholds(_Value):
    """Tunables for the directly-follows concurrency oracle."""

    def __init__(
        self,
        dependency_threshold: float = 0.9,
        min_bidirectional_observations: int = 1,
        length2_loop_guard: bool = True,
    ) -> None:
        if not 0.0 <= dependency_threshold <= 1.0:
            raise ConfigError(
                f"dependency threshold must be in [0, 1], got {dependency_threshold}"
            )
        if min_bidirectional_observations < 1:
            raise ConfigError("min bidirectional observations must be at least 1")
        super().__init__(
            dependency_threshold, min_bidirectional_observations, length2_loop_guard
        )


class DirectlyFollowsCounts(_Value):
    """Adjacent-pair counts per activity ordering, plus length-2 loop counts."""

    def __init__(
        self, pairs: dict[tuple[str, str], int], loops2: dict[tuple[str, str], int]
    ) -> None:
        super().__init__(pairs, loops2)

    def count(self, a: str, b: str) -> int:
        return self.pairs.get((a, b), 0)

    def loop2_count(self, a: str, b: str) -> int:
        return self.loops2.get((a, b), 0) + self.loops2.get((b, a), 0)


class ConcurrencyRelation(_Value):
    """Symmetric, irreflexive set of activity pairs declared concurrent."""

    def __init__(self, pairs: frozenset[tuple[str, str]] = frozenset()) -> None:
        super().__init__(pairs)

    def is_concurrent(self, a: str, b: str) -> bool:
        if a == b:
            return False
        return (min(a, b), max(a, b)) in self.pairs

    def __len__(self) -> int:
        return len(self.pairs)


def count_directly_follows(log: EventLog) -> DirectlyFollowsCounts:
    pairs: dict[tuple[str, str], int] = {}
    loops2: dict[tuple[str, str], int] = {}
    for seq in log.cases.values():
        acts = [inst.activity for inst in seq]
        for a, b in zip(acts, acts[1:]):
            pairs[(a, b)] = pairs.get((a, b), 0) + 1
        for a, b, c in zip(acts, acts[1:], acts[2:]):
            if a == c and a != b:
                loops2[(a, b)] = loops2.get((a, b), 0) + 1
    return DirectlyFollowsCounts(pairs, loops2)


def detect_concurrency(
    counts: DirectlyFollowsCounts,
    thresholds: Optional[OracleThresholds] = None,
) -> ConcurrencyRelation:
    if thresholds is None:
        thresholds = OracleThresholds()
    seen = {pair for pair in counts.pairs}
    candidates = {(min(a, b), max(a, b)) for a, b in seen if a != b}
    concurrent: set[tuple[str, str]] = set()
    m = thresholds.min_bidirectional_observations
    for a, b in sorted(candidates):
        ab = counts.count(a, b)
        ba = counts.count(b, a)
        if ab < m or ba < m:
            continue
        dependency = abs(ab - ba) / (ab + ba + 1)
        if dependency >= thresholds.dependency_threshold:
            continue
        if thresholds.length2_loop_guard and counts.loop2_count(a, b) > 0:
            continue
        concurrent.add((a, b))
    return ConcurrencyRelation(frozenset(concurrent))


def discover_concurrency(
    log: EventLog, thresholds: Optional[OracleThresholds] = None
) -> ConcurrencyRelation:
    return detect_concurrency(count_directly_follows(log), thresholds)


class EnablementStats(_Record):
    """How each instance's enablement time was determined."""

    def __init__(
        self,
        derived: int = 0,
        supplied: int = 0,
        first_in_case: int = 0,
        concurrent_only: int = 0,
        clamped: int = 0,
    ) -> None:
        super().__init__(derived, supplied, first_in_case, concurrent_only, clamped)


class EnablementResult(_Value):
    """Log with every enabled field set, plus the enabling predecessor map.

    `log` keeps the input's instance order, and `enabler` (target -> source)
    is filled in that order, so it yields the enabling pairs in log order.
    """

    def __init__(
        self,
        log: EventLog,
        relation: ConcurrencyRelation,
        enabler: dict[ActivityInstance, ActivityInstance],
        stats: EnablementStats,
    ) -> None:
        super().__init__(log, relation, enabler, stats)


def compute_enablement(
    log: EventLog, relation: Optional[ConcurrencyRelation] = None
) -> EnablementResult:
    """Set enabled on every instance from its closest non-concurrent predecessor.

    Supplied enablement times win over derived ones, but the predecessor is
    still resolved so the instance participates in a transition. A derived
    completion after the instance's start is clamped to the start and counted.
    """
    if relation is None:
        relation = ConcurrencyRelation()
    stats = EnablementStats()
    enabler: dict[ActivityInstance, ActivityInstance] = {}
    concurrent_with: dict[str, set[str]] = {}
    for a, b in relation.pairs:
        if relation.is_concurrent(a, b):
            concurrent_with.setdefault(a, set()).add(b)
            concurrent_with.setdefault(b, set()).add(a)

    # One flat list in log order; enablers are recorded by position in it.
    instances: list[ActivityInstance] = []
    cases: dict[str, tuple[ActivityInstance, ...]] = {}
    for case_id, seq in log.cases.items():
        first = len(instances)
        # Per activity, (completion, position) of its latest-completing
        # instance so far: on equal completion the later position wins.
        # `overall` is the same over every activity, the enabler of an
        # activity with no concurrent partner.
        latest: dict[str, tuple[TimeInstant, int]] = {}
        overall: tuple[Optional[TimeInstant], Optional[int]] = (None, None)
        for pos, inst in enumerate(seq, first):
            skip = concurrent_with.get(inst.activity)
            if skip:
                best_completion, enabler_pos = max(
                    (key for activity, key in latest.items() if activity not in skip),
                    default=(None, None),
                )
            else:
                best_completion, enabler_pos = overall
            seen = latest.get(inst.activity)
            if seen is None or inst.completed >= seen[0]:
                latest[inst.activity] = (inst.completed, pos)
                if overall[0] is None or inst.completed >= overall[0]:
                    overall = (inst.completed, pos)
            if inst.enabled is not None:
                enabled = inst.enabled
                stats.supplied += 1
            elif enabler_pos is None:
                enabled = inst.started
                if pos == first:
                    stats.first_in_case += 1
                else:
                    stats.concurrent_only += 1
            else:
                enabled = best_completion
                if enabled > inst.started:
                    enabled = inst.started
                    stats.clamped += 1
                stats.derived += 1
            instances.append(
                ActivityInstance(
                    inst.case_id,
                    inst.activity,
                    inst.resource,
                    inst.started,
                    inst.completed,
                    enabled,
                )
            )
            if enabler_pos is not None:
                enabler[instances[pos]] = instances[enabler_pos]
        cases[case_id] = tuple(instances[first:])

    # Enablement changes no sort field, so this is already log order, the
    # order in which `enabler` was filled; the log is neither sorted nor
    # grouped again.
    new_log = EventLog._from_sorted(tuple(instances), cases)
    return EnablementResult(log=new_log, relation=relation, enabler=enabler, stats=stats)
