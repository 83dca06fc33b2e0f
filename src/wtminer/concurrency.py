"""Concurrency detection and enablement computation.

Two activities a != b are concurrent when, counted over all cases, the
number of times a is directly followed by b (ab) and b by a (ba) both reach
`min_bidirectional_observations`, and the dependency measure
|ab - ba| / (ab + ba + 1) is below `dependency_threshold`. With
`length2_loop_guard` on, no case may hold a, b, a or b, a, b as three
consecutive instances either: that is a short loop, not parallelism.

Each instance is then enabled by the completion of its closest
(latest-completing) non-concurrent predecessor in the same case; first
instances and instances with only concurrent predecessors are enabled at
their own start and carry no waiting time.
"""
from __future__ import annotations

from collections import Counter

from wtminer.model import (
    ActivityInstance,
    ConfigError,
    EventLog,
    TimeInstant,
    _Record,
    _Value,
    _sealed_instance,
)


class OracleThresholds(_Value):
    """Tunables for the directly-follows concurrency oracle."""

    dependency_threshold: float = 0.9
    min_bidirectional_observations: int = 1
    length2_loop_guard: bool = True

    def _check(self) -> None:
        if not 0.0 <= self.dependency_threshold <= 1.0:
            raise ConfigError(
                f"dependency threshold must be in [0, 1], got {self.dependency_threshold}"
            )
        if self.min_bidirectional_observations < 1:
            raise ConfigError("min bidirectional observations must be at least 1")


class ConcurrencyRelation(_Value):
    """Symmetric, irreflexive set of activity pairs declared concurrent.

    Each pair is stored once, as (min, max), whichever order it is given in;
    a pair of an activity with itself is a `ValueError`.
    """

    def __init__(self, pairs: frozenset[tuple[str, str]] = frozenset()) -> None:
        canonical = set()
        for a, b in pairs:
            if a == b:
                raise ValueError(f"activity {a!r} cannot be concurrent with itself")
            canonical.add((min(a, b), max(a, b)))
        vars(self).update(pairs=frozenset(canonical))

    def __len__(self) -> int:
        return len(self.pairs)


def discover_concurrency(
    log: EventLog, thresholds: OracleThresholds = OracleThresholds()
) -> ConcurrencyRelation:
    # Directly-follows counts per ordered pair, and the orderings (a, b) seen
    # as a length-2 loop a, b, a, over every case's activities in one list
    # with None after each case, so that no pair or loop spans two cases.
    # The pairs that hold None, and the loops (None, b) of one-instance
    # cases, name no two activities and are never read.
    acts: list[str | None] = []
    for seq in log.cases.values():
        acts += [inst.activity for inst in seq]
        acts.append(None)
    pairs = Counter(zip(acts, acts[1:]))
    loops2 = {(a, b) for a, b, c in zip(acts, acts[1:], acts[2:]) if a == c and a != b}

    candidates = {
        (min(a, b), max(a, b)) for a, b in pairs if a != b and a is not None and b is not None
    }
    concurrent: set[tuple[str, str]] = set()
    m = thresholds.min_bidirectional_observations
    for a, b in candidates:
        ab = pairs[(a, b)]
        ba = pairs[(b, a)]
        if ab < m or ba < m:
            continue
        dependency = abs(ab - ba) / (ab + ba + 1)
        if dependency >= thresholds.dependency_threshold:
            continue
        if thresholds.length2_loop_guard and ((a, b) in loops2 or (b, a) in loops2):
            continue
        concurrent.add((a, b))
    return ConcurrencyRelation(frozenset(concurrent))


class EnablementStats(_Record):
    """How each instance's enablement time was determined."""

    derived: int = 0
    supplied: int = 0
    first_in_case: int = 0
    concurrent_only: int = 0
    clamped: int = 0


class EnablementResult(_Value):
    """Log with every enabled field set, plus the enabling predecessor map.

    `enabler` (target -> source) is the one record of enabling pairs: every
    target has exactly one source. `log` keeps the input's instance order,
    and `enabler` is filled in that order, so it yields the pairs in log
    order.
    """

    log: EventLog
    relation: ConcurrencyRelation
    enabler: dict[ActivityInstance, ActivityInstance]
    stats: EnablementStats


def compute_enablement(
    log: EventLog, relation: ConcurrencyRelation = ConcurrencyRelation()
) -> EnablementResult:
    """Set enabled on every instance from its closest non-concurrent predecessor.

    Supplied enablement times win over derived ones, but the predecessor is
    still resolved so the instance participates in a transition. A derived
    completion after the instance's start is clamped to the start and counted.
    """
    stats = EnablementStats()
    enabler: dict[ActivityInstance, ActivityInstance] = {}
    concurrent_with: dict[str, set[str]] = {}
    for a, b in relation.pairs:
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
        # activity with no concurrent partner. Without any concurrent pair
        # no activity is ever looked up, so only `overall` is kept.
        latest: dict[str, tuple[TimeInstant, int]] = {}
        overall: tuple[TimeInstant | None, int | None] = (None, None)
        for pos, inst in enumerate(seq, first):
            best_completion, enabler_pos = overall
            if concurrent_with:
                skip = concurrent_with.get(inst.activity)
                if skip:
                    best_completion, enabler_pos = max(
                        (key for activity, key in latest.items() if activity not in skip),
                        default=(None, None),
                    )
                seen = latest.get(inst.activity)
                if seen is None or inst.completed >= seen[0]:
                    latest[inst.activity] = (inst.completed, pos)
            # `overall` is at least every `latest`, so an instance that
            # reaches it has reached its own activity's too.
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
            # Every branch above leaves `enabled` at most `inst.started`.
            instances.append(
                _sealed_instance(
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
