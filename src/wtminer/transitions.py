"""Transition discovery: pair every instance with its enabling predecessor and
aggregate the pairs into activity-to-activity transitions.
"""
from __future__ import annotations

from dataclasses import dataclass

from wtminer.concurrency import EnablementResult
from wtminer.model import ActivityInstance, TimeInterval


@dataclass(frozen=True, eq=False)
class TransitionInstance:
    """One enabling pair: target waits in [enabled(target), started(target))."""

    source: ActivityInstance
    target: ActivityInstance

    def __post_init__(self) -> None:
        if self.source.case_id != self.target.case_id:
            raise ValueError("transition endpoints must share a case")

    @property
    def waiting(self) -> TimeInterval:
        return self.target.waiting

    @property
    def case_id(self) -> str:
        return self.target.case_id


@dataclass(frozen=True)
class Transition:
    """All instances of one (source activity, target activity) pair."""

    source_activity: str
    target_activity: str
    instances: tuple[TransitionInstance, ...]
    case_frequency: float
    total_frequency: int
    total_duration: int

    @property
    def label(self) -> tuple[str, str]:
        return (self.source_activity, self.target_activity)

    @property
    def is_self_loop(self) -> bool:
        return self.source_activity == self.target_activity


def build_transition_instances(result: EnablementResult) -> tuple[TransitionInstance, ...]:
    """One TransitionInstance per enabling pair, in the targets' log order."""
    return tuple(
        TransitionInstance(source, target) for target, source in result.enabler.items()
    )


def discover_transitions(result: EnablementResult) -> tuple[Transition, ...]:
    """Group transition instances by activity pair and rank them.

    Sort order is total waiting duration descending, then total frequency
    descending, then the label pair for stable reports.
    """
    groups: dict[tuple[str, str], list[TransitionInstance]] = {}
    for ti in build_transition_instances(result):
        key = (ti.source.activity, ti.target.activity)
        groups.setdefault(key, []).append(ti)

    n_cases = result.log.case_count
    transitions = []
    for (source, target), members in groups.items():
        cases = {ti.case_id for ti in members}
        transitions.append(
            Transition(
                source_activity=source,
                target_activity=target,
                instances=tuple(members),
                case_frequency=len(cases) / n_cases,
                total_frequency=len(members),
                total_duration=sum(ti.target.started - ti.target.enabled for ti in members),
            )
        )
    transitions.sort(key=lambda t: (-t.total_duration, -t.total_frequency, t.label))
    return tuple(transitions)
