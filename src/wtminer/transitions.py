"""Transition discovery: group every enabled target, by its own activity and
its enabling predecessor's, into activity-to-activity transitions.
"""
from __future__ import annotations

from wtminer.concurrency import EnablementResult
from wtminer.model import ActivityInstance, _Value


class Transition(_Value):
    """All enabled targets of one (source activity, target activity) pair,
    in log order; a target's source is `EnablementResult.enabler[target]`."""

    def __init__(
        self,
        source_activity: str,
        target_activity: str,
        instances: tuple[ActivityInstance, ...],
        case_frequency: float,
        total_duration: int,
    ) -> None:
        vars(self).update(
            source_activity=source_activity,
            target_activity=target_activity,
            instances=instances,
            case_frequency=case_frequency,
            total_duration=total_duration,
        )

    @property
    def label(self) -> tuple[str, str]:
        return (self.source_activity, self.target_activity)


def discover_transitions(result: EnablementResult) -> tuple[Transition, ...]:
    """Group transition instances by activity pair and rank them.

    Sort order is total waiting duration descending, then the number of
    instances descending, then the label pair for stable reports.
    """
    groups: dict[tuple[str, str], list[ActivityInstance]] = {}
    for target, source in result.enabler.items():
        key = (source.activity, target.activity)
        groups.setdefault(key, []).append(target)

    n_cases = result.log.case_count
    transitions = []
    for (source, target), members in groups.items():
        cases = {inst.case_id for inst in members}
        transitions.append(
            Transition(
                source,
                target,
                tuple(members),
                len(cases) / n_cases,
                sum(inst.started - inst.enabled for inst in members),
            )
        )
    transitions.sort(key=lambda t: (-t.total_duration, -len(t.instances), t.label))
    return tuple(transitions)
