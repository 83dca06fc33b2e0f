"""Transition discovery: pair every instance with its enabling predecessor and
aggregate the pairs into activity-to-activity transitions.
"""
from __future__ import annotations

from wtminer.concurrency import EnablementResult
from wtminer.model import ActivityInstance, _Frozen, _Value, _slot_setters


class TransitionInstance(_Frozen):
    """One enabling pair: target waits in [enabled(target), started(target)).
    Equality is identity, as for its instances."""

    __slots__ = ("source", "target")

    def __init__(self, source: ActivityInstance, target: ActivityInstance) -> None:
        if source.case_id != target.case_id:
            raise ValueError("transition endpoints must share a case")
        _ti_source(self, source)
        _ti_target(self, target)

    @property
    def case_id(self) -> str:
        return self.target.case_id


_ti_source, _ti_target = _slot_setters(TransitionInstance)


class Transition(_Value):
    """All instances of one (source activity, target activity) pair."""

    __slots__ = (
        "source_activity",
        "target_activity",
        "instances",
        "case_frequency",
        "total_frequency",
        "total_duration",
    )

    def __init__(
        self,
        source_activity: str,
        target_activity: str,
        instances: tuple[TransitionInstance, ...],
        case_frequency: float,
        total_frequency: int,
        total_duration: int,
    ) -> None:
        _tr_source_activity(self, source_activity)
        _tr_target_activity(self, target_activity)
        _tr_instances(self, instances)
        _tr_case_frequency(self, case_frequency)
        _tr_total_frequency(self, total_frequency)
        _tr_total_duration(self, total_duration)

    @property
    def label(self) -> tuple[str, str]:
        return (self.source_activity, self.target_activity)

    @property
    def is_self_loop(self) -> bool:
        return self.source_activity == self.target_activity


(_tr_source_activity, _tr_target_activity, _tr_instances, _tr_case_frequency,
 _tr_total_frequency, _tr_total_duration) = _slot_setters(Transition)


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
                source,
                target,
                tuple(members),
                len(cases) / n_cases,
                len(members),
                sum(ti.target.started - ti.target.enabled for ti in members),
            )
        )
    transitions.sort(key=lambda t: (-t.total_duration, -t.total_frequency, t.label))
    return tuple(transitions)
