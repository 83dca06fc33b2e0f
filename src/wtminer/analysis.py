"""Cycle time efficiency (CTE) and what-if impacts.

CTE is processing time over processing plus waiting time. Processing time is
summed over every activity instance in the log; waiting time exists only at
transitions. The impact of a cause (or a transition) is the CTE the process
would reach if exactly that waiting time disappeared, minus the current CTE.
"""
from __future__ import annotations

from wtminer.decomposition import CAUSES, WtDecomposition
from wtminer.model import EventLog, WtMinerError, _Value, _slot_setters
from wtminer.transitions import Transition


def compute_cte(total_pt: int, total_wt: int) -> float:
    if total_pt < 0 or total_wt < 0:
        raise ValueError("durations cannot be negative")
    if total_pt + total_wt == 0:
        raise WtMinerError("CTE is undefined: no processing or waiting time observed")
    return total_pt / (total_pt + total_wt)


def cte_if_eliminated(total_pt: int, total_wt: int, removed: int) -> float:
    """CTE after removing `removed` seconds of waiting time."""
    if removed > total_wt:
        raise ValueError("cannot remove more waiting time than exists")
    return compute_cte(total_pt, total_wt - removed)


class CauseImpact(_Value):
    def __init__(
        self,
        cause: str,
        wt_seconds: int,
        share_of_wt: float,
        cte_if_eliminated: float,
        delta: float,
    ) -> None:
        super().__init__(cause, wt_seconds, share_of_wt, cte_if_eliminated, delta)


class TransitionImpact(_Value):
    __slots__ = (
        "source_activity",
        "target_activity",
        "case_frequency",
        "total_frequency",
        "total_wt_seconds",
        "wt_by_cause",
        "cte_if_eliminated",
        "delta",
    )

    def __init__(
        self,
        source_activity: str,
        target_activity: str,
        case_frequency: float,
        total_frequency: int,
        total_wt_seconds: int,
        wt_by_cause: dict[str, int],
        cte_if_eliminated: float,
        delta: float,
    ) -> None:
        _ti_source_activity(self, source_activity)
        _ti_target_activity(self, target_activity)
        _ti_case_frequency(self, case_frequency)
        _ti_total_frequency(self, total_frequency)
        _ti_total_wt_seconds(self, total_wt_seconds)
        _ti_wt_by_cause(self, wt_by_cause)
        _ti_cte_if_eliminated(self, cte_if_eliminated)
        _ti_delta(self, delta)

    @property
    def label(self) -> tuple[str, str]:
        return (self.source_activity, self.target_activity)

    @property
    def is_self_loop(self) -> bool:
        return self.source_activity == self.target_activity


(_ti_source_activity, _ti_target_activity, _ti_case_frequency, _ti_total_frequency,
 _ti_total_wt_seconds, _ti_wt_by_cause, _ti_cte_if_eliminated,
 _ti_delta) = _slot_setters(TransitionImpact)


class AnalysisResult(_Value):
    def __init__(
        self,
        total_pt_seconds: int,
        total_wt_seconds: int,
        cte: float,
        per_cause: dict[str, CauseImpact],
        per_transition: tuple[TransitionImpact, ...],
    ) -> None:
        super().__init__(total_pt_seconds, total_wt_seconds, cte, per_cause, per_transition)


def analyze(
    log: EventLog,
    transitions: tuple[Transition, ...],
    decompositions: tuple[WtDecomposition, ...],
) -> AnalysisResult:
    """Fold decompositions into process-level and transition-level impacts."""
    total_pt = sum(inst.completed - inst.started for inst in log.instances)
    total_wt = sum(t.total_duration for t in transitions)

    n_transition_instances = sum(t.total_frequency for t in transitions)
    if len(decompositions) != n_transition_instances:
        raise ValueError(
            f"{len(decompositions)} decompositions for "
            f"{n_transition_instances} transition instances"
        )

    cte = compute_cte(total_pt, total_wt)

    # Seconds per cause, in CAUSES order, per (source, target) label. A
    # zero-length wait has five empty sets, so it adds nothing.
    by_label: dict[tuple[str, str], list[int]] = {}
    for dec in decompositions:
        target = dec.instance.target
        if target.enabled == target.started:
            continue
        label = (dec.instance.source.activity, target.activity)
        slot = by_label.get(label)
        if slot is None:
            slot = by_label[label] = [0] * len(CAUSES)
        # Most cause sets of a waiting target are empty, and an empty one
        # adds nothing, so only non-empty ones are summed.
        if dec.batching.intervals:
            slot[0] += dec.batching.total_duration
        if dec.contention.intervals:
            slot[1] += dec.contention.total_duration
        if dec.prioritization.intervals:
            slot[2] += dec.prioritization.total_duration
        if dec.unavailability.intervals:
            slot[3] += dec.unavailability.total_duration
        if dec.extraneous.intervals:
            slot[4] += dec.extraneous.total_duration

    cause_totals = dict.fromkeys(CAUSES, 0)
    for slot in by_label.values():
        for cause, seconds in zip(CAUSES, slot):
            cause_totals[cause] += seconds
    if sum(cause_totals.values()) != total_wt:
        raise WtMinerError(
            "decomposed waiting time does not add up to the transition total"
        )

    per_cause = {}
    for cause in CAUSES:
        wt_cause = cause_totals[cause]
        after = cte_if_eliminated(total_pt, total_wt, wt_cause)
        per_cause[cause] = CauseImpact(
            cause=cause,
            wt_seconds=wt_cause,
            share_of_wt=wt_cause / total_wt if total_wt else 0.0,
            cte_if_eliminated=after,
            delta=after - cte,
        )

    no_wait = [0] * len(CAUSES)
    per_transition = []
    for t in transitions:
        after = cte_if_eliminated(total_pt, total_wt, t.total_duration)
        per_transition.append(
            TransitionImpact(
                t.source_activity,
                t.target_activity,
                t.case_frequency,
                t.total_frequency,
                t.total_duration,
                dict(zip(CAUSES, by_label.get(t.label, no_wait))),
                after,
                after - cte,
            )
        )
    return AnalysisResult(
        total_pt_seconds=total_pt,
        total_wt_seconds=total_wt,
        cte=cte,
        per_cause=per_cause,
        per_transition=tuple(per_transition),
    )
