"""Cycle time efficiency (CTE) and what-if impacts.

CTE is processing time over processing plus waiting time. Processing time is
summed over every activity instance in the log; waiting time exists only at
transitions. The impact of a cause (or a transition) is the CTE the process
would reach if exactly that waiting time disappeared, minus the current CTE.
That is first-order: `cte_if_eliminated` removes only the seconds attributed
to the cause and keeps every other second, so it does not remove knock-on
waiting, for example a delay that pushes work past closing time.
"""
from __future__ import annotations

from wtminer.decomposition import CAUSES, WtDecomposition
from wtminer.model import EventLog, WtMinerError, _Value
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
    """One cause's impact, the value of its key in `AnalysisResult.per_cause`."""

    def __init__(
        self,
        wt_seconds: int,
        share_of_wt: float,
        cte_if_eliminated: float,
        delta: float,
    ) -> None:
        vars(self).update(
            wt_seconds=wt_seconds,
            share_of_wt=share_of_wt,
            cte_if_eliminated=cte_if_eliminated,
            delta=delta,
        )


class TransitionImpact(_Value):
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
        vars(self).update(
            source_activity=source_activity,
            target_activity=target_activity,
            case_frequency=case_frequency,
            total_frequency=total_frequency,
            total_wt_seconds=total_wt_seconds,
            wt_by_cause=wt_by_cause,
            cte_if_eliminated=cte_if_eliminated,
            delta=delta,
        )

    @property
    def is_self_loop(self) -> bool:
        return self.source_activity == self.target_activity


class AnalysisResult(_Value):
    """Process-level figures; `per_cause` is keyed in `CAUSES` order."""

    def __init__(
        self,
        total_pt_seconds: int,
        total_wt_seconds: int,
        cte: float,
        per_cause: dict[str, CauseImpact],
        per_transition: tuple[TransitionImpact, ...],
    ) -> None:
        vars(self).update(
            total_pt_seconds=total_pt_seconds,
            total_wt_seconds=total_wt_seconds,
            cte=cte,
            per_cause=per_cause,
            per_transition=per_transition,
        )


def analyze(
    log: EventLog,
    transitions: tuple[Transition, ...],
    decompositions: tuple[WtDecomposition, ...],
) -> AnalysisResult:
    """Fold decompositions into process-level and transition-level impacts.

    `decompositions` holds one decomposition per target of `transitions`, in
    the order of the transitions and of their instances.
    """
    total_pt = sum(inst.completed - inst.started for inst in log.instances)
    total_wt = sum(t.total_duration for t in transitions)

    n_targets = sum(len(t.instances) for t in transitions)
    if len(decompositions) != n_targets:
        raise ValueError(f"{len(decompositions)} decompositions for {n_targets} targets")

    cte = compute_cte(total_pt, total_wt)

    # Seconds per cause, in CAUSES order, per transition, folded over its own
    # slice of `decompositions`, which lists every transition's targets in
    # turn. A zero-length wait has five empty sets, so it adds nothing.
    slots = []
    members = iter(decompositions)
    for t in transitions:
        slot = [0] * len(CAUSES)
        for target, dec in zip(t.instances, members):
            if dec.instance is not target:
                raise ValueError("decompositions are not in transition order")
            if target.enabled == target.started:
                continue
            # Most cause sets of a waiting target are empty or hold one span.
            for start, end in dec.batching:
                slot[0] += end - start
            for start, end in dec.contention:
                slot[1] += end - start
            for start, end in dec.prioritization:
                slot[2] += end - start
            for start, end in dec.unavailability:
                slot[3] += end - start
            for start, end in dec.extraneous:
                slot[4] += end - start
        slots.append(slot)

    cause_totals = dict.fromkeys(CAUSES, 0)
    for slot in slots:
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
            wt_seconds=wt_cause,
            share_of_wt=wt_cause / total_wt if total_wt else 0.0,
            cte_if_eliminated=after,
            delta=after - cte,
        )

    per_transition = []
    for t, slot in zip(transitions, slots):
        after = cte_if_eliminated(total_pt, total_wt, t.total_duration)
        per_transition.append(
            TransitionImpact(
                t.source_activity,
                t.target_activity,
                t.case_frequency,
                len(t.instances),
                t.total_duration,
                dict(zip(CAUSES, slot)),
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
