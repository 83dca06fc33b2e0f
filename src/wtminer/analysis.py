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


def _undefined(what: str) -> WtMinerError:
    # For `cte_if_eliminated`'s 0 / 0 in `analyze`: with no processing time,
    # eliminating `what` would leave no time at all.
    return WtMinerError(f"CTE is undefined if {what} is eliminated: the log has no processing time")


class CauseImpact(_Value):
    """One cause's impact, the value of its key in `AnalysisResult.per_cause`."""

    wt_seconds: int
    share_of_wt: float
    cte_if_eliminated: float
    delta: float


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

    total_pt_seconds: int
    total_wt_seconds: int
    cte: float
    per_cause: dict[str, CauseImpact]
    per_transition: tuple[TransitionImpact, ...]


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
    # turn. Each transition's slot must add up to its own total, a zero-length
    # wait's seconds included, so errors in two transitions cannot cancel out
    # and seconds put on a wait that does not exist cannot vanish.
    cause_totals = dict.fromkeys(CAUSES, 0)
    per_transition = []
    members = iter(decompositions)
    for t in transitions:
        batching = contention = prioritization = unavailability = extraneous = 0
        for target, dec in zip(t.instances, members):
            if dec.instance is not target:
                raise ValueError("decompositions are not in transition order")
            # Every field is read, but most are empty, and an empty one
            # starts no loop.
            spans = dec.batching
            if spans:
                for start, end in spans:
                    batching += end - start
            spans = dec.contention
            if spans:
                for start, end in spans:
                    contention += end - start
            spans = dec.prioritization
            if spans:
                for start, end in spans:
                    prioritization += end - start
            spans = dec.unavailability
            if spans:
                for start, end in spans:
                    unavailability += end - start
            spans = dec.extraneous
            if spans:
                for start, end in spans:
                    extraneous += end - start
        slot = (batching, contention, prioritization, unavailability, extraneous)
        if sum(slot) != t.total_duration:
            raise WtMinerError(
                "decomposed waiting time does not add up to the transition total"
            )
        for cause, seconds in zip(CAUSES, slot):
            cause_totals[cause] += seconds
        try:
            after = cte_if_eliminated(total_pt, total_wt, t.total_duration)
        except WtMinerError:
            raise _undefined(f"transition {t.source_activity} -> {t.target_activity}") from None
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

    per_cause = {}
    for cause in CAUSES:
        wt_cause = cause_totals[cause]
        try:
            after = cte_if_eliminated(total_pt, total_wt, wt_cause)
        except WtMinerError:
            raise _undefined(f"cause {cause}") from None
        share = wt_cause / total_wt if total_wt else 0.0
        per_cause[cause] = CauseImpact(wt_cause, share, after, after - cte)

    return AnalysisResult(total_pt, total_wt, cte, per_cause, tuple(per_transition))
