"""CTE and impact computation tests."""
from __future__ import annotations

import pytest
from hypothesis import given
from hypothesis import strategies as st

from brute import horizon, impact_label
from wtminer.analysis import analyze, compute_cte, cte_if_eliminated
from wtminer.batching import detect_batches
from wtminer.calendars import WeeklyCalendar, expand_calendar
from wtminer.concurrency import compute_enablement
from wtminer.decomposition import CAUSES, Decomposer, WtDecomposition, decompose_all
from wtminer.model import ActivityInstance, EventLog, WtMinerError
from wtminer.pipeline import run_pipeline
from wtminer.synth import InjectionSpec, generate
from wtminer.transitions import discover_transitions


class TestComputeCte:
    def test_direct_formula(self):
        assert compute_cte(25, 75) == 0.25

    def test_no_waiting_is_perfect_efficiency(self):
        assert compute_cte(100, 0) == 1.0

    def test_undefined_without_any_time(self):
        with pytest.raises(WtMinerError):
            compute_cte(0, 0)

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            compute_cte(-1, 10)

    def test_low_efficiency_ratio(self):
        # wt/pt that produces a 6.81% efficiency.
        pt = 1_000_000
        wt = round(pt * 13.684)
        assert compute_cte(pt, wt) == pytest.approx(0.0681, abs=5e-5)


class TestCteIfEliminated:
    def test_remove_everything(self):
        assert cte_if_eliminated(25, 75, 75) == 1.0

    def test_remove_nothing(self):
        assert cte_if_eliminated(25, 75, 0) == compute_cte(25, 75)

    def test_cannot_remove_more_than_exists(self):
        with pytest.raises(ValueError):
            cte_if_eliminated(25, 75, 76)

    @given(
        st.integers(min_value=1, max_value=10**9),
        st.integers(min_value=0, max_value=10**9),
        st.data(),
    )
    def test_monotone_in_removed_waiting(self, pt, wt, data):
        a = data.draw(st.integers(min_value=0, max_value=wt))
        b = data.draw(st.integers(min_value=0, max_value=wt))
        low, high = min(a, b), max(a, b)
        assert cte_if_eliminated(pt, wt, high) >= cte_if_eliminated(pt, wt, low)

    @given(
        st.integers(min_value=1, max_value=10**9),
        st.integers(min_value=0, max_value=10**9),
        st.integers(min_value=0, max_value=10**9),
    )
    def test_never_below_baseline(self, pt, wt, removed):
        removed = min(removed, wt)
        assert cte_if_eliminated(pt, wt, removed) >= compute_cte(pt, wt)


def analyzed_fixture():
    """Two cases: a -> b with waits, plus an isolated single-instance case."""
    instances = [
        ActivityInstance("c1", "a", "r1", 0, 600),
        ActivityInstance("c1", "b", "r1", 1600, 2200),
        ActivityInstance("c2", "a", "r1", 10000, 10600),
        ActivityInstance("c2", "b", "r1", 11100, 11700),
        ActivityInstance("c3", "solo", "r2", 0, 500),
    ]
    log = EventLog(instances)
    enablement = compute_enablement(log)
    transitions = discover_transitions(enablement)
    span = horizon(enablement.log)
    availability = {
        res: expand_calendar(WeeklyCalendar.always_on(), span)
        for res in enablement.log.resources
    }
    decomposer = Decomposer(enablement.log, detect_batches(enablement.log), availability)
    decompositions = decompose_all(
        decomposer, [target for t in transitions for target in t.instances]
    )
    return enablement.log, transitions, decompositions


class TestAnalyze:
    def test_totals(self):
        log, transitions, decompositions = analyzed_fixture()
        result = analyze(log, transitions, decompositions)
        # PT covers all five instances, including the transitionless case.
        assert result.total_pt_seconds == 600 * 4 + 500
        # WT covers the two a->b waits only: 1000 + 500.
        assert result.total_wt_seconds == 1500
        assert result.cte == pytest.approx(2900 / 4400)

    def test_cause_totals_add_up(self):
        log, transitions, decompositions = analyzed_fixture()
        result = analyze(log, transitions, decompositions)
        assert sum(ci.wt_seconds for ci in result.per_cause.values()) == 1500
        assert sum(ci.share_of_wt for ci in result.per_cause.values()) == pytest.approx(1.0)

    def test_elimination_never_hurts(self):
        log, transitions, decompositions = analyzed_fixture()
        result = analyze(log, transitions, decompositions)
        for ci in result.per_cause.values():
            assert ci.cte_if_eliminated >= result.cte
            assert ci.delta == pytest.approx(ci.cte_if_eliminated - result.cte)
        for t in result.per_transition:
            assert t.cte_if_eliminated >= result.cte

    def test_transition_breakdown_matches_totals(self):
        log, transitions, decompositions = analyzed_fixture()
        result = analyze(log, transitions, decompositions)
        (ab,) = result.per_transition
        assert impact_label(ab) == ("a", "b")
        assert ab.total_wt_seconds == 1500
        assert sum(ab.wt_by_cause.values()) == 1500
        assert set(ab.wt_by_cause) == set(CAUSES)

    def test_transition_holding_all_wt(self):
        log, transitions, decompositions = analyzed_fixture()
        result = analyze(log, transitions, decompositions)
        (ab,) = result.per_transition
        assert ab.cte_if_eliminated == 1.0
        assert ab.delta == pytest.approx(1.0 - result.cte)

    def test_mismatched_decompositions_rejected(self):
        log, transitions, decompositions = analyzed_fixture()
        with pytest.raises(ValueError):
            analyze(log, transitions, decompositions[:-1])

    def test_decompositions_out_of_transition_order_rejected(self):
        # Same count, same targets, but swapped: each member must be the
        # target its transition lists at that position.
        log, transitions, decompositions = analyzed_fixture()
        assert decompositions[0].waiting_duration != decompositions[1].waiting_duration
        with pytest.raises(ValueError, match="transition order"):
            analyze(log, transitions, decompositions[::-1])


class TestTransitionOrder:
    @pytest.fixture(scope="class")
    def result(self):
        return run_pipeline(generate(InjectionSpec.from_bits("11111", n_cases=30, seed=3)).log)

    def test_pipeline_decomposes_each_transitions_targets_in_turn(self, result):
        targets = [target for t in result.transitions for target in t.instances]
        assert [dec.instance for dec in result.decompositions] == targets
        assert set(targets) == set(result.enablement.enabler)

    def test_decompositions_in_log_order_rejected(self, result):
        # The enabler map lists targets in log order, which interleaves the
        # transitions: folding it slice by slice would credit one
        # transition's seconds to another.
        by_target = {dec.instance: dec for dec in result.decompositions}
        in_log_order = tuple(by_target[target] for target in result.enablement.enabler)
        assert len(result.transitions) > 1
        assert in_log_order != result.decompositions
        with pytest.raises(ValueError, match="transition order"):
            analyze(result.log, result.transitions, in_log_order)

    def test_errors_that_cancel_across_transitions_rejected(self, result):
        # One transition's decomposition 10 s too long and another's 10 s
        # too short still add up over the whole log, so each transition
        # must add up to its own total.
        decompositions = list(result.decompositions)
        picks = []
        first = 0
        for t in result.transitions:
            members = range(first, first + len(t.instances))
            picks += [i for i in members if _stretched(decompositions[i], -10)][:1]
            first += len(t.instances)
        longer, shorter = picks[:2]
        decompositions[longer] = _stretched(decompositions[longer], 10)
        decompositions[shorter] = _stretched(decompositions[shorter], -10)
        with pytest.raises(WtMinerError, match="does not add up to the transition total"):
            analyze(result.log, result.transitions, tuple(decompositions))

    @pytest.mark.parametrize("cause", CAUSES)
    def test_seconds_on_a_zero_wait_rejected(self, result, cause):
        # Every field of every decomposition is read, a zero wait's too, so
        # seconds put on any cause of a target that does not wait break its
        # transition's total.
        decompositions = list(result.decompositions)
        idle = [i for i, dec in enumerate(decompositions) if dec.waiting_duration == 0]
        assert 0 < len(idle) < len(decompositions)
        dec = decompositions[idle[0]]
        start = dec.instance.started
        decompositions[idle[0]] = WtDecomposition(
            **{**dec.as_dict(), cause: ((start, start + 1_000_000),)}
        )
        with pytest.raises(WtMinerError, match="does not add up to the transition total"):
            analyze(result.log, result.transitions, tuple(decompositions))


def _stretched(dec: WtDecomposition, seconds: int) -> WtDecomposition | None:
    """`dec` with its first span longer than 10 s made `seconds` longer, or
    None when it has no such span."""
    for cause in CAUSES:
        spans = getattr(dec, cause)
        for k, (start, end) in enumerate(spans):
            if end - start > 10:
                spans = spans[:k] + ((start, end + seconds),) + spans[k + 1 :]
                return WtDecomposition(**{**dec.as_dict(), cause: spans})
    return None
