"""CTE and impact computation tests."""
from __future__ import annotations

import pytest
from hypothesis import given
from hypothesis import strategies as st

from brute import horizon
from wtminer.analysis import analyze, compute_cte, cte_if_eliminated
from wtminer.batching import detect_batches
from wtminer.calendars import WeeklyCalendar, expand_calendar
from wtminer.concurrency import compute_enablement
from wtminer.decomposition import CAUSES, Decomposer, decompose_all
from wtminer.model import ActivityInstance, EventLog, WtMinerError
from wtminer.transitions import build_transition_instances, discover_transitions


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
    log = EventLog.from_instances(instances)
    enablement = compute_enablement(log)
    transitions = discover_transitions(enablement)
    span = horizon(enablement.log)
    availability = {
        res: expand_calendar(WeeklyCalendar.always_on(res), span)
        for res in enablement.log.resources
    }
    decomposer = Decomposer(enablement.log, detect_batches(enablement.log), availability)
    decompositions = decompose_all(
        decomposer, build_transition_instances(enablement)
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
        assert ab.label == ("a", "b")
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
