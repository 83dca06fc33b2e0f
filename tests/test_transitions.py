"""Transition discovery and aggregation tests."""
from __future__ import annotations

from hypothesis import given
from hypothesis import strategies as st

from brute import brute_transition_instances, is_self_loop
from wtminer.concurrency import compute_enablement, discover_concurrency
from wtminer.model import ActivityInstance, EventLog
from wtminer.transitions import discover_transitions


def make_log(*cases: list[tuple[str, int, int]]) -> EventLog:
    instances = []
    for idx, steps in enumerate(cases):
        for act, s, c in steps:
            instances.append(ActivityInstance(f"c{idx}", act, "r1", s, c))
    return EventLog(instances)


class TestDiscoverTransitions:
    def test_single_transition_aggregation(self):
        log = make_log(
            [("a", 0, 600), ("b", 4200, 4800)],
            [("a", 10000, 10600), ("b", 14200, 14800)],
            [("a", 20000, 20600), ("b", 24200, 24800)],
        )
        (t,) = discover_transitions(compute_enablement(log))
        assert t.label == ("a", "b")
        assert len(t.instances) == 3
        assert t.case_frequency == 1.0
        assert t.total_duration == 3 * 3600

    def test_self_loop_is_counted(self):
        log = make_log([("a", 0, 10), ("a", 25, 30)])
        (t,) = discover_transitions(compute_enablement(log))
        assert t.label == ("a", "a")
        assert is_self_loop(t)
        assert t.total_duration == 15

    def test_single_instance_cases_yield_nothing(self):
        log = make_log([("a", 0, 10)], [("b", 0, 10)])
        assert discover_transitions(compute_enablement(log)) == ()

    def test_zero_wait_still_counts_frequency(self):
        log = make_log([("a", 0, 10), ("b", 10, 20)])
        (t,) = discover_transitions(compute_enablement(log))
        assert len(t.instances) == 1
        assert t.total_duration == 0

    def test_case_frequency_is_fraction_of_cases(self):
        log = make_log(
            [("a", 0, 10), ("b", 20, 30)],
            [("a", 0, 10), ("c", 20, 30)],
        )
        transitions = {t.label: t for t in discover_transitions(compute_enablement(log))}
        assert transitions[("a", "b")].case_frequency == 0.5
        assert transitions[("a", "c")].case_frequency == 0.5

    def test_sort_by_duration_then_frequency_then_label(self):
        log = make_log(
            [("a", 0, 10), ("b", 110, 120)],          # a->b: 100
            [("a", 0, 10), ("c", 30, 40)],             # a->c: 20
            [("a", 0, 10), ("c", 30, 40)],             # a->c: 20 (freq 2)
            [("d", 0, 10), ("e", 110, 120)],           # d->e: 100
        )
        labels = [t.label for t in discover_transitions(compute_enablement(log))]
        assert labels == [("a", "b"), ("d", "e"), ("a", "c")]

    def test_repeated_case_counts_once_in_case_frequency(self):
        log = make_log(
            [("a", 0, 10), ("b", 20, 30), ("a", 40, 50), ("b", 60, 70)],
            [("c", 0, 10)],
        )
        transitions = {t.label: t for t in discover_transitions(compute_enablement(log))}
        ab = transitions[("a", "b")]
        assert len(ab.instances) == 2
        assert ab.case_frequency == 0.5

    def test_targets_are_unique(self):
        log = make_log(
            [("a", 0, 10), ("b", 12, 30), ("c", 35, 40), ("d", 50, 60)],
            [("a", 0, 10), ("c", 12, 30), ("b", 35, 40), ("d", 50, 60)],
        )
        result = compute_enablement(log, discover_concurrency(log))
        transitions = discover_transitions(result)
        targets = [target for t in transitions for target in t.instances]
        assert len(targets) == len(set(map(id, targets)))
        # The transitions hold exactly the enabled targets, each under the
        # label of its own enabling pair.
        sources = {target: source for source, target in brute_transition_instances(result)}
        assert set(targets) == set(sources)
        for t in transitions:
            for target in t.instances:
                assert (sources[target].activity, target.activity) == t.label


@st.composite
def random_sequential_logs(draw):
    n_cases = draw(st.integers(min_value=1, max_value=6))
    instances = []
    activities = ["a", "b", "c", "d"]
    for cid in range(n_cases):
        t = draw(st.integers(min_value=0, max_value=100))
        for _ in range(draw(st.integers(min_value=1, max_value=5))):
            act = draw(st.sampled_from(activities))
            start = t + draw(st.integers(min_value=0, max_value=50))
            end = start + draw(st.integers(min_value=0, max_value=50))
            instances.append(ActivityInstance(f"c{cid}", act, "r1", start, end))
            t = end
    return EventLog(instances)


class TestWaitingConservation:
    @given(random_sequential_logs())
    def test_no_waiting_lost_in_aggregation(self, log):
        # Without supplied enablement, every second of waiting belongs to
        # exactly one transition instance.
        result = compute_enablement(log, discover_concurrency(log))
        total_waiting = sum(i.started - i.enabled for i in result.log.instances)
        total_transitions = sum(
            t.total_duration for t in discover_transitions(result)
        )
        assert total_transitions == total_waiting

    @given(random_sequential_logs())
    def test_case_frequency_bounds(self, log):
        result = compute_enablement(log, discover_concurrency(log))
        for t in discover_transitions(result):
            assert 0 < t.case_frequency <= 1
