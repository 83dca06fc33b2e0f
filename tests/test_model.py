"""Interval algebra and core type tests.

Interval set operations are checked two ways: frozen examples worked out by
hand, and randomized comparison against a per-second membership oracle.
"""
from __future__ import annotations

import pytest
from hypothesis import given
from hypothesis import strategies as st

from wtminer.model import (
    ActivityInstance,
    EventLog,
    IngestError,
    IntervalSet,
    TimeInterval,
    UNKNOWN_RESOURCE,
)

HORIZON = 200


def points(s: IntervalSet) -> set[int]:
    return {t for t in range(HORIZON) if s.contains_point(t)}


@st.composite
def interval_sets(draw) -> IntervalSet:
    n = draw(st.integers(min_value=0, max_value=6))
    spans = []
    for _ in range(n):
        a = draw(st.integers(min_value=0, max_value=HORIZON - 1))
        b = draw(st.integers(min_value=0, max_value=HORIZON - 1))
        spans.append(TimeInterval(min(a, b), max(a, b)))
    return IntervalSet(tuple(spans))


class TestTimeInterval:
    def test_duration_and_emptiness(self):
        assert TimeInterval(3, 8).duration == 5
        assert TimeInterval(4, 4).is_empty()
        assert not TimeInterval(4, 5).is_empty()

    def test_rejects_reversed_bounds(self):
        with pytest.raises(ValueError):
            TimeInterval(5, 4)

    def test_half_open_membership(self):
        iv = TimeInterval(2, 5)
        assert iv.contains_point(2)
        assert iv.contains_point(4)
        assert not iv.contains_point(5)

    def test_touching_intervals_do_not_overlap(self):
        assert not TimeInterval(0, 3).overlaps(TimeInterval(3, 6))
        assert TimeInterval(0, 4).overlaps(TimeInterval(3, 6))

    def test_pairwise_intersection(self):
        assert TimeInterval(0, 4).intersect(TimeInterval(3, 7)) == TimeInterval(3, 4)
        assert TimeInterval(0, 3).intersect(TimeInterval(3, 7)) is None


class TestIntervalSetCanonicalForm:
    def test_merges_touching_and_overlapping(self):
        s = IntervalSet.of((0, 3), (3, 5), (4, 8), (10, 12))
        assert s.intervals == (TimeInterval(0, 8), TimeInterval(10, 12))

    def test_drops_empty_intervals(self):
        s = IntervalSet.of((5, 5), (7, 9))
        assert s.intervals == (TimeInterval(7, 9),)

    def test_sorts_input(self):
        s = IntervalSet.of((10, 12), (0, 2))
        assert s.intervals == (TimeInterval(0, 2), TimeInterval(10, 12))

    def test_empty_set(self):
        assert IntervalSet.empty().is_empty()
        assert IntervalSet.empty().total_duration == 0
        assert not IntervalSet.empty()


class TestIntervalSetOperations:
    def test_intersect_example(self):
        a = IntervalSet.of((0, 4), (6, 10))
        b = IntervalSet.of((3, 7))
        assert (a & b) == IntervalSet.of((3, 4), (6, 7))

    def test_subtract_example(self):
        a = IntervalSet.of((0, 10))
        b = IntervalSet.of((2, 4), (6, 8))
        assert (a - b) == IntervalSet.of((0, 2), (4, 6), (8, 10))

    def test_union_example(self):
        a = IntervalSet.of((0, 2), (8, 10))
        b = IntervalSet.of((2, 5))
        assert (a | b) == IntervalSet.of((0, 5), (8, 10))

    def test_subtract_everything(self):
        a = IntervalSet.of((3, 9))
        assert (a - IntervalSet.of((0, 20))).is_empty()

    @given(interval_sets(), interval_sets())
    def test_intersect_matches_membership_oracle(self, a, b):
        assert points(a & b) == points(a) & points(b)

    @given(interval_sets(), interval_sets())
    def test_union_matches_membership_oracle(self, a, b):
        assert points(a | b) == points(a) | points(b)

    @given(interval_sets(), interval_sets())
    def test_subtract_matches_membership_oracle(self, a, b):
        assert points(a - b) == points(a) - points(b)

    @given(interval_sets(), interval_sets())
    def test_partition_by_subtrahend(self, a, b):
        # Splitting A on B never changes total measure.
        assert (a & b).total_duration + (a - b).total_duration == a.total_duration

    @given(interval_sets(), interval_sets())
    def test_subtract_result_disjoint_from_subtrahend(self, a, b):
        assert ((a - b) & b).is_empty()

    @given(interval_sets(), interval_sets())
    def test_results_are_canonical(self, a, b):
        for s in (a & b, a | b, a - b):
            for left, right in zip(s.intervals, s.intervals[1:]):
                assert left.end < right.start
            assert all(not iv.is_empty() for iv in s.intervals)

    @given(interval_sets(), interval_sets())
    def test_fast_results_equal_their_canonical_form(self, a, b):
        # intersect and subtract store their output without re-canonicalizing.
        for result in (a.intersect(b), a.subtract(b)):
            assert result == IntervalSet(result.intervals)

    @given(
        interval_sets(),
        st.integers(min_value=0, max_value=HORIZON - 1),
        st.integers(min_value=0, max_value=HORIZON - 1),
    )
    def test_overlapping_matches_linear_filter(self, a, x, y):
        span = TimeInterval(min(x, y), max(x, y))
        expected = tuple(iv for iv in a.intervals if iv.overlaps(span))
        assert a.overlapping(span).intervals == expected


class TestActivityInstance:
    def test_identity_equality(self):
        x = ActivityInstance("c1", "a", "r1", 10, 20, enabled=5)
        y = ActivityInstance("c1", "a", "r1", 10, 20, enabled=5)
        assert x != y
        assert len({x, y}) == 2

    def test_waiting_and_processing(self):
        inst = ActivityInstance("c1", "a", "r1", 10, 25, enabled=4)
        assert inst.waiting == TimeInterval(4, 10)
        assert inst.processing == TimeInterval(10, 25)

    def test_waiting_requires_enablement(self):
        inst = ActivityInstance("c1", "a", "r1", 10, 25)
        with pytest.raises(ValueError):
            _ = inst.waiting

    def test_rejects_completion_before_start(self):
        with pytest.raises(ValueError):
            ActivityInstance("c1", "a", "r1", 10, 9)

    def test_rejects_enablement_after_start(self):
        with pytest.raises(ValueError):
            ActivityInstance("c1", "a", "r1", 10, 20, enabled=11)


class TestEventLog:
    def test_orders_within_case_by_start(self):
        log = EventLog.from_instances(
            [
                ActivityInstance("c1", "b", "r1", 30, 40),
                ActivityInstance("c1", "a", "r1", 0, 10),
                ActivityInstance("c2", "a", "r1", 5, 15),
            ]
        )
        assert [i.activity for i in log.cases["c1"]] == ["a", "b"]
        assert set(log.cases) == {"c1", "c2"}
        assert log.case_count == 2

    def test_rejects_empty_log(self):
        with pytest.raises(IngestError):
            EventLog.from_instances([])

    def test_pipeline_rejects_empty_log(self):
        from wtminer.pipeline import run_pipeline

        with pytest.raises(IngestError):
            run_pipeline(EventLog(()))

    def test_horizon_covers_enablement(self):
        log = EventLog.from_instances(
            [ActivityInstance("c1", "a", "r1", 10, 20, enabled=3)]
        )
        assert log.horizon() == TimeInterval(3, 20)

    def test_resource_and_activity_catalogs(self):
        log = EventLog.from_instances(
            [
                ActivityInstance("c1", "b", "r2", 0, 1),
                ActivityInstance("c1", "a", "r1", 2, 3),
            ]
        )
        assert log.resources == ("r1", "r2")
        assert log.activities == ("a", "b")

    def test_by_resource_groups_every_instance_in_work_order(self):
        instances = [
            ActivityInstance("c2", "b", "r1", 10, 20),
            ActivityInstance("c1", "b", "r1", 10, 20),  # ties on (started, completed)
            ActivityInstance("c3", "a", "r1", 10, 20),
            ActivityInstance("c1", "a", "r1", 0, 30),
            ActivityInstance("c1", "c", "r2", 5, 6),
            ActivityInstance("c2", "a", UNKNOWN_RESOURCE, 1, 2),
            ActivityInstance("c3", "b", "r1", 10, 15),
        ]
        log = EventLog.from_instances(instances)
        index = log.by_resource
        assert tuple(index) == log.resources == (UNKNOWN_RESOURCE, "r1", "r2")
        grouped = [inst for seq in index.values() for inst in seq]
        assert len(grouped) == len(instances)
        assert {id(i) for i in grouped} == {id(i) for i in instances}
        for resource, seq in index.items():
            assert all(inst.resource == resource for inst in seq)
        assert [(i.case_id, i.activity) for i in index["r1"]] == [
            ("c1", "a"),
            ("c3", "b"),
            ("c3", "a"),
            ("c1", "b"),
            ("c2", "b"),
        ]
        for seq in index.values():
            keys = [(i.started, i.completed, i.activity, i.case_id) for i in seq]
            assert keys == sorted(keys)
        assert log.by_resource is index
