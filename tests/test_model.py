"""Interval algebra and core type tests.

Spans are plain (start, end) pairs and `IntervalSet` is the one interval
type. Its operations are checked two ways: frozen examples worked out by
hand, and randomized comparison against a per-second membership oracle.
"""
from __future__ import annotations

import dataclasses

import pytest
from hypothesis import given
from hypothesis import strategies as st

from brute import contains_point, horizon
from wtminer.decomposition import WtDecomposition
from wtminer.model import (
    ActivityInstance,
    EventLog,
    IngestError,
    IntervalSet,
    UNKNOWN_RESOURCE,
)
from wtminer.transitions import TransitionInstance

HORIZON = 200


def points(s: IntervalSet) -> set[int]:
    return {t for t in range(HORIZON) if contains_point(s, t)}


@st.composite
def interval_sets(draw) -> IntervalSet:
    n = draw(st.integers(min_value=0, max_value=6))
    spans = []
    for _ in range(n):
        a = draw(st.integers(min_value=0, max_value=HORIZON - 1))
        b = draw(st.integers(min_value=0, max_value=HORIZON - 1))
        spans.append((min(a, b), max(a, b)))
    return IntervalSet(tuple(spans))


class TestSingleSpan:
    """One (start, end) pair, as `IntervalSet` checks and stores it."""

    def test_duration_and_emptiness(self):
        assert IntervalSet([(3, 8)]).total_duration == 5
        assert not IntervalSet([(4, 4)])
        assert IntervalSet([(4, 5)])

    def test_rejects_reversed_bounds(self):
        with pytest.raises(ValueError):
            IntervalSet([(5, 4)])
        with pytest.raises(ValueError):
            IntervalSet(((0, 2), (5, 4)))
        with pytest.raises(ValueError):
            IntervalSet([(1, 0)])

    def test_half_open_membership(self):
        s = IntervalSet([(2, 5)])
        assert contains_point(s, 2)
        assert contains_point(s, 4)
        assert not contains_point(s, 5)

    def test_touching_intervals_do_not_overlap(self):
        assert not (IntervalSet([(0, 3)]) & IntervalSet([(3, 6)]))
        assert not IntervalSet([(0, 3)]).overlapping((3, 6))
        assert IntervalSet([(0, 4)]).overlapping((3, 6)) == IntervalSet([(0, 4)])

    def test_pairwise_intersection(self):
        assert (IntervalSet([(0, 4)]) & IntervalSet([(3, 7)])).intervals == ((3, 4),)
        assert (IntervalSet([(0, 3)]) & IntervalSet([(3, 7)])).intervals == ()


class TestIntervalSetCanonicalForm:
    def test_merges_touching_and_overlapping(self):
        s = IntervalSet([(0, 3), (3, 5), (4, 8), (10, 12)])
        assert s.intervals == ((0, 8), (10, 12))

    def test_drops_empty_intervals(self):
        s = IntervalSet([(5, 5), (7, 9)])
        assert s.intervals == ((7, 9),)

    def test_sorts_input(self):
        s = IntervalSet([(10, 12), (0, 2)])
        assert s.intervals == ((0, 2), (10, 12))

    def test_empty_set(self):
        assert not IntervalSet.empty()
        assert IntervalSet.empty().total_duration == 0

    def test_repr_prints_half_open_spans(self):
        assert repr(IntervalSet([(10, 12), (0, 2)])) == "{[0, 2), [10, 12)}"
        assert repr(IntervalSet.empty()) == "{}"


class TestIntervalSetOperations:
    def test_intersect_example(self):
        a = IntervalSet([(0, 4), (6, 10)])
        b = IntervalSet([(3, 7)])
        assert (a & b) == IntervalSet([(3, 4), (6, 7)])

    def test_subtract_example(self):
        a = IntervalSet([(0, 10)])
        b = IntervalSet([(2, 4), (6, 8)])
        assert (a - b) == IntervalSet([(0, 2), (4, 6), (8, 10)])

    def test_union_example(self):
        a = IntervalSet([(0, 2), (8, 10)])
        b = IntervalSet([(2, 5)])
        assert IntervalSet(a.intervals + b.intervals) == IntervalSet([(0, 5), (8, 10)])

    def test_subtract_everything(self):
        a = IntervalSet([(3, 9)])
        assert not (a - IntervalSet([(0, 20)]))

    @given(interval_sets(), interval_sets())
    def test_intersect_matches_membership_oracle(self, a, b):
        assert points(a & b) == points(a) & points(b)

    @given(interval_sets(), interval_sets())
    def test_union_matches_membership_oracle(self, a, b):
        assert points(IntervalSet(a.intervals + b.intervals)) == points(a) | points(b)

    @given(interval_sets(), interval_sets())
    def test_subtract_matches_membership_oracle(self, a, b):
        assert points(a - b) == points(a) - points(b)

    @given(interval_sets(), interval_sets())
    def test_partition_by_subtrahend(self, a, b):
        # Splitting A on B never changes total measure.
        assert (a & b).total_duration + (a - b).total_duration == a.total_duration

    @given(interval_sets(), interval_sets())
    def test_subtract_result_disjoint_from_subtrahend(self, a, b):
        assert not ((a - b) & b)

    @given(interval_sets(), interval_sets())
    def test_results_are_canonical(self, a, b):
        for s in (a & b, IntervalSet(a.intervals + b.intervals), a - b):
            for (_, left_end), (right_start, _) in zip(s.intervals, s.intervals[1:]):
                assert left_end < right_start
            assert all(start < end for start, end in s.intervals)

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
        lo, hi = min(x, y), max(x, y)
        expected = tuple((s, e) for s, e in a.intervals if s < hi and lo < e)
        assert a.overlapping((lo, hi)).intervals == expected


class TestActivityInstance:
    def test_identity_equality(self):
        x = ActivityInstance("c1", "a", "r1", 10, 20, enabled=5)
        y = ActivityInstance("c1", "a", "r1", 10, 20, enabled=5)
        assert x != y
        assert len({x, y}) == 2
        assert {x: "x", y: "y"}[x] == "x"

    def test_waiting_and_processing(self):
        inst = ActivityInstance("c1", "a", "r1", 10, 25, enabled=4)
        assert inst.waiting == (4, 10)
        # The wait ends where processing starts, so the two spans merge.
        processing = (inst.started, inst.completed)
        assert IntervalSet((inst.waiting, processing)) == IntervalSet([(4, 25)])

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


def _slotted_examples() -> list:
    source = ActivityInstance("c1", "a", "r1", 0, 5, enabled=0)
    target = ActivityInstance("c1", "b", "r1", 9, 12, enabled=5)
    ti = TransitionInstance(source, target)
    empty = IntervalSet.empty()
    waits = IntervalSet([(5, 9)])
    return [
        (target, "started", 7),
        (waits, "intervals", ()),
        (empty, "intervals", ((0, 1),)),
        (ti, "target", source),
        (WtDecomposition(ti, empty, empty, empty, empty, waits), "extraneous", empty),
    ]


class TestSlottedTypes:
    @pytest.mark.parametrize("obj, name, value", _slotted_examples())
    def test_fields_cannot_be_assigned(self, obj, name, value):
        before = getattr(obj, name)
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(obj, name, value)
        assert getattr(obj, name) == before

    @pytest.mark.parametrize("obj, name, value", _slotted_examples())
    def test_instances_have_no_dict(self, obj, name, value):
        assert not hasattr(obj, "__dict__")


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

    def test_constructor_sorts_into_log_order(self):
        # Out-of-order input once made `b` enable `a` (clamped) and reported
        # no waiting; the constructor now sorts, so `a` enables `b` after 5 s.
        from wtminer.pipeline import run_pipeline

        a = ActivityInstance("c1", "a", "r", 0, 5)
        b = ActivityInstance("c1", "b", "r", 10, 20)
        log = EventLog((b, a))
        assert log.instances == (a, b)
        assert log.cases["c1"] == (a, b)
        result = run_pipeline(log)
        assert result.enablement.stats.clamped == 0
        assert [(t.label, t.total_duration) for t in result.transitions] == [
            (("a", "b"), 5)
        ]
        assert result.analysis.total_wt_seconds == 5

    def test_constructor_keeps_input_order_of_full_ties(self):
        x = ActivityInstance("c1", "a", "r1", 0, 5)
        y = ActivityInstance("c1", "a", "r2", 0, 5)
        assert EventLog((y, x)).instances == (y, x)
        assert EventLog((x, y)).instances == (x, y)

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
        assert horizon(log) == (3, 20)

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
