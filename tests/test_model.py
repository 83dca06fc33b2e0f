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
from wtminer.analysis import AnalysisResult, CauseImpact, TransitionImpact
from wtminer.batching import Batch, BatchingConfig, BatchingResult
from wtminer.calendars import AbsoluteAvailability, CalendarParams, WeeklyCalendar
from wtminer.concurrency import (
    ConcurrencyRelation,
    DirectlyFollowsCounts,
    EnablementResult,
    EnablementStats,
    OracleThresholds,
)
from wtminer.decomposition import WtDecomposition, _ResourceWindow
from wtminer.ingest import ColumnMapping, IngestStats, LoadResult
from wtminer.model import (
    ActivityInstance,
    EventLog,
    IngestError,
    IntervalSet,
    UNKNOWN_RESOURCE,
)
from wtminer.pipeline import PipelineConfig, PipelineResult
from wtminer.transitions import Transition, TransitionInstance

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
        (Transition("a", "b", (ti,), 1.0, 1, 4), "total_duration", 5),
        (
            TransitionImpact("a", "b", 1.0, 1, 4, {"extraneous": 4}, 1.0, 0.2),
            "delta",
            0.3,
        ),
        (AbsoluteAvailability("r1", waits), "available", empty),
        (_ResourceWindow((source, target), [0, 9], 5), "longest", 6),
    ]


class TestSlottedTypes:
    @pytest.mark.parametrize("obj, name, value", _slotted_examples())
    def test_fields_cannot_be_assigned(self, obj, name, value):
        before = getattr(obj, name)
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(obj, name, value)
        assert getattr(obj, name) == before

    @pytest.mark.parametrize("obj, name, value", _slotted_examples())
    def test_fields_cannot_be_deleted(self, obj, name, value):
        before = getattr(obj, name)
        with pytest.raises(dataclasses.FrozenInstanceError):
            delattr(obj, name)
        assert getattr(obj, name) == before

    @pytest.mark.parametrize("obj, name, value", _slotted_examples())
    def test_instances_have_no_dict(self, obj, name, value):
        assert not hasattr(obj, "__dict__")

    def test_constructors_set_every_slot(self):
        # Each hot type writes its slots through bound slot setters; every
        # slot must hold the value given for it, and no slot is left out.
        source = ActivityInstance("c1", "a", "r1", 0, 5, 0)
        target = ActivityInstance("c1", "b", "r2", 9, 12, 5)
        ti = TransitionInstance(source, target)
        sets = [IntervalSet([(k, k + 1)]) for k in range(5)]
        examples = [
            (target, ("c1", "b", "r2", 9, 12, 5)),
            (ActivityInstance("c2", "x", "r3", 3, 4), ("c2", "x", "r3", 3, 4, None)),
            (ti, (source, target)),
            (WtDecomposition(ti, *sets), (ti, *sets)),
            (IntervalSet([(3, 4), (0, 1)]), (((0, 1), (3, 4)),)),
            (IntervalSet._from_canonical(((0, 1), (3, 4))), (((0, 1), (3, 4)),)),
            (Transition("a", "b", (ti,), 0.5, 1, 4), ("a", "b", (ti,), 0.5, 1, 4)),
            (
                TransitionImpact("a", "b", 0.5, 1, 4, {"batching": 4}, 0.9, 0.1),
                ("a", "b", 0.5, 1, 4, {"batching": 4}, 0.9, 0.1),
            ),
            (AbsoluteAvailability("r2", sets[0]), ("r2", sets[0])),
            (_ResourceWindow((source, target), [0, 9], 3), ((source, target), [0, 9], 3)),
        ]
        for obj, values in examples:
            names = type(obj).__slots__
            assert len(names) == len(values)
            for name, value in zip(names, values):
                assert getattr(obj, name) == value


def _keyword_examples() -> list:
    """Each pipeline type with one value per field, in constructor order."""
    a = ActivityInstance("c1", "a", "r1", 0, 5, enabled=0)
    b = ActivityInstance("c1", "b", "r1", 9, 12, enabled=5)
    ti = TransitionInstance(a, b)
    waits = IntervalSet([(5, 9)])
    empty = IntervalSet.empty()
    log = EventLog((a, b))
    batch = Batch("a", "r1", (a, b))
    relation = ConcurrencyRelation(frozenset({("a", "b")}))
    enablement = EnablementResult(log, relation, {b: a}, EnablementStats())
    transition = Transition("a", "b", (ti,), 1.0, 1, 4)
    decomposition = WtDecomposition(ti, empty, empty, empty, empty, waits)
    calendar = WeeklyCalendar("r1", 60, ((0, 3600),))
    impact = CauseImpact("extraneous", 4, 1.0, 1.0, 0.2)
    per_transition = TransitionImpact("a", "b", 1.0, 1, 4, {"extraneous": 4}, 1.0, 0.2)
    analysis = AnalysisResult(8, 4, 0.8, {"extraneous": impact}, (per_transition,))
    config = PipelineConfig(OracleThresholds(), BatchingConfig(), CalendarParams())
    availability = AbsoluteAvailability("r1", waits)
    return [
        (IntervalSet, {"intervals": ((5, 9),)}),
        (
            ActivityInstance,
            {
                "case_id": "c1",
                "activity": "a",
                "resource": "r1",
                "started": 3,
                "completed": 5,
                "enabled": 1,
            },
        ),
        (EventLog, {"instances": (a, b)}),
        (TransitionInstance, {"source": a, "target": b}),
        (
            Transition,
            {
                "source_activity": "a",
                "target_activity": "b",
                "instances": (ti,),
                "case_frequency": 1.0,
                "total_frequency": 1,
                "total_duration": 4,
            },
        ),
        (
            WtDecomposition,
            {
                "instance": ti,
                "batching": empty,
                "contention": empty,
                "prioritization": empty,
                "unavailability": empty,
                "extraneous": waits,
            },
        ),
        (BatchingConfig, {"gap_tolerance": 3, "min_batch_size": 4}),
        (Batch, {"activity": "a", "resource": "r1", "members": (a, b)}),
        (BatchingResult, {"batches": (batch,), "by_instance": {a: batch, b: batch}}),
        (
            OracleThresholds,
            {
                "dependency_threshold": 0.5,
                "min_bidirectional_observations": 2,
                "length2_loop_guard": False,
            },
        ),
        (DirectlyFollowsCounts, {"pairs": {("a", "b"): 1}, "loops2": {}}),
        (ConcurrencyRelation, {"pairs": frozenset({("a", "b")})}),
        (
            EnablementStats,
            {
                "derived": 1,
                "supplied": 2,
                "first_in_case": 3,
                "concurrent_only": 4,
                "clamped": 5,
            },
        ),
        (
            EnablementResult,
            {"log": log, "relation": relation, "enabler": {b: a}, "stats": EnablementStats()},
        ),
        (CalendarParams, {"granule_minutes": 30, "confidence": 0.2, "support": 0.3}),
        (
            WeeklyCalendar,
            {"resource": "r1", "granule_minutes": 60, "ranges": ((0, 3600),)},
        ),
        (AbsoluteAvailability, {"resource": "r1", "available": waits}),
        (
            ColumnMapping,
            {
                "case_column": "c",
                "activity_column": "a",
                "resource_column": "r",
                "start_column": "s",
                "end_column": "e",
                "enabled_column": "n",
                "timestamp_format": "epoch",
            },
        ),
        (
            IngestStats,
            {
                "rows_total": 1,
                "rows_rejected": 2,
                "naive_timestamps": 3,
                "truncated_timestamps": 4,
                "unknown_resources": 5,
                "clamped_enablements": 6,
            },
        ),
        (LoadResult, {"log": log, "stats": IngestStats()}),
        (
            CauseImpact,
            {
                "cause": "extraneous",
                "wt_seconds": 4,
                "share_of_wt": 1.0,
                "cte_if_eliminated": 1.0,
                "delta": 0.2,
            },
        ),
        (
            TransitionImpact,
            {
                "source_activity": "a",
                "target_activity": "b",
                "case_frequency": 1.0,
                "total_frequency": 1,
                "total_wt_seconds": 4,
                "wt_by_cause": {"extraneous": 4},
                "cte_if_eliminated": 1.0,
                "delta": 0.2,
            },
        ),
        (
            AnalysisResult,
            {
                "total_pt_seconds": 8,
                "total_wt_seconds": 4,
                "cte": 0.8,
                "per_cause": {"extraneous": impact},
                "per_transition": (per_transition,),
            },
        ),
        (
            PipelineConfig,
            {
                "thresholds": OracleThresholds(0.5),
                "batching": BatchingConfig(1),
                "calendars": CalendarParams(30),
            },
        ),
        (
            _ResourceWindow,
            {"seq": (a, b), "starts": [0, 9], "longest": 3},
        ),
        (
            PipelineResult,
            {
                "config": config,
                "log": log,
                "enablement": enablement,
                "transitions": (transition,),
                "batching": BatchingResult((batch,), {a: batch, b: batch}),
                "calendars": {"r1": calendar},
                "availability": {"r1": availability},
                "decompositions": (decomposition,),
                "analysis": analysis,
                "multitasking_rate": 0.5,
                "overridden_resources": ("r1",),
            },
        ),
    ]


def _default_examples() -> list:
    """Each type with constructor defaults, and the fields they give."""
    return [
        (IntervalSet, (), {"intervals": ()}),
        (ActivityInstance, ("c1", "a", "r1", 0, 5), {"enabled": None}),
        (BatchingConfig, (), {"gap_tolerance": 0, "min_batch_size": 2}),
        (
            OracleThresholds,
            (),
            {
                "dependency_threshold": 0.9,
                "min_bidirectional_observations": 1,
                "length2_loop_guard": True,
            },
        ),
        (ConcurrencyRelation, (), {"pairs": frozenset()}),
        (EnablementStats, (), dict.fromkeys(EnablementStats().as_dict(), 0)),
        (CalendarParams, (), {"granule_minutes": 60, "confidence": 0.1, "support": 0.1}),
        (
            ColumnMapping,
            (),
            {
                "case_column": "case_id",
                "activity_column": "activity",
                "resource_column": "resource",
                "start_column": "start_time",
                "end_column": "end_time",
                "enabled_column": None,
                "timestamp_format": "iso8601",
            },
        ),
        (IngestStats, (), dict.fromkeys(IngestStats().as_dict(), 0)),
        (
            PipelineConfig,
            (),
            {
                "thresholds": OracleThresholds(),
                "batching": BatchingConfig(),
                "calendars": CalendarParams(),
            },
        ),
    ]


def _value_examples() -> list:
    """(make, other): `make()` builds equal but distinct values, `other` differs."""
    source, target = _ENDPOINTS
    ti = TransitionInstance(source, target)
    return [
        (lambda: IntervalSet([(5, 9), (0, 2)]), IntervalSet([(0, 2)])),
        (
            lambda: WtDecomposition(
                ti, IntervalSet(), IntervalSet(), IntervalSet(), IntervalSet(),
                IntervalSet([(5, 9)]),
            ),
            WtDecomposition(
                ti, IntervalSet(), IntervalSet(), IntervalSet(), IntervalSet([(5, 9)]),
                IntervalSet(),
            ),
        ),
        (
            lambda: WeeklyCalendar("r1", 60, [(3600, 7200), (0, 3600)]),
            WeeklyCalendar("r2", 60, [(0, 7200)]),
        ),
        (lambda: OracleThresholds(0.5, 2), OracleThresholds(0.5, 3)),
        (lambda: BatchingConfig(1, 3), BatchingConfig(1, 2)),
        (lambda: CalendarParams(30, 0.2), CalendarParams(30, 0.3)),
        (
            lambda: ColumnMapping(enabled_column="n", timestamp_format="epoch"),
            ColumnMapping(enabled_column="n"),
        ),
        (lambda: Batch("b", "r1", (source, target)), Batch("b", "r1", (target, source))),
        (
            lambda: Transition("a", "b", (ti,), 0.5, 1, 4),
            Transition("a", "b", (ti,), 0.5, 1, 5),
        ),
        (
            lambda: CauseImpact("contention", 4, 1.0, 0.9, 0.1),
            CauseImpact("batching", 4, 1.0, 0.9, 0.1),
        ),
        (
            lambda: AbsoluteAvailability("r1", IntervalSet([(5, 9)])),
            AbsoluteAvailability("r1", IntervalSet([(5, 8)])),
        ),
        (
            lambda: PipelineConfig(OracleThresholds(0.5), BatchingConfig(1)),
            PipelineConfig(OracleThresholds(0.5)),
        ),
    ]


def _unhashable_value_examples() -> list:
    """(make, other) as in `_value_examples`, for records with a dict or list
    field: equal by value, and unhashable, as their NamedTuples were."""
    source, target = _ENDPOINTS
    log = EventLog(_ENDPOINTS)
    relation = ConcurrencyRelation()
    impact = TransitionImpact("a", "b", 0.5, 1, 4, {"batching": 4}, 0.9, 0.1)
    cause = CauseImpact("batching", 4, 1.0, 0.9, 0.1)
    return [
        (
            lambda: TransitionImpact("a", "b", 0.5, 1, 4, {"batching": 4}, 0.9, 0.1),
            TransitionImpact("a", "b", 0.5, 1, 4, {"batching": 3}, 0.9, 0.1),
        ),
        (
            lambda: AnalysisResult(8, 4, 0.5, {"batching": cause}, (impact,)),
            AnalysisResult(8, 4, 0.5, {"batching": cause}, ()),
        ),
        (
            lambda: BatchingResult((), {}),
            BatchingResult((), {source: Batch("b", "r1", _ENDPOINTS)}),
        ),
        (
            lambda: DirectlyFollowsCounts({("a", "b"): 1}, {}),
            DirectlyFollowsCounts({("a", "b"): 2}, {}),
        ),
        (
            lambda: EnablementResult(log, relation, {target: source}, EnablementStats()),
            EnablementResult(log, relation, {}, EnablementStats()),
        ),
        (
            lambda: LoadResult(log, IngestStats(rows_total=2)),
            LoadResult(log, IngestStats(rows_total=3)),
        ),
        (
            lambda: _ResourceWindow(_ENDPOINTS, [0, 9], 5),
            _ResourceWindow(_ENDPOINTS, [0, 9], 3),
        ),
    ]


_ENDPOINTS = (
    ActivityInstance("c1", "a", "r1", 0, 5, enabled=0),
    ActivityInstance("c1", "b", "r1", 9, 12, enabled=5),
)


def _named(cases: list) -> list:
    return [pytest.param(*case, id=case[0].__name__) for case in cases]


class TestTypeContracts:
    @pytest.mark.parametrize("cls, kwargs", _named(_keyword_examples()))
    def test_keyword_and_positional_construction(self, cls, kwargs):
        for obj in (cls(**kwargs), cls(*kwargs.values())):
            for name, value in kwargs.items():
                assert getattr(obj, name) == value

    @pytest.mark.parametrize("cls, args, defaults", _named(_default_examples()))
    def test_defaults(self, cls, args, defaults):
        obj = cls(*args)
        for name, value in defaults.items():
            assert getattr(obj, name) == value

    @pytest.mark.parametrize(
        "make, other",
        [pytest.param(*case, id=type(case[1]).__name__) for case in _value_examples()],
    )
    def test_value_equality_and_hash(self, make, other):
        a, b = make(), make()
        assert a is not b
        assert a == b and not a != b
        assert hash(a) == hash(b)
        assert a != other
        assert len({a, b, other}) == 2

    @pytest.mark.parametrize(
        "make, other",
        [
            pytest.param(*case, id=type(case[1]).__name__)
            for case in _unhashable_value_examples()
        ],
    )
    def test_value_equality_without_hash(self, make, other):
        a, b = make(), make()
        assert a is not b
        assert a == b and not a != b
        assert a != other
        with pytest.raises(TypeError):
            hash(a)

    @pytest.mark.parametrize(
        "make",
        [
            lambda: ActivityInstance("c1", "a", "r1", 0, 5, enabled=0),
            lambda: TransitionInstance(_ENDPOINTS[0], _ENDPOINTS[1]),
        ],
        ids=["ActivityInstance", "TransitionInstance"],
    )
    def test_identity_equality(self, make):
        a, b = make(), make()
        assert a == a and a != b
        assert len({a, b}) == 2

    @pytest.mark.parametrize(
        "obj, name",
        [
            (EventLog((_ENDPOINTS[0],)), "instances"),
            (Batch("a", "r1", _ENDPOINTS), "members"),
            (OracleThresholds(), "dependency_threshold"),
            (BatchingConfig(), "gap_tolerance"),
            (CalendarParams(), "granule_minutes"),
            (ColumnMapping(), "case_column"),
            (WeeklyCalendar.always_on("r1"), "ranges"),
            (ConcurrencyRelation(), "pairs"),
            (CauseImpact("batching", 4, 1.0, 0.9, 0.1), "wt_seconds"),
            (AnalysisResult(8, 4, 0.5, {}, ()), "cte"),
            (BatchingResult((), {}), "batches"),
            (DirectlyFollowsCounts({}, {}), "pairs"),
            (
                EnablementResult(
                    EventLog(_ENDPOINTS), ConcurrencyRelation(), {}, EnablementStats()
                ),
                "enabler",
            ),
            (LoadResult(EventLog(_ENDPOINTS), IngestStats()), "stats"),
            (PipelineConfig(), "batching"),
        ],
    )
    def test_frozen_types_reject_assignment_and_deletion(self, obj, name):
        before = getattr(obj, name)
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(obj, name, None)
        with pytest.raises(dataclasses.FrozenInstanceError):
            delattr(obj, name)
        assert getattr(obj, name) == before


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
